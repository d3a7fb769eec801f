package main

import (
	"strings"
	"testing"
)

// TestDataintegrationExample pins the integrated catalog the fixed seeds
// produce: both stores extract cleanly, and joining on the title leaves
// 27 records, 11 of them priced by both stores.
func TestDataintegrationExample(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"store-a: extracted 25 records with 3 rules\n",
		"store-b: extracted 25 records with 3 rules\n",
		"integrated 27 records (11 priced by both stores)\n",
		`<price source="store-a">`,
		`<price source="store-b">`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "extraction failures") {
		t.Errorf("extraction failed:\n%s", out.String())
	}
}
