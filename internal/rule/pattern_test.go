package rule

import (
	"testing"

	"repro/internal/dom"
)

func TestRefinementPattern(t *testing.T) {
	r := Rule{
		Name: "runtime", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Pattern: `(\d+) min`},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RefineValue("108 min"); len(got) != 1 || got[0] != "108" {
		t.Errorf("RefineValue = %v, want [108]", got)
	}
	// Non-matching noise is dropped.
	if got := c.RefineValue("no digits here"); len(got) != 0 {
		t.Errorf("noise should be dropped, got %v", got)
	}
}

func TestRefinementWholeMatchWithoutGroup(t *testing.T) {
	r := Rule{
		Name: "price", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Pattern: `\$\d+\.\d\d`},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RefineValue("price: $18.60 (incl. tax)"); len(got) != 1 || got[0] != "$18.60" {
		t.Errorf("RefineValue = %v", got)
	}
}

func TestRefinementSplit(t *testing.T) {
	// §7: "the text node actually includes a comma-separated list of
	// values of a multivalued component".
	r := Rule{
		Name: "language", Optionality: Mandatory, Multiplicity: Multivalued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Split: "/"},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got := c.RefineValue("English/Italian/Russian")
	if len(got) != 3 || got[0] != "English" || got[2] != "Russian" {
		t.Errorf("split = %v", got)
	}
	// Empty fragments are dropped.
	if got := c.RefineValue("a//b/ "); len(got) != 2 {
		t.Errorf("split with empties = %v", got)
	}
}

func TestRefinementSplitThenPattern(t *testing.T) {
	r := Rule{
		Name: "tag", Optionality: Mandatory, Multiplicity: Multivalued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Split: ",", Pattern: `#(\w+)`},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got := c.RefineValue("#go, #db, plain")
	if len(got) != 2 || got[0] != "go" || got[1] != "db" {
		t.Errorf("split+pattern = %v", got)
	}
}

func TestRefinementValidation(t *testing.T) {
	// Split on a single-valued rule is invalid.
	r := Rule{
		Name: "x", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Split: ","},
	}
	if err := r.Validate(); err == nil {
		t.Error("split on single-valued rule must be rejected")
	}
	// Bad regexp is invalid.
	r2 := Rule{
		Name: "x", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{Pattern: `([`},
	}
	if err := r2.Validate(); err == nil {
		t.Error("bad pattern must be rejected")
	}
	// Empty refinement is a no-op, not an error.
	r3 := Rule{
		Name: "x", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
		Refine: &Refinement{},
	}
	if err := r3.Validate(); err != nil {
		t.Errorf("empty refinement rejected: %v", err)
	}
}

func TestRefinementNilPassthrough(t *testing.T) {
	r := Rule{
		Name: "x", Optionality: Mandatory, Multiplicity: SingleValued,
		Format: Text, Locations: []string{"BODY//text()[1]"},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RefineValue("108 min"); len(got) != 1 || got[0] != "108 min" {
		t.Errorf("nil refinement must pass through, got %v", got)
	}
}

func TestRefinedRuleEndToEnd(t *testing.T) {
	doc := dom.Parse(`<html><body><p>Languages: English/French/German</p></body></html>`)
	r := Rule{
		Name: "language", Optionality: Mandatory, Multiplicity: Multivalued,
		Format:    Text,
		Locations: []string{"BODY/P[1]/text()[1]"},
		Refine:    &Refinement{Pattern: `Languages: (.*)$`},
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Apply(doc)
	if len(nodes) != 1 {
		t.Fatal("location")
	}
	vals := c.RefineValue("Languages: English/French/German")
	if len(vals) != 1 || vals[0] != "English/French/German" {
		t.Fatalf("pattern stage = %v", vals)
	}
	// Chain with split.
	r.Refine.Split = "/"
	// Split applies before pattern, so this combination keeps only the
	// fragment carrying the "Languages: " prefix.
	c2, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vals2 := c2.RefineValue("Languages: English/French")
	if len(vals2) != 1 || vals2[0] != "English" {
		t.Fatalf("split+pattern = %v", vals2)
	}
}
