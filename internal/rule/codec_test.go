package rule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// oracleParse is Parse as it was before the canonical route: the whole
// document through json.Unmarshal.
func oracleParse(data []byte) (*Repository, error) {
	var repo Repository
	if err := json.Unmarshal(data, &repo); err != nil {
		return nil, fmt.Errorf("rule: parsing repository: %w", err)
	}
	if err := repo.Validate(); err != nil {
		return nil, fmt.Errorf("rule: validating repository: %w", err)
	}
	return &repo, nil
}

// signedRepository is a small repository carrying a routing signature
// with keys that need escaping.
func signedRepository() *Repository {
	repo := NewRepository("imdb-movies")
	r := validRule("title")
	r.Refine = &Refinement{Pattern: `^(\d+) min$`}
	if err := repo.Record(r); err != nil {
		panic(err)
	}
	if err := repo.Record(validRule("runtime")); err != nil {
		panic(err)
	}
	repo.Structure = []StructureNode{{Name: "info", Children: []StructureNode{{Name: "t", Component: "title"}}}}
	repo.Signature = cluster.NewSignature()
	for _, kw := range []string{"runtime", "tom&jerry", "<b>", "a b", "q\"uote"} {
		repo.Signature.Add(cluster.FeaturesFromParts("http://movies.example/title/tt1/",
			map[string]struct{}{"HTML/BODY/B": {}}, map[string]struct{}{kw: {}, "shared": {}}))
	}
	return repo
}

// repositoryParseSeeds are hand edits of a saved repository: each must
// parse to the oracle's value or fail with its error text.
func repositoryParseSeeds(saved string) []string {
	sigStart := strings.Index(saved, `"signature"`)
	sig := strings.TrimSuffix(strings.TrimSpace(saved[sigStart+len(`"signature": `):]), "}")
	head := strings.TrimSuffix(strings.TrimSpace(saved[:sigStart]), ",")
	return []string{
		saved,
		`{"signature":` + sig + `,` + head[1:] + `}`,
		head + `,"Signature":` + sig + `}`,
		head + `,"SIGNATURE":null}`,
		head + `,"signature":` + sig + `,"signature":` + sig + `}`,
		head + `,"signature":null}`,
		head + `,"signature":` + sig + `}`,
		head + `,"extra":[1,{"a":"}"}],"signature":` + sig + `}`,
		head + `,"signature":` + sig + `,"cluster":"other-name"}`,
		head + `,"signature":` + sig + `,"rules":"nope"}`,
		head + `,"signature":` + sig + `}}`,
		head + `,"signature":` + sig,
		head + `,"signature":{"pages":1,"keywords":[{"k":"a","n":2}]}}`,
		head + `,"signature":{"pages":1,"keywords":[{"k":"b","n":1},{"k":"a","n":1}]}}`,
		head + `,"signature":{}}`,
		head + `,"signature":[]}`,
		`{"cluster":"x","rules":[],"signature":{"pages":0}}`,
		`{"signature":{"pages":0}}`,
		`{}`,
		`null`,
		``,
	}
}

// FuzzParseRepository: Parse gives the oracle's repository or its error
// text for any bytes, seeded with a saved repository and hand edits of
// it (reordered, unknown, repeated or differently-cased keys, escapes,
// null).
func FuzzParseRepository(f *testing.F) {
	saved, err := json.MarshalIndent(signedRepository(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range repositoryParseSeeds(string(saved)) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleParse(data)
		got, gotErr := Parse(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("Parse(%q): err %v, oracle err %v", data, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Parse(%q): err %q, oracle err %q", data, gotErr, wantErr)
			}
			return
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("Parse(%q):\n got %s\nwant %s", data, gotJSON, wantJSON)
		}
	})
}

// TestRepositoryAppendJSON: AppendJSON writes json.Marshal's bytes with
// and without a signature, and with the signature encoded beforehand.
func TestRepositoryAppendJSON(t *testing.T) {
	signed := signedRepository()
	unsigned := signedRepository()
	unsigned.Signature = nil
	for _, repo := range []*Repository{signed, unsigned, NewRepository("empty")} {
		want, err := json.Marshal(repo)
		if err != nil {
			t.Fatal(err)
		}
		if got := repo.AppendJSON([]byte("x"), nil); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got[1:], want)
		}
		if repo.Signature != nil {
			if got := repo.AppendJSON(nil, repo.Signature.AppendJSON(nil)); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON with the signature encoded:\n got %s\nwant %s", got, want)
			}
		}
	}
}

// TestParseCanonicalRoute: a saved repository takes the direct route;
// shapes encoding/json must decide do not.
func TestParseCanonicalRoute(t *testing.T) {
	saved, err := json.MarshalIndent(signedRepository(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// By index into repositoryParseSeeds: the saved file, the signature
	// moved first, compact, an unknown member, a repeated other key,
	// unsorted pairs, an empty signature, minimal documents.
	directSeeds := map[int]bool{0: true, 1: true, 6: true, 7: true, 8: true, 13: true, 14: true, 16: true, 17: true}
	for i, s := range repositoryParseSeeds(string(saved)) {
		direct := parseCanonical([]byte(s)) != nil
		if want := directSeeds[i]; direct != want {
			t.Errorf("seed %d: direct route %v, want %v:\n%.200s", i, direct, want, s)
		}
	}
}
