package rule

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func xmlTestRepo(t *testing.T) *Repository {
	t.Helper()
	repo := NewRepository("imdb-movies")
	runtime := validRule("runtime")
	runtime.Refine = &Refinement{Pattern: `(\d+) min`}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(repo.Record(runtime))
	lang := validRule("language")
	lang.Optionality = Optional
	must(repo.Record(lang))
	genres := validRule("genre")
	genres.Multiplicity = Multivalued
	genres.Refine = &Refinement{Split: ","}
	must(repo.Record(genres))
	must(repo.SetStructure([]StructureNode{
		{Name: "info", Children: []StructureNode{
			{Name: "runtime", Component: "runtime"},
			{Name: "language", Component: "language"},
		}},
		{Name: "genre", Component: "genre"},
	}))
	return repo
}

func TestXMLRepositoryRoundTrip(t *testing.T) {
	repo := xmlTestRepo(t)
	data, err := repo.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalRepositoryXML(data)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if loaded.Cluster != repo.Cluster {
		t.Errorf("cluster = %q", loaded.Cluster)
	}
	if !reflect.DeepEqual(loaded.Rules, repo.Rules) {
		t.Errorf("rules differ:\n%+v\nvs\n%+v", loaded.Rules, repo.Rules)
	}
	if !reflect.DeepEqual(loaded.Structure, repo.Structure) {
		t.Errorf("structure differs:\n%+v\nvs\n%+v", loaded.Structure, repo.Structure)
	}
}

func TestXMLRepositoryFileRoundTrip(t *testing.T) {
	repo := xmlTestRepo(t)
	path := filepath.Join(t.TempDir(), "rules.xml")
	if err := repo.SaveXML(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadXML(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Rules) != 3 {
		t.Errorf("rules = %d", len(loaded.Rules))
	}
	r, ok := loaded.Lookup("runtime")
	if !ok || r.Refine == nil || r.Refine.Pattern != `(\d+) min` {
		t.Errorf("refinement lost: %+v", r)
	}
}

// TestLoadFileBySuffix: LoadFile picks the decoder from the suffix, so a
// ".xml" file must be the XML form and anything else JSON.
func TestLoadFileBySuffix(t *testing.T) {
	repo := xmlTestRepo(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "rules.xml")
	jsonPath := filepath.Join(dir, "rules.json")
	if err := repo.SaveXML(xmlPath); err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{xmlPath, jsonPath} {
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(loaded.Rules, repo.Rules) {
			t.Errorf("%s: rules differ:\n%+v\nvs\n%+v", path, loaded.Rules, repo.Rules)
		}
	}
	// The suffix alone decides: JSON content under a .xml name is an XML
	// parse error, not a silent fallback.
	misnamed := filepath.Join(dir, "json.xml")
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misnamed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(misnamed); err == nil {
		t.Error("LoadFile read JSON content from a .xml path")
	}
}

func TestXMLRepositoryShape(t *testing.T) {
	repo := xmlTestRepo(t)
	data, err := repo.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`<rule-repository cluster="imdb-movies">`,
		`<mapping-rule>`,
		`<name>runtime</name>`,
		`<optionality>mandatory</optionality>`,
		`<multiplicity>single-valued</multiplicity>`,
		`<format>text</format>`,
		`<location>BODY//TR[6]/TD[1]/text()[1]</location>`,
		`<structure>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("XML missing %q:\n%s", want, s)
		}
	}
}

func TestXMLRepositoryRejectsInvalid(t *testing.T) {
	bad := []string{
		`not xml`,
		`<rule-repository cluster="9bad"></rule-repository>`,
		`<rule-repository cluster="c"><mapping-rule><name>x</name><optionality>maybe</optionality><multiplicity>single-valued</multiplicity><format>text</format><location>BODY</location></mapping-rule></rule-repository>`,
	}
	for i, s := range bad {
		if _, err := UnmarshalRepositoryXML([]byte(s)); err == nil {
			t.Errorf("bad XML %d accepted", i)
		}
	}
}

func TestJSONAndXMLEquivalence(t *testing.T) {
	repo := xmlTestRepo(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	xmlPath := filepath.Join(dir, "r.xml")
	if err := repo.Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := repo.SaveXML(xmlPath); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	fromXML, err := LoadXML(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON.Rules, fromXML.Rules) {
		t.Error("JSON and XML encodings disagree")
	}
}
