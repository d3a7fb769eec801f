package extract

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rule"
)

// figure5Repo builds a repository holding only the runtime rule, as in the
// paper's Figure 5 example.
func figure5Repo(t *testing.T) *rule.Repository {
	t.Helper()
	repo := rule.NewRepository("imdb-movies")
	err := repo.Record(rule.Rule{
		Name:         "runtime",
		Optionality:  rule.Mandatory,
		Multiplicity: rule.SingleValued,
		Format:       rule.Text,
		Locations:    []string{`BODY//text()[preceding::text()[1][contains(., 'Runtime:')]]`},
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func moviePages() []*core.Page {
	mk := func(uri, runtime string) *core.Page {
		return core.NewPage(uri,
			`<html><body><table><tr><td><b>Runtime:</b> `+runtime+` <br><b>Country:</b> X <br></td></tr></table></body></html>`)
	}
	return []*core.Page{
		mk("http://imdb.com/title/tt0095159/", "108 min"),
		mk("http://imdb.com/title/tt0071853/", "91 min"),
		mk("http://imdb.com/title/tt0074103/", "104 min"),
		mk("http://imdb.com/title/tt0102059/", "84 min"),
	}
}

// TestFigure5Document reproduces the generated XML document of Figure 5.
func TestFigure5Document(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	doc, failures := p.ExtractCluster(moviePages())
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	xml := doc.XMLString()
	for _, want := range []string{
		`<imdb-movies>`,
		`<imdb-movie uri="http://imdb.com/title/tt0095159/">`,
		`<runtime>108 min</runtime>`,
		`<runtime>91 min</runtime>`,
		`<runtime>104 min</runtime>`,
		`<runtime>84 min</runtime>`,
		`</imdb-movies>`,
	} {
		if !strings.Contains(xml, want) {
			t.Errorf("XML missing %q:\n%s", want, xml)
		}
	}
	if doc.Name != "imdb-movies" || len(doc.Children) != 4 {
		t.Errorf("three-level structure wrong: root %s with %d pages", doc.Name, len(doc.Children))
	}
}

func TestSchemaGenerationCardinalities(t *testing.T) {
	repo := rule.NewRepository("imdb-movies")
	rules := []rule.Rule{
		{Name: "runtime", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued, Format: rule.Text, Locations: []string{"BODY//text()[1]"}},
		{Name: "language", Optionality: rule.Optional, Multiplicity: rule.SingleValued, Format: rule.Text, Locations: []string{"BODY//text()[2]"}},
		{Name: "actor", Optionality: rule.Mandatory, Multiplicity: rule.Multivalued, Format: rule.Text, Locations: []string{"BODY//LI/text()"}},
	}
	for _, r := range rules {
		if err := repo.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	xsd := GenerateSchema(repo)
	for _, want := range []string{
		`<xs:element name="imdb-movies">`,
		`<xs:element name="imdb-movie" minOccurs="0" maxOccurs="unbounded">`,
		`<xs:element name="runtime" type="xs:string" minOccurs="1" maxOccurs="1"/>`,
		`<xs:element name="language" type="xs:string" minOccurs="0" maxOccurs="1"/>`,
		`<xs:element name="actor" type="xs:string" minOccurs="1" maxOccurs="unbounded"/>`,
		`<xs:attribute name="uri" type="xs:anyURI"/>`,
	} {
		if !strings.Contains(xsd, want) {
			t.Errorf("schema missing %q:\n%s", want, xsd)
		}
	}
}

// TestEnhancedStructure reproduces the users-opinion aggregation example
// of §4: comments and rating embedded under a higher-level element.
func TestEnhancedStructure(t *testing.T) {
	page := core.NewPage("p1", `<html><body>
		<div class="r"><span>8.2/10</span></div>
		<div class="c"><p>great movie</p><p>loved it</p></div>
	</body></html>`)
	repo := rule.NewRepository("imdb-movies")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(repo.Record(rule.Rule{
		Name: "rating", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued,
		Format: rule.Text, Locations: []string{"BODY/DIV[1]/SPAN[1]/text()[1]"},
	}))
	must(repo.Record(rule.Rule{
		Name: "comment", Optionality: rule.Optional, Multiplicity: rule.Multivalued,
		Format: rule.Text, Locations: []string{"BODY/DIV[2]/P[position()>=1]/text()[1]"},
	}))
	must(repo.SetStructure([]rule.StructureNode{
		{Name: "users-opinion", Children: []rule.StructureNode{
			{Name: "rating", Component: "rating"},
			{Name: "comment", Component: "comment"},
		}},
	}))
	p, err := NewProcessor(repo)
	must(err)
	doc, failures := p.ExtractCluster([]*core.Page{page})
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	pageEl := doc.Children[0]
	opinion := pageEl.Find("users-opinion")
	if opinion == nil {
		t.Fatalf("users-opinion aggregate missing:\n%s", doc.XMLString())
	}
	if opinion.Find("rating") == nil || len(opinion.FindAll("comment")) != 2 {
		t.Errorf("aggregate content wrong:\n%s", doc.XMLString())
	}
	// The schema must nest accordingly.
	xsd := GenerateSchema(repo)
	if !strings.Contains(xsd, `<xs:element name="users-opinion"`) {
		t.Errorf("schema missing aggregate:\n%s", xsd)
	}
	// Conformance check passes.
	if v := ValidateAgainstRepo(doc, repo); len(v) != 0 {
		t.Errorf("conformance violations: %v", v)
	}
}

func TestFailureDetectionMissingMandatory(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	pages := moviePages()
	pages = append(pages, core.NewPage("http://imdb.com/title/broken/",
		`<html><body><p>page without runtime</p></body></html>`))
	_, failures := p.ExtractCluster(pages)
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(failures), failures)
	}
	if failures[0].Kind != FailureMissingMandatory || failures[0].Component != "runtime" {
		t.Errorf("failure = %v", failures[0])
	}
}

func TestFailureDetectionMultipleValues(t *testing.T) {
	repo := rule.NewRepository("stocks")
	if err := repo.Record(rule.Rule{
		Name: "price", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued,
		Format: rule.Text, Locations: []string{"BODY//SPAN/text()"},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	page := core.NewPage("q1", `<html><body><span>10.5</span><span>11.2</span></body></html>`)
	doc, failures := p.ExtractCluster([]*core.Page{page})
	if len(failures) != 1 || failures[0].Kind != FailureMultipleValues {
		t.Fatalf("failures = %v", failures)
	}
	// The first value is still extracted (degraded, not dropped).
	if got := doc.Children[0].Find("price").Text; got != "10.5" {
		t.Errorf("extracted price = %q", got)
	}
}

// TestEndToEndExtractionFromInducedRules wires corpus → induction →
// extraction: the values extracted by induced rules must equal ground
// truth on every page.
func TestEndToEndExtractionFromInducedRules(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(77, 30))
	sample, _ := cl.RepresentativeSplit(10)
	b := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	results, err := b.BuildAll(repo, cl.ComponentNames())
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range results {
		if !res.OK {
			t.Fatalf("%s did not converge", name)
		}
	}
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	doc, failures := p.ExtractCluster(cl.Pages)
	if len(failures) != 0 {
		t.Errorf("failures on clean corpus: %v", failures)
	}
	if len(doc.Children) != len(cl.Pages) {
		t.Fatalf("page elements = %d, want %d", len(doc.Children), len(cl.Pages))
	}
	for i, page := range cl.Pages {
		el := doc.Children[i]
		for _, comp := range cl.ComponentNames() {
			want := cl.TruthStrings(page, comp)
			var got []string
			for _, c := range el.FindAll(comp) {
				got = append(got, c.Text)
			}
			if strings.Join(want, "\x00") != strings.Join(got, "\x00") {
				t.Errorf("%s %s: got %v, want %v", page.URI, comp, got, want)
			}
		}
	}
	if v := ValidateAgainstRepo(doc, repo); len(v) != 0 {
		t.Errorf("conformance violations: %v", v)
	}
}

func TestElementHelpers(t *testing.T) {
	e := NewElement("root")
	a := e.Add(NewElement("a"))
	a.Text = "1"
	b := e.Add(NewElement("b"))
	b.Text = "2 < 3 & 4"
	e.SetAttr("id", `x"y`)
	if e.Find("a") != a || e.Find("zz") != nil {
		t.Error("Find")
	}
	if len(e.FindAll("b")) != 1 {
		t.Error("FindAll")
	}
	xml := e.XMLString()
	if !strings.Contains(xml, "&lt; 3 &amp; 4") {
		t.Errorf("text escaping: %s", xml)
	}
	if !strings.Contains(xml, `id="x&quot;y"`) {
		t.Errorf("attr escaping: %s", xml)
	}
	empty := NewElement("empty")
	if !strings.Contains(empty.XMLString(), "<empty/>") {
		t.Error("self-closing empty element")
	}
}
