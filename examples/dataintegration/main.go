// Data integration: the heterogeneous-sources use case (§1 and §7 — "the
// integration of data coming from heterogeneous Web sites").
//
// Two book stores publish the same concept with different layouts. One
// rule set is induced per source cluster (a set of mapping rules
// addresses only one page cluster — Table 4, resilience row); the
// extracted records are then joined on the book title into a single
// integrated document, with per-source prices side by side — the
// price-comparison scenario. The stores assign their own ISBNs, so a
// book both stores sell keeps store A's.
//
// Run with: go run ./examples/dataintegration
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/rule"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Source A: the standard books layout. Source B: same concept,
	// different seed and different structural profile (more authors, no
	// publishers), standing in for a second store.
	profA := corpus.DefaultBookProfile(11, 25)
	profB := corpus.DefaultBookProfile(22, 25)
	profB.ProbPublisher = 0
	profB.ProbSubtitle = 0.8
	profB.MaxAuthors = 2
	storeA := corpus.GenerateBooks(profA)
	storeB := corpus.GenerateBooks(profB)

	recordsA, err := extractStore(w, "store-a", storeA)
	if err != nil {
		return err
	}
	recordsB, err := extractStore(w, "store-b", storeB)
	if err != nil {
		return err
	}

	// Integration: join on the book title (the stores assign their own
	// ISBNs, so the title is the shared key in this scenario).
	merged := map[string]*record{}
	for _, r := range recordsA {
		merged[r.title] = &record{isbn: r.isbn, title: r.title, priceA: r.price}
	}
	for _, r := range recordsB {
		if m, ok := merged[r.title]; ok {
			m.priceB = r.price
			continue
		}
		merged[r.title] = &record{isbn: r.isbn, title: r.title, priceB: r.price}
	}

	// Emit the integrated document.
	doc := extract.NewElement("book-catalog")
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	both := 0
	for _, k := range keys {
		m := merged[k]
		b := doc.Add(extract.NewElement("book"))
		b.SetAttr("isbn", m.isbn)
		t := b.Add(extract.NewElement("title"))
		t.Text = m.title
		if m.priceA != "" {
			p := b.Add(extract.NewElement("price"))
			p.SetAttr("source", "store-a")
			p.Text = m.priceA
		}
		if m.priceB != "" {
			p := b.Add(extract.NewElement("price"))
			p.SetAttr("source", "store-b")
			p.Text = m.priceB
		}
		if m.priceA != "" && m.priceB != "" {
			both++
		}
	}
	fmt.Fprintf(w, "integrated %d records (%d priced by both stores)\n\n", len(merged), both)
	// Print the first few records.
	head := extract.NewElement("book-catalog")
	for i, c := range doc.Children {
		if i == 4 {
			break
		}
		head.Children = append(head.Children, c)
	}
	_, err = io.WriteString(w, head.XMLString())
	return err
}

type record struct {
	isbn, title, price string
	priceA, priceB     string
}

// extractStore induces rules for one store cluster and extracts flat
// records.
func extractStore(w io.Writer, label string, cl *corpus.Cluster) ([]record, error) {
	sample, _ := cl.RepresentativeSplit(8)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, []string{"book-title", "price", "isbn"}); err != nil {
		return nil, err
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		return nil, err
	}
	doc, failures := proc.ExtractCluster(cl.Pages)
	if len(failures) > 0 {
		fmt.Fprintf(w, "%s: %d extraction failures\n", label, len(failures))
	}
	var out []record
	for _, page := range doc.Children {
		out = append(out, record{
			isbn:  childText(page, "isbn"),
			title: childText(page, "book-title"),
			price: childText(page, "price"),
		})
	}
	fmt.Fprintf(w, "%s: extracted %d records with %d rules\n", label, len(out), len(repo.Rules))
	return out, nil
}

func childText(page *extract.Element, name string) string {
	if el := page.Find(name); el != nil {
		return el.Text
	}
	return ""
}
