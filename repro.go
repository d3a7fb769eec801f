// Package repro is a Go reproduction of "Semi-Automated Extraction of
// Targeted Data from Web Pages" (Estiévenart, Meurisse, Hainaut, Thiran —
// IEEE ICDE Workshops 2006): the Retrozilla system for building mapping
// rules over clusters of Web pages and extracting the targeted data to
// XML.
//
// The root package is a facade re-exporting the main entry points; the
// implementation lives in the internal packages:
//
//	internal/dom         tolerant HTML parser + DOM tree (Mozilla substitute)
//	internal/xpath       XPath 1.0 subset engine (location evaluation)
//	internal/rule        mapping rules + rule repository
//	internal/core        candidate building, checking, refinement (the paper's §3)
//	internal/cluster     page clustering (§2.1)
//	internal/extract     XML + XML Schema extraction processor (§4)
//	internal/corpus      synthetic site generator + ground-truth oracle
//	internal/baseline    RoadRunner-class automatic wrapper (for §6 comparison)
//	internal/experiments regenerators for every table/figure
//
// A minimal end-to-end use:
//
//	sample := core.Sample{core.NewPage(uri1, html1), core.NewPage(uri2, html2)}
//	b := &core.Builder{Sample: sample, Oracle: myOracle}
//	res, _ := b.BuildRule("runtime")
//	repo := rule.NewRepository("imdb-movies")
//	repo.Record(res.Rule)
//	proc, _ := extract.NewProcessor(repo)
//	doc, failures := proc.ExtractCluster(pages)
//	fmt.Print(doc.XMLString())
//
// Runnable programs: examples/dataintegration joins two book stores'
// records into one catalog, and examples/pricemonitor recrawls a quote
// site and reports price moves. The cmd/ toolbox covers Figure 1 end to
// end: sitegen and servesite (a synthetic site on disk or over HTTP),
// crawl, clusterpages, retrozilla (rule building), extract, evaluate
// (the paper's tables and figures) and the extractd daemon; benchguard
// and metriclint are CI checks.
package repro

import (
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/rule"
)

// Re-exported core types, so small programs can depend on the facade
// alone.
type (
	// Page is one Web page (URI + parsed document).
	Page = core.Page
	// Sample is a working sample of pages.
	Sample = core.Sample
	// Builder drives candidate building, checking and refinement.
	Builder = core.Builder
	// Oracle supplies the human selection/interpretation input.
	Oracle = core.Oracle
	// OracleFunc adapts a function to Oracle.
	OracleFunc = core.OracleFunc
	// BuildResult is the outcome of building one rule.
	BuildResult = core.BuildResult
	// Rule is a mapping rule.
	Rule = rule.Rule
	// Repository is a recorded set of rules for one cluster.
	Repository = rule.Repository
	// Processor extracts XML from pages using a repository.
	Processor = extract.Processor
)

// NewPage parses HTML into a Page.
func NewPage(uri, html string) *Page { return core.NewPage(uri, html) }

// NewRepository creates an empty rule repository for a cluster.
func NewRepository(cluster string) *Repository { return rule.NewRepository(cluster) }

// NewProcessor compiles a repository into an extraction processor.
func NewProcessor(repo *Repository) (*Processor, error) { return extract.NewProcessor(repo) }

// GenerateSchema derives the XML Schema for a repository's output.
func GenerateSchema(repo *Repository) string { return extract.GenerateSchema(repo) }
