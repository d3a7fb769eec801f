// Command extract applies a recorded rule repository to a stream of
// pages and writes the extraction output — one pipeline run over the
// directory-manifest (or NDJSON stdin) source and the aggregated-XML,
// file-per-page-XML or NDJSON sink. The default shape is the paper's:
// cluster directory in, one XML document (Figure 5 structure, or the
// repository's enhanced structure) out, plus the generated XML Schema.
// Detected extraction failures (§7) are reported on stderr.
//
// Usage:
//
//	extract -rules rules.json -site ./site/imdb-movies -out data.xml -xsd schema.xsd
//	extract -rules rules.json -site ./site/imdb-movies -split ./xml-pages
//	crawl -url http://host/ -ndjson | extract -rules rules.json -site - -format ndjson -out -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/rule"
)

func main() {
	rulesPath := flag.String("rules", "rules.json", "rule repository (from retrozilla)")
	site := flag.String("site", "", `cluster directory (from sitegen or crawl), or "-" for NDJSON pages on stdin`)
	out := flag.String("out", "data.xml", `output document ("-" for stdout)`)
	xsd := flag.String("xsd", "", "output XML Schema (optional)")
	format := flag.String("format", "xml", "output format: xml (aggregated document) or ndjson (one record per line)")
	split := flag.String("split", "", "also write one XML document per page into this directory")
	flag.Parse()
	if *site == "" {
		fmt.Fprintln(os.Stderr, "extract: -site is required")
		os.Exit(2)
	}
	if err := run(*rulesPath, *site, *out, *xsd, *format, *split); err != nil {
		fmt.Fprintln(os.Stderr, "extract:", err)
		os.Exit(1)
	}
}

func run(rulesPath, site, out, xsd, format, split string) error {
	repo, err := rule.LoadFile(rulesPath)
	if err != nil {
		return err
	}
	ex, err := pipeline.NewStaticExtractor(map[string]*rule.Repository{repo.Cluster: repo})
	if err != nil {
		return err
	}

	var src pipeline.Source
	if site == "-" {
		src = pipeline.NewNDJSONSource(os.Stdin, 0, nil)
	} else {
		if src, err = pipeline.NewManifestSource(site, nil); err != nil {
			return err
		}
	}

	if format != "xml" && format != "ndjson" {
		return fmt.Errorf("unknown -format %q (want xml or ndjson)", format)
	}
	var sinks pipeline.MultiSink
	if split != "" {
		dirSink, err := pipeline.NewXMLDirSink(split)
		if err != nil {
			return err
		}
		sinks = append(sinks, dirSink)
	}
	// The output file is opened last, after every argument has been
	// validated — a bad flag must not truncate an existing output.
	outW, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	if format == "xml" {
		sinks = append(sinks, pipeline.NewAggregateXML(outW, repo.Cluster, false))
	} else {
		sinks = append(sinks, pipeline.NewNDJSONSink(outW, func(dst []byte, it *pipeline.Item) ([]byte, error) {
			return pipeline.AppendResultLine(dst, it, "")
		}))
	}
	// Failures stream to stderr as they surface, like the old batch
	// driver's end-of-run report but without buffering the run.
	var failures int
	sinks = append(sinks, pipeline.FuncSink(func(it *pipeline.Item) error {
		if it.Err != nil {
			failures++
			fmt.Fprintln(os.Stderr, "failure:", it.Err)
			return nil
		}
		for _, f := range it.Failures {
			failures++
			fmt.Fprintln(os.Stderr, "failure:", f)
		}
		return nil
	}))

	stats, err := pipeline.Run(context.Background(), pipeline.Config{
		Classifier: pipeline.FixedRepo(repo.Cluster),
		Extractor:  ex,
	}, src, sinks)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("extracted %d page(s) -> %s\n", stats.Extracted, out)
	if xsd != "" {
		if err := os.WriteFile(xsd, []byte(extract.GenerateSchema(repo)), 0o644); err != nil {
			return err
		}
		fmt.Printf("schema -> %s\n", xsd)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d extraction failure(s) detected\n", failures)
	}
	return nil
}

// openOut opens the output destination ("-" is stdout, which stays open).
func openOut(out string) (io.Writer, func() error, error) {
	if out == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
