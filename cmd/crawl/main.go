// Command crawl gathers the pages of a live site — the "Web site" input
// arrow of Figure 1 — as one pipeline run: a streaming crawl source into
// a pages-directory sink (pages.json + HTML files, compatible with
// clusterpages, retrozilla and extract), or, with -ndjson, into NDJSON
// page lines on stdout ready to pipe into extractd's POST /ingest.
//
// Usage:
//
//	crawl -url http://host/ -out ./pages -max 200
//	crawl -url http://host/ -ndjson | curl -s -N --data-binary @- 'http://localhost:8090/ingest'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/pipeline"
	"repro/internal/webfetch"
)

func main() {
	start := flag.String("url", "", "start URL")
	out := flag.String("out", "pages", "output directory")
	max := flag.Int("max", 200, "maximum pages")
	delay := flag.Duration("delay", 0, "delay between requests (e.g. 100ms)")
	ndjson := flag.Bool("ndjson", false, "write NDJSON page lines to stdout instead of a directory")
	timeout := flag.Duration("timeout", 0, "per-request timeout (default 15s)")
	flag.Parse()
	if *start == "" {
		fmt.Fprintln(os.Stderr, "crawl: -url is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, *start, *out, *max, *delay, *timeout, *ndjson); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, start, out string, max int, delay, timeout time.Duration, ndjson bool) error {
	f := &webfetch.Fetcher{MaxPages: max, Delay: delay, Timeout: timeout}
	src, err := f.Start(start)
	if err != nil {
		return err
	}
	if ndjson {
		_, err := pipeline.Run(ctx, pipeline.Config{Workers: 1}, src,
			pipeline.NewNDJSONSink(w, pipeline.AppendPageLine))
		return err
	}
	sink, err := pipeline.NewPagesDirSink(out, "crawled")
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(ctx, pipeline.Config{Workers: 1}, src, sink); err != nil {
		return err
	}
	fmt.Fprintf(w, "crawled %d page(s) -> %s\n", sink.PageCount(), out)
	return nil
}
