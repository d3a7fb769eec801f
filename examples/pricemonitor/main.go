// Price monitoring: the information-monitoring use case the paper's
// conclusion names ("the monitoring of Web data such as concurrent prices
// or stock rankings") — run on the continuous-monitoring stack.
//
// Mapping rules are induced once from a sample of stock-quote pages, the
// pages are served as a live site, and the drift-adaptive recrawl
// scheduler (internal/monitor) watches it: stable fetches decay the
// recrawl interval toward the ceiling, a site redesign trips the drift
// alarm mid-recrawl — the repair path re-induces the broken rule and the
// schedule snaps back to the minimum interval — and monitoring then
// carries on, reporting price movements on the change feed. The whole
// campaign runs on a fake clock: no wall-clock sleeps.
//
// Run with: go run ./examples/pricemonitor
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/resilient"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/webfetch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// One-time setup: induce rules from a representative sample and
	// attach the cluster signature so crawled pages route themselves.
	cl := corpus.GenerateStocks(corpus.DefaultStockProfile(2024, 12))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		return err
	}
	sig := cluster.NewSignature()
	for _, p := range cl.Pages {
		sig.Add(cluster.Fingerprint(cluster.PageInfo{URI: p.URI, Doc: p.Doc}))
	}
	repo.Signature = sig
	fmt.Fprintf(w, "induced %d rules for cluster %s\n", len(repo.Rules), repo.Cluster)

	// The quote pages as a live Web site.
	site, err := webfetch.NewSiteHandler(cl)
	if err != nil {
		return err
	}
	siteSrv := httptest.NewServer(site)
	defer siteSrv.Close()

	// The extraction service with the recrawl scheduler on a fake clock.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.NewServer(4, 16, &webfetch.Fetcher{MaxPages: 50})
	defer srv.Close()
	srv.Log = quiet
	srv.AutoRepair = false // repair runs synchronously inside the recrawl pass
	srv.Lifecycle = lifecycle.Config{
		WindowSize: 12, MinSamples: 6, TripRatio: 0.5,
		BufferSize: 64, RepairSample: 10, Logger: quiet,
	}
	if _, err := srv.LoadRepo(cl.Name, repo); err != nil {
		return err
	}
	clock := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	sched := srv.EnableMonitor(monitor.Config{
		MinInterval: time.Minute,
		MaxInterval: 8 * time.Minute,
		Budget:      1,
		Rand:        func() float64 { return 0 },
		Clock:       clock,
		Log:         quiet,
	})
	if _, err := sched.Register(cl.Name, siteSrv.URL+"/", time.Minute); err != nil {
		return err
	}

	ctx := context.Background()
	var cursor uint64
	recrawl := func(label string, advance time.Duration) {
		clock.Advance(advance)
		sched.Tick(ctx)
		fmt.Fprintf(w, "\n== %s ==\n", label)
		events := sched.Feed().Since(cursor)
		for _, ev := range events {
			cursor = ev.Seq
			line := fmt.Sprintf("  %-8s %s", ev.Kind, pathOf(ev.URI))
			if last := ev.Record["last-price"]; len(last) > 0 {
				line += "  last=" + last[0]
			}
			fmt.Fprintln(w, line)
		}
		if len(events) == 0 {
			fmt.Fprintln(w, "  (no changes)")
		}
		st, _ := sched.Get(cl.Name)
		fmt.Fprintf(w, "  outcome=%s driftRate=%.3f next recrawl in %s\n",
			st.LastOutcome, st.DriftRate, st.Interval.Round(time.Second))
	}

	// Baseline: every quote page enters the feed as "new"; a quiet
	// follow-up fetch decays the recrawl interval toward the ceiling.
	recrawl("baseline crawl", 0)
	recrawl("stable fetch: interval decays", 2*time.Minute)

	// A site redesign inserts a summary table above the quote table: the
	// induced rules are positional, so every quote field now resolves to
	// the wrong table and comes back empty — a detectable failure (§7:
	// mandatory component not found), not silent wrong data. The drift
	// alarm trips mid-recrawl, the repair path re-induces against the
	// remembered golden values (still on the page, one table further
	// down), and the schedule snaps back to the minimum interval — the
	// monitoring loop heals itself. The quote values themselves are
	// unchanged, so the feed stays silent.
	const summary = `<TABLE class="summary"><TR><TD>Market summary: trading normal</TD></TR></TABLE>`
	var redesigned []*core.Page
	for _, p := range cl.Pages {
		src := strings.Replace(dom.Render(p.Doc),
			`<TABLE class="quote">`, summary+`<TABLE class="quote">`, 1)
		redesigned = append(redesigned, core.NewPage(p.URI, src))
	}
	if err := site.SetPages(redesigned); err != nil {
		return err
	}
	st, _ := sched.Get(cl.Name)
	recrawl("site redesign: drift alarm and self-repair", st.Interval)

	// Monitoring carries on after the repair: two quotes tick, and the
	// feed reports exactly those pages as changed.
	sortedOrig := append([]*core.Page(nil), cl.Pages...)
	sort.Slice(sortedOrig, func(i, j int) bool { return sortedOrig[i].URI < sortedOrig[j].URI })
	byURI := map[string]*core.Page{}
	for _, p := range redesigned {
		byURI[p.URI] = p
	}
	var moved []*core.Page
	for i, next := range []string{"131.07", "17.45"} {
		orig := sortedOrig[i]
		old := cl.TruthStrings(orig, "last-price")[0]
		src := dom.Render(byURI[orig.URI].Doc)
		moved = append(moved, core.NewPage(orig.URI,
			strings.Replace(src, ">"+old+"<", ">"+next+"<", 1)))
	}
	if err := site.SetPages(moved); err != nil {
		return err
	}
	st, _ = sched.Get(cl.Name)
	recrawl("two prices moved", st.Interval)
	return nil
}

func pathOf(uri string) string {
	if u, err := url.Parse(uri); err == nil && u.Path != "" {
		return u.Path
	}
	return uri
}
