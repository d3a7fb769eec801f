// Command bench is the repository's benchmark of the served path. It
// builds cmd/extractd from the working tree, generates a workload's
// corpus and rule repositories from a seed, boots fresh daemons, drives
// their HTTP endpoints, checks every output against a precomputed
// oracle and prints each metric by name and unit. With -trace 1 it
// instead reports per-layer metrics: counters scraped from the daemon
// plus self times from a traced in-process replay of the same inputs.
//
// Run it from the repository root through bench/run.sh, which keeps the
// build cache and every file the benchmark writes under .bench_build/:
//
//	bash bench/run.sh --workload ingest-routed --seed 1 --seconds 10 --trace 0
//
// See bench/README.md for the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// setupBoots is how many boots setup_s takes the median of.
	setupBoots = 9
	// minRounds is the fewest measured rounds a run makes, whatever
	// -seconds says.
	minRounds = 3
	// deadline stops a single-workload run that would overrun its time
	// budget; the daemons are killed and the run fails.
	deadline = 175 * time.Second
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 0, "how long to keep starting measured rounds (0: run_seconds from BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics and writes .bench_build/trace-<workload>.json")
	repeat := flag.Int("repeat", 0, "run each workload N times with seeds seed..seed+N-1 and report median and spread per metric")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var selected []workload
	if *workloadFlag == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadFlag); ok {
		selected = []workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workloadFlag))
	}

	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fail(err)
	}
	bin, err := buildDaemon(root, out)
	if err != nil {
		return fail(err)
	}
	workdir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workdir)
	cleanup := func() {
		killAll()
		os.RemoveAll(workdir)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(1)
	}()
	if *repeat == 0 && len(selected) == 1 {
		t := time.AfterFunc(deadline, func() {
			fmt.Fprintln(os.Stderr, "bench: run exceeded its time budget")
			cleanup()
			os.Exit(1)
		})
		defer t.Stop()
	}

	env := &runEnv{bin: bin, workdir: workdir, out: out, pool: poolSize, seconds: *seconds, trace: *traceFlag == 1}
	if *repeat > 0 {
		return repeatMode(env, spec, selected, *seed, *repeat)
	}
	header := runHeader(root, *seed, selected)
	results := map[string]*runResult{}
	for _, w := range selected {
		res, err := env.run(w, *seed)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		results[w.name] = res
		header.Workloads[w.name] = res.props
		if env.trace {
			printLayerTable(w, res)
		}
	}
	if err := printJSON(map[string]any{"header": header}); err != nil {
		return fail(err)
	}
	if len(selected) == 1 {
		err = printJSON(results[selected[0].name].line(env.trace))
	} else {
		err = printJSON(combined(selected, results, env.trace))
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// header describes a run: what was measured, on what, and which
// mechanisms each workload actually exercised.
type header struct {
	Seed      int64                         `json:"seed"`
	Commit    string                        `json:"commit"`
	Go        string                        `json:"go"`
	Nproc     int                           `json:"nproc"`
	Pages     map[string]map[string]int     `json:"pages"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func runHeader(root string, seed int64, selected []workload) *header {
	h := &header{
		Seed: seed, Commit: "unknown", Go: runtime.Version(), Nproc: runtime.NumCPU(),
		Pages: map[string]map[string]int{}, Workloads: map[string]map[string]float64{},
	}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	for _, w := range selected {
		h.Pages[w.name] = map[string]int{"warm": w.warm, "window": w.window, "windows": w.windows, "pool": poolSize}
	}
	return h
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) line(trace bool) resultLine {
	defs, vals := e2eMetrics, r.e2e
	if trace {
		defs, vals = layerMetrics, r.layers
	}
	l := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return l
}

// combined folds the results of several workloads into one line, with
// metrics named <workload>/<metric>.
func combined(selected []workload, results map[string]*runResult, trace bool) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		l := results[w.name].line(trace)
		out.Correct = out.Correct && l.Correct
		out.Attempted += l.Attempted
		out.Failed += l.Failed
		for name, v := range l.Metrics {
			out.Metrics[w.name+"/"+name] = v
		}
	}
	return out
}

// printLayerTable prints a workload's per-layer self times to stderr:
// the layers plus the remainder add up to cpu_us_per_page.
func printLayerTable(w workload, r *runResult) {
	cpu := r.e2e["cpu_us_per_page"]
	fmt.Fprintf(os.Stderr, "\n%s: self time per page (cpu_us_per_page %.2f us)\n", w.name, cpu)
	sum := 0.0
	for l := layer(0); l < numLayers; l++ {
		v := r.layers[layerNames[l]+"_us"]
		sum += v
		if v != 0 {
			fmt.Fprintf(os.Stderr, "  %-28s %9.3f us  %5.1f%%\n", layerNames[l], v, 100*v/cpu)
		}
	}
	rem := r.layers["service.http_remainder_us"]
	fmt.Fprintf(os.Stderr, "  %-28s %9.3f us  %5.1f%%\n", "service.http_remainder", rem, 100*rem/cpu)
	fmt.Fprintf(os.Stderr, "  %-28s %9.3f us\n", "total", sum+rem)
}

// repeatMode runs each workload n times and prints, per metric, the
// median and the interquartile range as a share of the median, flagging
// every end-to-end metric whose spread exceeds its BENCHMARK.json bound.
func repeatMode(env *runEnv, spec *benchSpec, selected []workload, seed int64, n int) int {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	defs := e2eMetrics
	if env.trace {
		defs = layerMetrics
	}
	code := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for k := 0; k < n; k++ {
			res, err := env.run(w, seed+int64(k))
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", w.name, seed+int64(k), err))
			}
			if !res.correct() {
				code = 1
			}
			l := res.line(env.trace)
			for name, v := range l.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d done (failed %d)\n", w.name, seed+int64(k), l.Failed)
		}
		fmt.Printf("%s (%d runs)\n", w.name, n)
		for _, d := range defs {
			xs := values[d.name]
			q1, q3 := quartiles(xs)
			s := spread(xs)
			flag := ""
			if b, ok := bounds[d.name]; ok {
				switch {
				case s > b:
					flag = fmt.Sprintf("SPREAD > BOUND %.3f", b)
				case s > b/3:
					flag = fmt.Sprintf("spread > bound/3 (bound %.3f)", b)
				}
			}
			fmt.Printf("  %-28s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f %s\n",
				d.name, median(xs), d.unit, q1, q3, s, flag)
		}
	}
	return code
}
