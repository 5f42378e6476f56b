// Command bench is the repository's benchmark: it drives the unmodified
// exboxd binary over loopback UDP and the unmodified internal packages
// through their exported functions, prints every metric by name with its
// unit, checks that the outputs are correct, and exits non-zero when a
// check fails. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md says what each measures and why.
//
// Run it from the repository root:
//
//	go run -C bench . -workload all -seed 1
//	go run -C bench . -workload churn -seed 7 -seconds 24 -trace 1
//	go run -C bench . -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// runConfig is what the command line gives a workload.
type runConfig struct {
	seed    int64
	seconds float64 // measured time; each workload documents its split
	trace   bool    // per-layer run: spans around calls into each layer
	setups  int     // how many times set-up is repeated; setup_s is the median
}

// check is one correctness check and its evidence.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload hands back: the metrics of the requested kind
// (end-to-end without -trace, per-layer with it), the failed-operation
// count, and the checks it ran.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []check
	notes     []string // context a reader needs next to the numbers
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"fwd_steady":   func(c runConfig) (*outcome, error) { return daemonWorkload("fwd_steady", c) },
	"churn":        func(c runConfig) (*outcome, error) { return daemonWorkload("churn", c) },
	"admit_lib":    admitLib,
	"learn_online": learnOnline,
}

// metricValue and result are the last line of standard output, the form
// the benchmark driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: record spans around each layer and report the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice and compare the two sets against the bounds")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 5}

	if *aa {
		if err := runAA(spec, cfg); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = spec.workloadNames()
	}
	ok := true
	all := map[string]*result{}
	for _, name := range names {
		res, err := runOne(spec, name, cfg, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		ok = ok && res.Correct
		all[name] = res
	}
	// The last line is the machine-readable result: the one workload's, or
	// with -workload all a map from workload name to result.
	var last interface{} = all
	if len(names) == 1 {
		last = all[names[0]]
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload and renders its outcome against the spec: every
// end-to-end metric is present, nothing the spec does not name is reported.
func runOne(spec *benchSpec, name string, cfg runConfig, w io.Writer) (*result, error) {
	run, found := workloads[name]
	if !found {
		return nil, fmt.Errorf("unknown workload (BENCHMARK.json names %v)", spec.workloadNames())
	}
	out, err := run(cfg)
	if err != nil {
		return nil, err
	}
	return renderOutcome(spec, name, cfg, out, w)
}

// renderOutcome checks a workload's outcome against the spec, prints it
// for a reader on w, and returns the driver's form of it.
func renderOutcome(spec *benchSpec, name string, cfg runConfig, out *outcome, w io.Writer) (*result, error) {
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	res := &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, have := out.metrics[d.Name]
		if !have && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// A per-layer metric that does not exist on this workload reads 0
		// (README.md lists which layer metrics each workload produces).
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for k := range out.metrics {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not in BENCHMARK.json", unknown)
	}

	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	for _, d := range defs {
		if _, have := out.metrics[d.Name]; have {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", out.attempted, out.failed)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range out.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
			res.Correct = false
		}
		fmt.Fprintf(w, "  %s %s (%s)\n", mark, c.name, c.detail)
	}
	return res, nil
}
