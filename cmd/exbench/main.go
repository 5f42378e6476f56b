// Command exbench regenerates the data behind every figure of the
// ExBox paper's evaluation. It prints each figure as an aligned text
// table (the same rows/series the paper plots) so results can be
// diffed against EXPERIMENTS.md. Standard output is deterministic for
// a scale (full_results.txt is `-scale full`'s, byte for byte); each
// figure's wall time goes to standard error as a `[figN @ scale: t]`
// line.
//
// Usage:
//
//	exbench [-scale quick|full] [-figure all|fig2|fig3|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14]
//	exbench -bench [-benchout exbench-bench.json] [-benchcount 5]
//
// Quick scale shrinks sample counts for fast runs while preserving the
// qualitative shapes; full scale matches the paper's sizes (Figure 13
// at full scale labels 21000 samples and takes minutes).
//
// -bench skips the figures and instead runs the middlebox performance
// benchmarks (warm/cold classifier retrains, parallel admission) in
// process, emitting a machine-readable JSON snapshot in the same
// format as the committed BENCH_baseline.json that the CI perf gate
// (internal/tools/benchcheck) compares against.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"exbox/internal/eval"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	figure := flag.String("figure", "all", "which figure to regenerate (all, fig2, fig3, fig7..fig14)")
	benchMode := flag.Bool("bench", false, "run performance benchmarks instead of figures, emit JSON")
	benchOut := flag.String("benchout", "", "write the -bench JSON snapshot here instead of stdout")
	benchCount := flag.Int("benchcount", 3, "repeat each -bench benchmark this many times, record the median")
	flag.Parse()

	if *benchMode {
		if err := runBench(*benchOut, *benchCount); err != nil {
			fmt.Fprintf(os.Stderr, "exbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var scale eval.Scale
	switch *scaleFlag {
	case "quick":
		scale = eval.Quick
	case "full":
		scale = eval.Full
	default:
		fmt.Fprintf(os.Stderr, "exbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	type runner struct {
		id  string
		run func()
	}
	printFigs := func(figs ...eval.Figure) {
		for _, f := range figs {
			fmt.Print(f.Render())
		}
	}
	runners := []runner{
		{"fig2", func() {
			for _, h := range eval.Figure2(scale) {
				fmt.Print(h.Render())
			}
		}},
		{"fig3", func() { printFigs(eval.Figure3(scale)) }},
		{"fig7", func() { printFigs(eval.Figure7(scale)...) }},
		{"fig8", func() { printFigs(eval.Figure8(scale)...) }},
		{"fig9", func() { printFigs(eval.Figure9(scale)...) }},
		{"fig10", func() { printFigs(eval.Figure10(scale)...) }},
		{"fig11", func() { printFigs(eval.Figure11(scale)...) }},
		{"fig12", func() { printFigs(eval.Figure12(scale)) }},
		{"fig13", func() { printFigs(eval.Figure13(scale)) }},
		{"fig14", func() { printFigs(eval.Figure14(scale)...) }},
	}

	ran := false
	for _, r := range runners {
		if *figure != "all" && *figure != r.id {
			continue
		}
		start := time.Now()
		r.run()
		fmt.Println()
		fmt.Fprintf(os.Stderr, "[%s @ %s scale: %v]\n", r.id, scale, time.Since(start).Round(time.Millisecond))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "exbench: unknown figure %q\n", *figure)
		os.Exit(2)
	}
}
