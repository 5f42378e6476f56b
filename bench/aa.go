package main

import (
	"fmt"
	"math"
	"os"
)

// exactOnRepeat are the count-type layer metrics that two runs of one seed
// must reproduce exactly.
var exactOnRepeat = []string{"accuracy", "classifier.fits", "classifier.bootstrap_samples", "svm.n_sv"}

// runAA runs the full set twice on one commit and one seed: the end-to-end
// metrics of every workload, and learn_online's traced run for the counts
// that must repeat exactly. It prints both values, their relative
// difference and the bound for every end-to-end metric × workload, and
// fails when a difference exceeds its bound or a count does not repeat.
func runAA(spec *benchSpec, cfg runConfig) error {
	cfg.trace = false
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, name := range spec.workloadNames() {
			res, err := runOne(spec, name, cfg, os.Stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: a correctness check failed", name)
			}
			sets[i][name] = res
		}
	}
	cfg.trace = true
	var counts [2]*result
	for i := range counts {
		res, err := runOne(spec, "learn_online", cfg, os.Stderr)
		if err != nil {
			return fmt.Errorf("learn_online (traced): %w", err)
		}
		counts[i] = res
	}

	failed := false
	fmt.Printf("%-14s %-16s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range spec.workloadNames() {
		for _, d := range spec.EndToEnd {
			a, b := sets[0][name].Metrics[d.Name].Value, sets[1][name].Metrics[d.Name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if diff > d.Bound {
				mark, failed = "  EXCEEDS BOUND", true
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %7.1f%% %7.1f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	for _, m := range exactOnRepeat {
		a, b := counts[0].Metrics[m].Value, counts[1].Metrics[m].Value
		mark := ""
		if a != b {
			mark, failed = "  DOES NOT REPEAT", true
		}
		fmt.Printf("%-14s %-16s %14.6g %14.6g%s\n", "learn_online", m, a, b, mark)
	}
	if failed {
		return fmt.Errorf("the two sets disagree")
	}
	return nil
}
