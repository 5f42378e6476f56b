package svm

import (
	"math"
	"testing"
)

// TestSolveDetailedMatchesSolve pins that the instrumented path is the
// same solver: identical model, just with accounting attached.
func TestSolveDetailedMatchesSolve(t *testing.T) {
	x, y := ringData(160, 11)
	cfg := DefaultConfig()
	plain, _, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats SolveStats
	detailed, _, err := SolveDetailed(cfg, x, y, nil, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumSV() != detailed.NumSV() {
		t.Fatalf("SV count diverged: %d vs %d", plain.NumSV(), detailed.NumSV())
	}
	for i, row := range x {
		a, b := plain.Decision(row), detailed.Decision(row)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("decision %d diverged: %v vs %v", i, a, b)
		}
	}
}

func TestSolveStatsAccounting(t *testing.T) {
	x, y := ringData(200, 7)
	cfg := DefaultConfig()
	var stats SolveStats
	// Poison the stats first: SolveDetailed must reset them.
	stats.Iters = 999999
	m, warm, err := SolveDetailed(cfg, x, y, nil, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warm {
		t.Fatal("cold solve reported warm")
	}
	if stats.Rows != len(x) {
		t.Fatalf("rows = %d, want %d", stats.Rows, len(x))
	}
	if stats.Iters <= 0 || stats.Iters == 999999 {
		t.Fatalf("solver work not accounted: iters=%d", stats.Iters)
	}
	if stats.Capped || !(stats.Gap < cfg.Tol) {
		t.Fatalf("converged fit reports gap=%v capped=%v, want gap < %v", stats.Gap, stats.Capped, cfg.Tol)
	}
	if stats.KernelRows <= 0 || stats.KernelRows != stats.CacheMisses {
		t.Fatalf("kernel rows %d must equal cache misses %d (each miss materializes one row)",
			stats.KernelRows, stats.CacheMisses)
	}
	if stats.TotalSeconds <= 0 {
		t.Fatal("total time not measured")
	}
	if stats.InitSeconds < 0 || stats.KernelSeconds < 0 {
		t.Fatalf("negative phase time: %+v", stats)
	}
	// The phases are disjoint intervals inside the total.
	if sum := stats.InitSeconds + stats.KernelSeconds; sum > stats.TotalSeconds {
		t.Fatalf("phase times %v exceed total %v", sum, stats.TotalSeconds)
	}
	if m.NumSV() <= 0 {
		t.Fatal("no support vectors")
	}
	if got := stats.CacheHitRate(); got < 0 || got > 1 {
		t.Fatalf("cache hit rate %v out of [0,1]", got)
	}

	// A warm re-solve over the same data must say so and converge in no
	// more iterations than the cold solve.
	var warmStats SolveStats
	if _, _, err := SolveDetailed(cfg, x, y, warm, &warmStats); err != nil {
		t.Fatal(err)
	}
	if !warmStats.Warm {
		t.Fatal("warm solve not flagged")
	}
	if warmStats.Iters > stats.Iters {
		t.Fatalf("warm solve took more iterations (%d) than cold (%d)", warmStats.Iters, stats.Iters)
	}

	// A solve stopped by MaxIter still returns its current point, and
	// says that it is not an optimum.
	cfg.MaxIter = 1
	var capStats SolveStats
	if _, _, err := SolveDetailed(cfg, x, y, nil, &capStats); err != nil {
		t.Fatal(err)
	}
	if !capStats.Capped || capStats.Iters != 1 || !(capStats.Gap >= cfg.Tol) {
		t.Fatalf("MaxIter=1 solve reports iters=%d gap=%v capped=%v, want 1 iteration, gap >= Tol, capped",
			capStats.Iters, capStats.Gap, capStats.Capped)
	}
}

// TestSolveNilStatsUnchanged pins that the plain entry point carries no
// accounting: a nil stats pointer must not be touched (and must not
// crash any phase).
func TestSolveNilStatsUnchanged(t *testing.T) {
	x, y := linearlySeparable(120, 0.5, 3)
	if _, _, err := Solve(DefaultConfig(), x, y, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveDetailed(DefaultConfig(), x, y, nil, nil); err != nil {
		t.Fatal(err)
	}
}
