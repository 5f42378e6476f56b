package svm

import (
	"math"
	"testing"

	"exbox/internal/mathx"
)

// Retraining benchmarks at ExBox's paper-realistic online batch sizes:
// a cell has n observed tuples, a batch of B new flows lands, and the
// Admittance Classifier refits on n+B rows. Cold solves from zero; Warm
// seeds the solver with the previous fit's dual variables. The set is
// an easy one and the seed never loses a row: see
// BenchmarkRetrainWindow1500 for the refit the online loop pays. The CI
// perf gate (internal/tools/benchcheck) tracks all of them against
// BENCH_baseline.json.

// shellData builds a dim-d dataset with a spherical boundary —
// curved like the ExCR boundary, so the RBF kernel is doing real work.
func shellData(n, dim int, seed int64) (x [][]float64, y []float64) {
	rng := mathx.NewRand(seed)
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		var r float64
		if i%2 == 0 {
			r = 0.2 + rng.Float64()*0.8 // inside the shell
		} else {
			r = 2.0 + rng.Float64()*1.5 // outside
		}
		var norm float64
		for j := range row {
			row[j] = rng.NormFloat64()
			norm += row[j] * row[j]
		}
		norm = math.Sqrt(norm)
		for j := range row {
			row[j] = row[j] / norm * r
		}
		x = append(x, row)
		if i%2 == 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	return x, y
}

func benchRetrain(b *testing.B, n, batch int, warmStart bool) {
	b.Helper()
	x, y := shellData(n+batch, 5, 41)
	cfg := DefaultConfig()
	_, warm, err := Solve(cfg, x[:n], y[:n], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var seed *WarmState
		if warmStart {
			seed = warm
		}
		if _, _, err := Solve(cfg, x, y, seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrainCold(b *testing.B)   { benchRetrain(b, 500, 10, false) }
func BenchmarkRetrainWarm(b *testing.B)   { benchRetrain(b, 500, 10, true) }
func BenchmarkRetrainCold1k(b *testing.B) { benchRetrain(b, 1000, 20, false) }
func BenchmarkRetrainWarm1k(b *testing.B) { benchRetrain(b, 1000, 20, true) }

// Inference benchmarks: the per-arrival cost every steady-state ExBox
// workflow pays. The RBF model is trained on heavily overlapping
// clouds so it retains well over 200 support vectors — the regime
// where the contiguous slab beats pointer-chased rows (the scalar
// path's before/after on one machine is frozen in BENCH_pr4.json).

func benchDecisionModel(b *testing.B, kernel KernelKind) (*Model, []float64) {
	b.Helper()
	x, y := overlapData(600, 5, 41)
	cfg := DefaultConfig()
	cfg.Kernel = kernel
	m, err := Train(cfg, x, y)
	if err != nil {
		b.Fatal(err)
	}
	if kernel == RBF && m.NumSV() < 200 {
		b.Fatalf("RBF bench model has %d SVs, want >= 200", m.NumSV())
	}
	return m, x[1]
}

func BenchmarkDecisionLinear(b *testing.B) {
	m, row := benchDecisionModel(b, Linear)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Decision(row)
	}
	_ = sink
}

func BenchmarkDecisionRBF(b *testing.B) {
	m, row := benchDecisionModel(b, RBF)
	scratch := make([]float64, m.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.DecisionInto(scratch, row)
	}
	_ = sink
}

// BenchmarkDecisionRFF scores the same heavy RBF model through the
// random-Fourier-feature tier: the sub-microsecond budget path the CI
// gate pins (ns/op and the 0 allocs/op contract).
func BenchmarkDecisionRFF(b *testing.B) {
	x, y := overlapData(600, 5, 41)
	cfg := DefaultConfig()
	cfg.RFF = true
	m, err := Train(cfg, x, y)
	if err != nil {
		b.Fatal(err)
	}
	if !m.HasRFF() {
		b.Fatal("RFF tier not built")
	}
	if m.NumSV() < 200 {
		b.Fatalf("RFF bench model has %d SVs, want >= 200", m.NumSV())
	}
	row := x[1]
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.DecisionRFF(row)
	}
	_ = sink
}

// BenchmarkDecisionBatchRBF scores 16 rows per op through one
// DecisionBatch call — the Reevaluate/SelectNetwork shape. ns/op is for the whole batch.
func BenchmarkDecisionBatchRBF(b *testing.B) {
	m, _ := benchDecisionModel(b, RBF)
	rows := probeRows(16, 5, 3)
	dst := make([]float64, len(rows))
	scratch := make([]float64, m.BatchScratch(len(rows)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		out := m.DecisionBatch(dst, rows, scratch)
		sink += out[0]
	}
	_ = sink
}
