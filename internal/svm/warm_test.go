package svm

import (
	"fmt"
	"math"
	"testing"

	"exbox/internal/mathx"
)

// tightConfig is DefaultConfig with the KKT tolerance cranked down so
// independent solves land on (numerically) the same optimum; the
// equivalence tests compare decision functions at 1e-6.
func tightConfig() Config {
	cfg := DefaultConfig()
	cfg.Tol = 1e-8
	cfg.MaxIter = 4_000_000
	return cfg
}

// TestWarmStartEquivalence is the headline property of the incremental
// solver: a warm-started fit must reach the same decision function as
// a cold fit of the same problem. The seed is deliberately perturbed —
// alphas scaled down and a third of them zeroed — so the solver has
// real re-optimization to do from the warm state, not just a no-op
// verification sweep.
func TestWarmStartEquivalence(t *testing.T) {
	x, y := ringData(310, 21)
	cfg := tightConfig()

	cold, state, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]float64(nil), state.Alpha...)
	for i := range perturbed {
		perturbed[i] *= 0.9
		if i%3 == 0 {
			perturbed[i] = 0
		}
	}
	warmModel, _, err := Solve(cfg, x, y, state.Remap(perturbed))
	if err != nil {
		t.Fatal(err)
	}
	// Held-out grid over the data's support.
	for gx := -4.0; gx <= 4.0; gx += 0.5 {
		for gy := -4.0; gy <= 4.0; gy += 0.5 {
			p := []float64{gx, gy}
			dw, dc := warmModel.Decision(p), cold.Decision(p)
			if math.Abs(dw-dc) > 1e-6 {
				t.Fatalf("decision mismatch at %v: warm=%v cold=%v (|Δ|=%g)",
					p, dw, dc, math.Abs(dw-dc))
			}
		}
	}
}

// TestWarmStartGrownBatch is the online scenario the solver exists
// for: fit n rows, observe a batch of B more, refit warm. The warm fit
// keeps the seed's feature standardization (that is what makes it
// cheap), so its decision function is not bitwise that of a cold refit
// — but it must classify like one everywhere except a thin band around
// the boundary.
func TestWarmStartGrownBatch(t *testing.T) {
	const n, batch = 300, 10
	x, y := ringData(n+batch, 22)
	cfg := DefaultConfig()

	_, seed, err := Solve(cfg, x[:n], y[:n], nil)
	if err != nil {
		t.Fatal(err)
	}
	warmModel, next, err := Solve(cfg, x, y, seed)
	if err != nil {
		t.Fatal(err)
	}
	coldModel, _, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || len(next.Alpha) != n+batch {
		t.Fatalf("warm fit returned unusable next state: %+v", next)
	}
	disagree := 0
	for gx := -4.0; gx <= 4.0; gx += 0.25 {
		for gy := -4.0; gy <= 4.0; gy += 0.25 {
			p := []float64{gx, gy}
			dw, dc := warmModel.Decision(p), coldModel.Decision(p)
			if math.Abs(dc) < 0.05 {
				continue // boundary band: sign there is solver noise
			}
			if (dw >= 0) != (dc >= 0) {
				disagree++
			}
		}
	}
	if disagree > 0 {
		t.Fatalf("warm and cold fits disagree on %d off-boundary grid points", disagree)
	}
	if acc := trainAccuracy(warmModel, x, y); acc < 0.97 {
		t.Fatalf("warm-started accuracy = %v, want >= 0.97", acc)
	}
}

// TestWarmStartRepairsInfeasibleSeed feeds the solver a deliberately
// broken seed — out-of-box values and an unbalanced Σ αᵢyᵢ — and
// requires the same decisions as a cold fit: warm state must never be
// able to corrupt a result, only speed one up.
func TestWarmStartRepairsInfeasibleSeed(t *testing.T) {
	x, y := ringData(200, 23)
	cfg := tightConfig()
	_, state, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, len(x))
	rng := mathx.NewRand(24)
	for i := range bad {
		bad[i] = rng.Float64()*3*cfg.C - cfg.C // in [-C, 2C]
	}
	warmModel, _, err := Solve(cfg, x, y, state.Remap(bad))
	if err != nil {
		t.Fatal(err)
	}
	coldModel, _, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range x {
		dw, dc := warmModel.Decision(row), coldModel.Decision(row)
		if math.Abs(dw-dc) > 1e-5 {
			t.Fatalf("broken seed changed the solution: warm=%v cold=%v", dw, dc)
		}
	}
}

// TestWarmStartShortAndLongSeeds exercises the alignment rules: seeds
// shorter than the dataset leave the tail cold, seeds longer than the
// dataset are truncated; both must still train correctly.
func TestWarmStartShortAndLongSeeds(t *testing.T) {
	x, y := ringData(150, 25)
	cfg := DefaultConfig()
	_, state, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := append(append([]float64(nil), state.Alpha...), 1, 2, 3)
	for _, seed := range []*WarmState{state.Remap(state.Alpha[:10]), state.Remap(long)} {
		m, _, err := Solve(cfg, x, y, seed)
		if err != nil {
			t.Fatal(err)
		}
		if acc := trainAccuracy(m, x, y); acc < 0.97 {
			t.Fatalf("seed len %d: accuracy = %v, want >= 0.97", len(seed.Alpha), acc)
		}
	}
}

// TestWarmStateRefreshRules checks the guards that force periodic cold
// refits: a seed from a much smaller dataset is ignored, and a seed
// reused maxWarmAge times expires so the frozen standardization cannot
// go stale forever.
func TestWarmStateRefreshRules(t *testing.T) {
	x, y := ringData(200, 26)
	cfg := DefaultConfig()
	_, state, err := Solve(cfg, x[:100], y[:100], nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.Usable(len(x), len(x[0])) {
		t.Fatal("seed from 100 rows must not be usable at 200 rows (>25% growth)")
	}
	if !state.Usable(110, 2) {
		t.Fatal("seed from 100 rows should be usable at 110 rows")
	}
	aged := *state
	aged.age = maxWarmAge
	if aged.Usable(100, 2) {
		t.Fatal("expired seed must not be usable")
	}
	// Reuse bumps age: after a warm fit the returned state is older.
	_, next, err := Solve(cfg, x[:110], y[:110], state)
	if err != nil {
		t.Fatal(err)
	}
	if next.age != 1 {
		t.Fatalf("warm reuse should age the state: age = %d, want 1", next.age)
	}
	if next.n != state.n {
		t.Fatalf("warm reuse must keep the scaler horizon: n = %d, want %d", next.n, state.n)
	}
	// A cold fit resets the horizon and age.
	_, fresh, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.age != 0 || fresh.n != len(x) {
		t.Fatalf("cold fit state: age=%d n=%d, want 0 and %d", fresh.age, fresh.n, len(x))
	}
}

// TestSolveAlphasFeasible checks the returned dual variables are a
// feasible SMO state: inside the box and balanced across classes —
// exactly what the next warm start assumes.
func TestSolveAlphasFeasible(t *testing.T) {
	x, y := ringData(250, 26)
	cfg := DefaultConfig()
	_, state, err := Solve(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Alpha) != len(x) {
		t.Fatalf("got %d alphas for %d rows", len(state.Alpha), len(x))
	}
	var s float64
	for i, a := range state.Alpha {
		if a < 0 || a > cfg.C {
			t.Fatalf("alpha[%d] = %v outside [0, %v]", i, a, cfg.C)
		}
		s += a * y[i]
	}
	if math.Abs(s) > 1e-8 {
		t.Fatalf("sum alpha*y = %v, want 0", s)
	}
}

// checkOptimal asserts the returned dual point is feasible and
// Tol-optimal without trusting anything the solver maintained: the
// gradient F_i = Σ_j α_j y_j K_ij − y_i is recomputed from the returned
// alphas over the state's standardization, and the stopping condition
// m(α) − M(α) < Tol is evaluated on that.
func checkOptimal(t *testing.T, label string, cfg Config, x [][]float64, y []float64, st *WarmState) {
	t.Helper()
	n := len(x)
	if len(st.Alpha) != n {
		t.Fatalf("%s: got %d alphas for %d rows", label, len(st.Alpha), n)
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 1 / float64(len(x[0]))
	}
	kern := kernelFunc(cfg.Kernel, gamma)
	xs := st.scaler.TransformAll(x)
	var sum float64
	for i, a := range st.Alpha {
		if !(a >= 0 && a <= cfg.C) {
			t.Fatalf("%s: alpha[%d] = %v outside [0, %v]", label, i, a, cfg.C)
		}
		sum += a * y[i]
	}
	if math.Abs(sum) > 1e-9*cfg.C*float64(n) {
		t.Fatalf("%s: Σ αᵢyᵢ = %v, want 0", label, sum)
	}
	m, M := math.Inf(-1), math.Inf(1)
	for i := range xs {
		f := -y[i]
		for j, a := range st.Alpha {
			if a != 0 {
				f += a * y[j] * kern(xs[i], xs[j])
			}
		}
		up, low := st.Alpha[i] < cfg.C, st.Alpha[i] > 0
		if y[i] < 0 {
			up, low = low, up
		}
		if up {
			m = math.Max(m, -f)
		}
		if low {
			M = math.Min(M, -f)
		}
	}
	if !(m-M < cfg.Tol) {
		t.Fatalf("%s: maximal violation m−M = %v, want < Tol = %v", label, m-M, cfg.Tol)
	}
}

// TestSolveOptimalFromScratch is the solver's correctness property,
// over seeded random problems of both kernels — separable, curved and
// heavily overlapping (many variables at the bound C) — and every way
// a fit can start: cold, warm from a prefix fit, from an infeasible
// seed, and from a seed whose rows were since evicted and relabeled.
// Each result must pass checkOptimal, and solving the same input twice
// must give bit-identical duals and threshold. Shrinking must have
// parked rows in every kind of start, or their restoration went
// unchecked.
func TestSolveOptimalFromScratch(t *testing.T) {
	const n, batch = 240, 20
	shrunk := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		problems := []struct {
			name   string
			kernel KernelKind
			data   func() ([][]float64, []float64)
		}{
			{"linear/separable", Linear, func() ([][]float64, []float64) { return linearlySeparable(n+batch, 0.5, seed) }},
			{"linear/overlap", Linear, func() ([][]float64, []float64) { return overlapData(n+batch, 3, seed) }},
			{"rbf/ring", RBF, func() ([][]float64, []float64) { return ringData(n+batch, seed) }},
			{"rbf/overlap", RBF, func() ([][]float64, []float64) { return overlapData(n+batch, 5, seed) }},
		}
		for _, p := range problems {
			cfg := DefaultConfig()
			cfg.Kernel = p.kernel
			x, y := p.data()
			_, prefix, err := Solve(cfg, x[:n], y[:n], nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := mathx.NewRand(seed + 100)
			infeasible := make([]float64, len(x))
			for i := range infeasible {
				infeasible[i] = rng.Float64()*3*cfg.C - cfg.C // in [-C, 2C]
			}
			// The window slid: the oldest batch rows are gone, the seed's
			// alphas moved up with the survivors, and every seventh
			// survivor changed its label without giving up its alpha.
			slidX, slidY := x[batch:], append([]float64(nil), y[batch:]...)
			for i := 0; i < n-batch; i += 7 {
				slidY[i] = -slidY[i]
			}
			starts := []struct {
				name string
				x    [][]float64
				y    []float64
				seed *WarmState
			}{
				{"cold", x, y, nil},
				{"warm", x, y, prefix},
				{"infeasible seed", x, y, prefix.Remap(infeasible)},
				{"evicted+relabeled seed", slidX, slidY, prefix.Remap(prefix.Alpha[batch:])},
			}
			for _, s := range starts {
				label := fmt.Sprintf("seed %d, %s, %s", seed, p.name, s.name)
				var stats SolveStats
				_, st, err := SolveDetailed(cfg, s.x, s.y, s.seed, &stats)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if stats.Warm != (s.seed != nil) || stats.Capped {
					t.Fatalf("%s: warm=%v capped=%v", label, stats.Warm, stats.Capped)
				}
				checkOptimal(t, label, cfg, s.x, s.y, st)
				shrunk[s.name] += stats.Shrunk
				_, again, err := Solve(cfg, s.x, s.y, s.seed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if math.Float64bits(again.b) != math.Float64bits(st.b) {
					t.Fatalf("%s: threshold differs between two solves of one input", label)
				}
				for i := range st.Alpha {
					if math.Float64bits(again.Alpha[i]) != math.Float64bits(st.Alpha[i]) {
						t.Fatalf("%s: alpha[%d] differs between two solves of one input", label, i)
					}
				}
			}
		}
	}
	for _, name := range []string{"cold", "warm", "infeasible seed", "evicted+relabeled seed"} {
		if shrunk[name] == 0 {
			t.Errorf("%s: no solve ever parked a row", name)
		}
	}
}
