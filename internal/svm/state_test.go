package svm

import (
	"math"
	"testing"
)

// bitsEqual is the round-trip criterion for restored models: not
// "close", bit-identical — the snapshot stores the folded inference
// representation verbatim, so the restored decision function must be
// the very same float64s.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// roundTrip pushes a model through State/ModelFromState.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	r, err := ModelFromState(m.State())
	if err != nil {
		t.Fatalf("ModelFromState: %v", err)
	}
	return r
}

// probeRows builds deterministic probe points covering the data range.
func stateProbes(dim int) [][]float64 {
	var rows [][]float64
	for i := -4; i <= 4; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(i) * (1 + 0.25*float64(j))
		}
		rows = append(rows, row)
	}
	return rows
}

func TestModelStateRoundTripLinear(t *testing.T) {
	x, y := linearlySeparable(200, 0.5, 11)
	cfg := Config{Kernel: Linear, C: 10, Tol: 1e-3}
	m, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, m)
	for _, row := range stateProbes(m.Dim()) {
		if a, b := m.Decision(row), r.Decision(row); !bitsEqual(a, b) {
			t.Fatalf("linear decision diverged after round trip: %v != %v at %v", a, b, row)
		}
	}
}

func TestModelStateRoundTripRBF(t *testing.T) {
	x, y := ringData(200, 12)
	m, err := Train(DefaultConfig(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, m)
	if r.NumSV() != m.NumSV() {
		t.Fatalf("support vectors: %d != %d", r.NumSV(), m.NumSV())
	}
	rows := stateProbes(m.Dim())
	for _, row := range rows {
		if a, b := m.Decision(row), r.Decision(row); !bitsEqual(a, b) {
			t.Fatalf("RBF decision diverged after round trip: %v != %v at %v", a, b, row)
		}
	}
	// The batched slab path must agree bit-for-bit too — it walks the
	// restored slab directly.
	sa := make([]float64, m.BatchScratch(len(rows)))
	sb := make([]float64, r.BatchScratch(len(rows)))
	da := m.DecisionBatch(nil, rows, sa)
	db := r.DecisionBatch(nil, rows, sb)
	for i := range da {
		if !bitsEqual(da[i], db[i]) {
			t.Fatalf("batched decision diverged at row %d: %v != %v", i, da[i], db[i])
		}
	}
}

func TestModelStateRoundTripRFF(t *testing.T) {
	x, y := livelabData(300, 6, 13)
	cfg := DefaultConfig()
	cfg.RFF = true
	cfg.RFFDim = 64
	m, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasRFF() {
		t.Skip("RFF tier did not build on this fit")
	}
	r := roundTrip(t, m)
	if !r.HasRFF() {
		t.Fatal("restored model lost its RFF tier")
	}
	for _, row := range stateProbes(m.Dim()) {
		if a, b := m.DecisionRFF(row), r.DecisionRFF(row); !bitsEqual(a, b) {
			t.Fatalf("RFF decision diverged after round trip: %v != %v at %v", a, b, row)
		}
		if a, b := m.Decision(row), r.Decision(row); !bitsEqual(a, b) {
			t.Fatalf("exact decision diverged after round trip: %v != %v at %v", a, b, row)
		}
	}
}

// TestModelStateIsolation: mutating an exported state must not reach
// the model, and a model built from a state must not alias it.
func TestModelStateIsolation(t *testing.T) {
	x, y := ringData(120, 14)
	m, err := Train(DefaultConfig(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	row := stateProbes(m.Dim())[2]
	want := m.Decision(row)
	st := m.State()
	r, err := ModelFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.SVSlab {
		st.SVSlab[i] = math.Pi
	}
	for i := range st.SVNorm {
		st.SVNorm[i] = -1
	}
	if got := m.Decision(row); !bitsEqual(got, want) {
		t.Fatal("mutating exported state changed the source model")
	}
	if got := r.Decision(row); !bitsEqual(got, want) {
		t.Fatal("mutating exported state changed the rebuilt model")
	}
}

func TestModelFromStateRejectsCorruptState(t *testing.T) {
	x, y := ringData(150, 15)
	m, err := Train(DefaultConfig(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	base := m.State()
	cases := []struct {
		name   string
		mutate func(st *ModelState)
	}{
		{"zero dim", func(st *ModelState) { st.Dim = 0 }},
		{"unknown kernel", func(st *ModelState) { st.Config.Kernel = KernelKind(99) }},
		{"negative gamma", func(st *ModelState) { st.Gamma = -1 }},
		{"NaN threshold", func(st *ModelState) { st.BFold = math.NaN() }},
		{"scaler length", func(st *ModelState) { st.ScalerMean = st.ScalerMean[:1] }},
		{"zero scaler std", func(st *ModelState) { st.ScalerStd[0] = 0 }},
		{"NaN coefficient", func(st *ModelState) { st.SVCoef[0] = math.NaN() }},
		{"slab stride", func(st *ModelState) { st.SVSlab = st.SVSlab[:len(st.SVSlab)-1] }},
		{"norms length", func(st *ModelState) { st.SVNorm = append(st.SVNorm, 0) }},
		{"linear weights on RBF", func(st *ModelState) { st.WFold = []float64{1, 2, 3, 4} }},
		{"rff shape", func(st *ModelState) {
			st.RFF = &RFFState{NumFreq: 4, Dim: st.Dim, WProj: []float64{1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base // shallow copy; mutations below replace or index slices
			st.ScalerMean = append([]float64(nil), base.ScalerMean...)
			st.ScalerStd = append([]float64(nil), base.ScalerStd...)
			st.SVCoef = append([]float64(nil), base.SVCoef...)
			st.SVSlab = append([]float64(nil), base.SVSlab...)
			st.SVNorm = append([]float64(nil), base.SVNorm...)
			tc.mutate(&st)
			if _, err := ModelFromState(st); err == nil {
				t.Fatal("corrupt state was accepted")
			}
		})
	}
}

func TestWarmStateDataRoundTrip(t *testing.T) {
	x, y := ringData(150, 16)
	_, state, err := Solve(tightConfig(), x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := state.Data()
	r, err := WarmStateFromData(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alpha) != len(state.Alpha) || !bitsEqual(r.b, state.b) ||
		r.n != state.n || r.age != state.age {
		t.Fatal("warm state fields diverged after round trip")
	}
	for i := range r.Alpha {
		if !bitsEqual(r.Alpha[i], state.Alpha[i]) {
			t.Fatalf("alpha %d diverged", i)
		}
	}
	if (r.scaler == nil) != (state.scaler == nil) {
		t.Fatal("scaler presence diverged")
	}
	if !r.Usable(d.N, len(d.ScalerMean)) {
		t.Fatal("restored warm state not usable for its own shape")
	}
	// A restored seed must actually warm-start a solve.
	if _, _, err := Solve(tightConfig(), x, y, r); err != nil {
		t.Fatalf("solve from restored warm state: %v", err)
	}
}

func TestWarmStateFromDataRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		d    WarmStateData
	}{
		{"scaler mismatch", WarmStateData{ScalerMean: []float64{1}, ScalerStd: []float64{1, 2}}},
		{"NaN alpha", WarmStateData{Alpha: []float64{math.NaN()}}},
		{"zero std", WarmStateData{ScalerMean: []float64{0}, ScalerStd: []float64{0}}},
		{"negative n", WarmStateData{N: -1}},
		{"negative age", WarmStateData{Age: -3}},
		{"infinite b", WarmStateData{B: math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := WarmStateFromData(tc.d); err == nil {
				t.Fatal("corrupt warm state was accepted")
			}
		})
	}
}
