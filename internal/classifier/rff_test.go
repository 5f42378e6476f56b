package classifier

import (
	"math"
	"testing"

	"exbox/internal/excr"
	"exbox/internal/learner"
	"exbox/internal/mathx"
	"exbox/internal/obs"
	"exbox/internal/svm"
)

// paritySamples builds labeled arrivals whose ground truth is the
// parity of the total flow count — a checkerboard in count space. A
// high-gamma exact RBF memorizes it; a tiny random-Fourier dictionary
// (and its linear terms) cannot track the memorized boundary, which is
// exactly the failure mode the oracle gate exists to catch.
func paritySamples(n int, seed int64) []excr.Sample {
	rng := mathx.NewRand(seed)
	s := excr.DefaultSpace
	out := make([]excr.Sample, 0, n)
	for i := 0; i < n; i++ {
		m := excr.NewMatrix(s)
		total := 0
		for c := 0; c < s.Classes; c++ {
			k := rng.Intn(6)
			m = m.Set(excr.AppClass(c), 0, k)
			total += k
		}
		label := 1.0
		if total%2 == 1 {
			label = -1
		}
		out = append(out, excr.Sample{
			Arrival: excr.Arrival{Matrix: m, Class: excr.AppClass(rng.Intn(s.Classes))},
			Label:   label,
		})
	}
	return out
}

// rffAdversaryConfig is a classifier setup whose exact model is wiggly
// (memorizing gamma) while the approximate tier is starved (4-feature
// dictionary): the tier's sign agreement lands near chance, far below
// the demotion threshold.
func rffAdversaryConfig(rff bool) Config {
	cfg := DefaultConfig()
	cfg.SVM.Gamma = 10 // memorize the parity checkerboard
	cfg.SVM.RFF = rff
	cfg.SVM.RFFDim = 4
	cfg.BatchSize = 100000 // no refit while the gate accumulates
	cfg.MinBootstrap = 1 << 30
	return cfg
}

// TestRFFDemotionEndToEnd drives the whole oracle-gate lifecycle
// through the public classifier surface: a fit publishes an RFF tier,
// the tier serves decisions, labeled observations reveal it disagrees
// with the exact boundary, the gate demotes it — after which
// DecideScratch must produce margins bit-identical to a twin
// classifier that never had a tier — and a fresh fit promotes again.
func TestRFFDemotionEndToEnd(t *testing.T) {
	train := paritySamples(120, 1)
	probes := paritySamples(40, 2)

	reg := obs.NewRegistry()
	ac := New(excr.DefaultSpace, rffAdversaryConfig(true))
	ac.SetMetrics(Metrics{
		BadFeatures:   reg.Counter("bad"),
		RFFDemotions:  reg.Counter("demotions"),
		RFFPromotions: reg.Counter("promotions"),
	})
	ac.EnableHealth(HealthConfig{RFFMinSamples: 16})

	// Twin: identical data and hyperparameters, tier disabled. The RFF
	// config fields never touch the SMO solve, so both classifiers
	// publish bit-identical exact models.
	twin := New(excr.DefaultSpace, rffAdversaryConfig(false))
	twin.EnableHealth(HealthConfig{RFFMinSamples: 16})

	for _, s := range train {
		ac.Observe(s)
		twin.Observe(s)
	}
	if err := ac.ForceOnline(); err != nil {
		t.Fatal(err)
	}
	if err := twin.ForceOnline(); err != nil {
		t.Fatal(err)
	}

	snap, ok := ac.HealthSnapshot()
	if !ok || !snap.RFFActive || snap.RFFDemoted {
		t.Fatalf("after fit: want active undemoted tier, got %+v", snap)
	}
	if tsnap, _ := twin.HealthSnapshot(); tsnap.RFFActive {
		t.Fatal("twin must not carry a tier")
	}

	// While the tier serves, margins come from the RFF readout and must
	// differ numerically from the twin's exact slab on the same rows.
	differ := false
	for _, p := range probes {
		if ac.Decide(p.Arrival).Margin != twin.Decide(p.Arrival).Margin {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("approximate tier produced exact-path margins on every probe; tier not in use?")
	}

	// Labeled traffic drives the gate: each Observe scores the sample
	// through both the exact oracle and the tier. The starved tier
	// tracks a memorized checkerboard at roughly chance, so the
	// agreement EWMA collapses and the gate demotes.
	gate := paritySamples(120, 3)
	for _, s := range gate {
		ac.Observe(s)
		if ac.HealthEnabled() {
			if snap, _ := ac.HealthSnapshot(); snap.RFFDemoted {
				break
			}
		}
	}
	snap, _ = ac.HealthSnapshot()
	if !snap.RFFDemoted || snap.RFFActive {
		t.Fatalf("gate did not demote: agreement=%v samples=%d", snap.RFFAgreement, snap.RFFSamples)
	}
	if got := reg.Counter("demotions").Value(); got != 1 {
		t.Fatalf("demotions counter = %d, want 1", got)
	}
	if snap.RFFAgreement >= 0.9 {
		t.Fatalf("demoted with agreement %v >= threshold", snap.RFFAgreement)
	}

	// Demoted scoring must be the exact fast path: bit-identical to the
	// twin's margins, model version for model version.
	for i, p := range probes {
		got := ac.Decide(p.Arrival)
		want := twin.Decide(p.Arrival)
		if got.Margin != want.Margin || got.Admit != want.Admit {
			t.Fatalf("probe %d post-demotion: margin %v admit %v, twin %v %v",
				i, got.Margin, got.Admit, want.Margin, want.Admit)
		}
	}

	// DecideBatch must take the same demoted path.
	arrivals := make([]excr.Arrival, len(probes))
	for i, p := range probes {
		arrivals[i] = p.Arrival
	}
	batch := ac.DecideBatch(nil, arrivals, nil)
	for i, p := range probes {
		if want := twin.Decide(p.Arrival); batch[i].Margin != want.Margin {
			t.Fatalf("batch probe %d post-demotion: %v, twin %v", i, batch[i].Margin, want.Margin)
		}
	}

	// A fresh fit rebuilds the tier and clears the demotion (counted as
	// a promotion), with the gate's EWMA starting over.
	if err := ac.Retrain(); err != nil {
		t.Fatal(err)
	}
	snap, _ = ac.HealthSnapshot()
	if snap.RFFDemoted || !snap.RFFActive {
		t.Fatalf("refit did not promote: %+v", snap)
	}
	if snap.RFFSamples != 0 {
		t.Fatalf("gate EWMA not reset on refit: %d samples", snap.RFFSamples)
	}
	if got := reg.Counter("promotions").Value(); got != 1 {
		t.Fatalf("promotions counter = %d, want 1", got)
	}
}

// TestRFFHealthyTierStaysPromoted is the converse: on the separable
// WiFi workload, a tier built from a reasonably sized fit tracks the
// exact boundary almost perfectly, so labeled traffic must not demote
// it. (A graduation-sized fit of ~25 rows is genuinely borderline —
// the tier hovers right at the threshold — which is the gate working
// as designed, not a healthy tier.)
func TestRFFHealthyTierStaysPromoted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SVM.RFF = true
	cfg.BatchSize = 100000
	cfg.MinBootstrap = 1 << 30 // bootstrap the full set, fit once
	ac := New(excr.DefaultSpace, cfg)
	ac.EnableHealth(HealthConfig{RFFMinSamples: 8})
	o := wifiOracle()
	feedRandom(ac, o, 200, 31)
	if err := ac.ForceOnline(); err != nil {
		t.Fatal(err)
	}
	snap, _ := ac.HealthSnapshot()
	if !snap.RFFActive {
		t.Fatal("tier not built on the 200-sample fit")
	}
	feedRandom(ac, o, 100, 32)
	snap, _ = ac.HealthSnapshot()
	if snap.RFFDemoted {
		t.Fatalf("healthy tier demoted: agreement=%v samples=%d", snap.RFFAgreement, snap.RFFSamples)
	}
	if snap.RFFSamples == 0 {
		t.Fatal("gate saw no samples")
	}
	if snap.RFFAgreement < 0.95 {
		t.Fatalf("healthy-workload agreement only %v", snap.RFFAgreement)
	}
}

// nanLearner trains a predictor that returns NaN for every row — the
// stand-in for a numerically poisoned model, since excr features
// themselves (integer counts) can never be non-finite.
type nanLearner struct{}

func (nanLearner) Name() string { return "nan" }

func (nanLearner) Train(x [][]float64, y []float64, _ []string, _ *svm.SolveStats) (learner.Predictor, bool, error) {
	return nanPredictor{}, false, nil
}

type nanPredictor struct{}

func (nanPredictor) Decision(row []float64) float64 { return math.NaN() }

// TestNaNMarginRejected pins the decision-path guard: a NaN margin is
// counted as a bad feature, forces a reject, and never reaches the
// margin histogram or the drift bins.
func TestNaNMarginRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Learner = nanLearner{}
	cfg.MinBootstrap = 1 << 30
	reg := obs.NewRegistry()
	ac := New(excr.DefaultSpace, cfg)
	margin := reg.Histogram("margin", obs.SignedExpBuckets(0.01, 2, 10))
	ac.SetMetrics(Metrics{
		BadFeatures: reg.Counter("bad"),
		Admits:      reg.Counter("admits"),
		Rejects:     reg.Counter("rejects"),
		Margin:      margin,
	})
	ac.EnableHealth(HealthConfig{})
	for _, s := range paritySamples(30, 5) {
		ac.Observe(s)
	}
	if err := ac.ForceOnline(); err != nil {
		t.Fatal(err)
	}

	probes := paritySamples(10, 6)
	var sc Scratch
	for i, p := range probes {
		d := ac.Decide(p.Arrival)
		if d.Admit || d.Margin != 0 || d.Depth != 0 {
			t.Fatalf("probe %d: NaN margin produced %+v, want reject with zero margin", i, d)
		}
		if d.Model == 0 {
			t.Fatalf("probe %d: reject decision lost the model version", i)
		}
	}
	if got := reg.Counter("bad").Value(); got != int64(len(probes)) {
		t.Fatalf("bad-features counter = %d, want %d", got, len(probes))
	}
	if got := reg.Counter("admits").Value(); got != 0 {
		t.Fatalf("admits = %d, want 0", got)
	}
	if got := margin.Count(); got != 0 {
		t.Fatalf("margin histogram saw %d NaN observations", got)
	}
	snap, _ := ac.HealthSnapshot()
	if snap.DriftWindows != 0 || snap.DriftReady {
		t.Fatalf("NaN margins leaked into drift windows: %+v", snap)
	}

	// Batch path: every row finite, every margin NaN — all rejected and
	// all counted, none observed.
	arrivals := make([]excr.Arrival, len(probes))
	for i, p := range probes {
		arrivals[i] = p.Arrival
	}
	before := reg.Counter("bad").Value()
	for i, d := range ac.DecideBatch(nil, arrivals, &sc) {
		if d.Admit || d.Margin != 0 {
			t.Fatalf("batch probe %d: %+v, want reject", i, d)
		}
	}
	if got := reg.Counter("bad").Value() - before; got != int64(len(probes)) {
		t.Fatalf("batch bad-features delta = %d, want %d", got, len(probes))
	}
	if got := margin.Count(); got != 0 {
		t.Fatalf("batch leaked %d NaN margins into the histogram", got)
	}
	if got := reg.Counter("rejects").Value(); got != int64(2*len(probes)) {
		t.Fatalf("rejects = %d, want %d", got, 2*len(probes))
	}
}

// TestDecideIsBatchOfOne pins the collapse of the single-arrival path
// onto the batch primitive: Decide(a) and DecideBatch of the one-row
// batch {a} must agree bit for bit in the decision and in every
// classifier counter — on an online classifier, during bootstrap, and
// on the bad-feature path (a NaN margin from a poisoned model).
func TestDecideIsBatchOfOne(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *AdmittanceClassifier
	}{
		{"online", func() *AdmittanceClassifier { return onlineClassifier(t, svm.RBF) }},
		{"bootstrap", func() *AdmittanceClassifier { return New(excr.DefaultSpace, DefaultConfig()) }},
		{"bad feature", func() *AdmittanceClassifier {
			cfg := DefaultConfig()
			cfg.Learner = nanLearner{}
			cfg.MinBootstrap = 1 << 30
			ac := New(excr.DefaultSpace, cfg)
			for _, s := range paritySamples(30, 5) {
				ac.Observe(s)
			}
			if err := ac.ForceOnline(); err != nil {
				t.Fatal(err)
			}
			return ac
		}},
	} {
		wire := func(ac *AdmittanceClassifier) *obs.Registry {
			reg := obs.NewRegistry()
			ac.SetMetrics(Metrics{
				BootstrapDecisions: reg.Counter("bootstrap"),
				Admits:             reg.Counter("admits"),
				Rejects:            reg.Counter("rejects"),
				BadFeatures:        reg.Counter("bad"),
				Margin:             reg.HistogramNoSum("margin", obs.SignedExpBuckets(0.01, 4, 8)),
			})
			ac.EnableHealth(HealthConfig{DriftWindow: 8})
			return reg
		}
		one, batch := tc.build(), tc.build()
		regOne, regBatch := wire(one), wire(batch)
		var s Scratch
		var dst []Decision
		for n := 0; n < 40; n++ {
			a := excr.Arrival{
				Matrix: excr.NewMatrix(excr.DefaultSpace).
					Set(excr.Web, 0, (n*3)%19).Set(excr.Streaming, 0, (n*7)%23).Set(excr.Conferencing, 0, (n*5)%17),
				Class: excr.AppClass(n % 3),
			}
			want := one.Decide(a)
			dst = batch.DecideBatch(dst, []excr.Arrival{a}, &s)
			if got := dst[0]; got != want {
				t.Fatalf("%s arrival %d: batch of one %+v, Decide %+v", tc.name, n, got, want)
			}
		}
		if a, b := regOne.String(), regBatch.String(); a != b {
			t.Fatalf("%s: counters diverged:\nDecide:\n%s\nDecideBatch of one:\n%s", tc.name, a, b)
		}
		hOne, _ := one.HealthSnapshot()
		hBatch, _ := batch.HealthSnapshot()
		if hOne.DriftWindows != hBatch.DriftWindows || hOne.Drift != hBatch.Drift {
			t.Fatalf("%s: health samples diverged: %+v vs %+v", tc.name, hOne, hBatch)
		}
		if tc.name == "online" && (regOne.Counter("admits").Value() == 0 || regOne.Counter("rejects").Value() == 0) {
			t.Fatalf("online case is one-sided: %s", regOne.String())
		}
		if tc.name == "bad feature" && regOne.Counter("bad").Value() != 40 {
			t.Fatalf("bad-feature case counted %d bad rows, want 40", regOne.Counter("bad").Value())
		}
		if tc.name == "bootstrap" && regOne.Counter("bootstrap").Value() != 40 {
			t.Fatalf("bootstrap case counted %d bootstrap decisions, want 40", regOne.Counter("bootstrap").Value())
		}
	}
}
