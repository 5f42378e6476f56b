package classifier

import (
	"math"
	"sync"
	"testing"

	"exbox/internal/apps"
	"exbox/internal/dtree"
	"exbox/internal/excr"
	"exbox/internal/learner"
	"exbox/internal/mathx"
	"exbox/internal/metrics"
	"exbox/internal/netsim"
	"exbox/internal/svm"
	"exbox/internal/traffic"
)

// wifiOracle returns a ground-truth labeler on the simulated WiFi cell.
func wifiOracle() apps.Oracle {
	return apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
}

// feedRandom streams n labeled random arrivals into the classifier and
// returns the events used.
func feedRandom(ac *AdmittanceClassifier, o apps.Oracle, n int, seed int64) []traffic.Event {
	rng := mathx.NewRand(seed)
	seq := traffic.Random(rng, n, 20, 0, excr.DefaultSpace)
	evs := traffic.Arrivals(seq, nil)
	for _, e := range evs {
		ac.Observe(excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
	}
	return evs
}

func TestBootstrapGraduates(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	if !ac.Bootstrapping() {
		t.Fatal("fresh classifier should bootstrap")
	}
	d := ac.Decide(excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace), Class: excr.Web})
	if !d.Admit || !d.Bootstrap {
		t.Fatal("bootstrap phase must admit everything")
	}
	feedRandom(ac, wifiOracle(), 20, 1)
	if ac.Bootstrapping() {
		t.Fatalf("classifier should graduate after diverse training (cv=%v, set=%d)",
			ac.LastCVScore(), ac.TrainingSetSize())
	}
	if ac.LastCVScore() < 0.7 {
		t.Fatalf("graduation cv score %v below threshold", ac.LastCVScore())
	}
}

func TestOnlineDecisionsMatchOracle(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	o := wifiOracle()
	feedRandom(ac, o, 25, 2)
	if ac.Bootstrapping() {
		t.Fatal("should be online")
	}
	// Fresh arrivals: accuracy must be well above chance.
	rng := mathx.NewRand(3)
	var conf metrics.Confusion
	for _, e := range traffic.Arrivals(traffic.Random(rng, 20, 20, 0, excr.DefaultSpace), nil) {
		d := ac.Decide(e.Arrival)
		pred := -1.0
		if d.Admit {
			pred = 1.0
		}
		conf.Observe(pred, o.Label(e.Arrival))
	}
	if conf.Accuracy() < 0.8 {
		t.Fatalf("online accuracy = %v (%v)", conf.Accuracy(), conf)
	}
	if conf.Precision() < 0.8 {
		t.Fatalf("online precision = %v (%v)", conf.Precision(), conf)
	}
}

func TestMarginDepth(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	feedRandom(ac, wifiOracle(), 25, 4)
	empty := excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace), Class: excr.Conferencing}
	// Inside the training range but clearly over capacity:
	// 15·0.8 + 18·2.5 + 15·1.5 ≈ 79 Mbps of demand on a ~65 Mbps cell.
	outside := excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).
			Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 18).Set(excr.Conferencing, 0, 15),
		Class: excr.Conferencing,
	}
	de, do := ac.Decide(empty), ac.Decide(outside)
	if !de.Admit {
		t.Fatal("empty network should admit")
	}
	if do.Admit {
		t.Fatal("overloaded matrix should reject the arrival")
	}
	if de.Margin <= 0 || do.Margin >= 0 || de.Margin <= do.Margin {
		t.Fatalf("margins should straddle the boundary: inside=%v outside=%v", de.Margin, do.Margin)
	}
}

func TestObservePanicsOnBadLabel(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label 0")
		}
	}()
	ac.Observe(excr.Sample{Arrival: excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace)}, Label: 0})
}

func TestReplaceRepeatedMatrix(t *testing.T) {
	cfg := DefaultConfig()
	ac := New(excr.DefaultSpace, cfg)
	a := excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 2), Class: excr.Web}
	ac.Observe(excr.Sample{Arrival: a, Label: 1})
	ac.Observe(excr.Sample{Arrival: a, Label: -1})
	if ac.TrainingSetSize() != 1 {
		t.Fatalf("repeated matrix should be replaced, set=%d", ac.TrainingSetSize())
	}
	if ac.samples[0].Label != -1 {
		t.Fatal("newest label should win")
	}
	if ac.Observed() != 2 {
		t.Fatal("Observed should count raw observations")
	}

	// Ablation: append-only keeps both.
	cfg.ReplaceRepeated = false
	ac2 := New(excr.DefaultSpace, cfg)
	ac2.Observe(excr.Sample{Arrival: a, Label: 1})
	ac2.Observe(excr.Sample{Arrival: a, Label: -1})
	if ac2.TrainingSetSize() != 2 {
		t.Fatalf("append-only should keep both, set=%d", ac2.TrainingSetSize())
	}
}

func TestEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTrainingSet = 50
	ac := New(excr.DefaultSpace, cfg)
	feedRandom(ac, wifiOracle(), 12, 5)
	if ac.TrainingSetSize() > 50 {
		t.Fatalf("training set %d exceeds cap", ac.TrainingSetSize())
	}
	// Index must stay consistent after eviction.
	if len(ac.index) != len(ac.samples) || len(ac.keys) != len(ac.samples) {
		t.Fatal("index/keys out of sync after eviction")
	}
	for i, k := range ac.keys {
		if ac.index[k] != i {
			t.Fatal("index points at wrong slot after eviction")
		}
	}
}

// webArrival returns a distinct arrival keyed on n for eviction tests.
func webArrival(n int) excr.Arrival {
	return excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, n),
		Class:  excr.Web,
	}
}

func TestEvictionKeepsRecentlyObserved(t *testing.T) {
	// A matrix the network keeps revisiting must survive eviction even
	// though it was first seen earliest: replacement moves it to the
	// tail, so eviction is least-recently-observed, not first-seen.
	cfg := DefaultConfig()
	cfg.MaxTrainingSet = 5
	ac := New(excr.DefaultSpace, cfg)
	for i := 0; i < 5; i++ {
		ac.Observe(excr.Sample{Arrival: webArrival(i), Label: 1})
	}
	// Re-observe the oldest matrix: it is now the freshest.
	ac.Observe(excr.Sample{Arrival: webArrival(0), Label: -1})
	if ac.TrainingSetSize() != 5 {
		t.Fatalf("replacement must not grow the set, got %d", ac.TrainingSetSize())
	}
	// One more distinct matrix pushes the set past the cap; the victim
	// must be matrix 1 (least recently observed), not matrix 0.
	ac.Observe(excr.Sample{Arrival: webArrival(5), Label: 1})
	if ac.TrainingSetSize() != 5 {
		t.Fatalf("set should stay at cap, got %d", ac.TrainingSetSize())
	}
	k0, k1 := sampleKey(webArrival(0)), sampleKey(webArrival(1))
	if _, ok := ac.index[k0]; !ok {
		t.Fatal("re-observed matrix was evicted despite being freshest")
	}
	if _, ok := ac.index[k1]; ok {
		t.Fatal("least-recently-observed matrix should have been evicted")
	}
	// The surviving copy must carry the replacement's label.
	if got := ac.samples[ac.index[k0]].Label; got != -1 {
		t.Fatalf("survivor label = %v, want the re-observed -1", got)
	}
	for i, k := range ac.keys {
		if ac.index[k] != i {
			t.Fatal("index out of sync after touch+evict")
		}
	}
}

func TestEvictionAppendOnlyDuplicateIndex(t *testing.T) {
	// Append-only mode can hold several copies of one key; eviction of
	// an old copy must not clobber the index entry of a surviving newer
	// copy.
	cfg := DefaultConfig()
	cfg.ReplaceRepeated = false
	cfg.MaxTrainingSet = 3
	ac := New(excr.DefaultSpace, cfg)
	dup := webArrival(0)
	ac.Observe(excr.Sample{Arrival: dup, Label: 1})
	ac.Observe(excr.Sample{Arrival: webArrival(1), Label: 1})
	ac.Observe(excr.Sample{Arrival: webArrival(2), Label: -1})
	ac.Observe(excr.Sample{Arrival: dup, Label: -1}) // evicts the first copy of dup
	if ac.TrainingSetSize() != 3 {
		t.Fatalf("set = %d, want 3", ac.TrainingSetSize())
	}
	i, ok := ac.index[sampleKey(dup)]
	if !ok {
		t.Fatal("surviving duplicate lost its index entry")
	}
	if ac.samples[i].Label != -1 {
		t.Fatalf("index points at the wrong copy: label %v", ac.samples[i].Label)
	}
	for j, k := range ac.keys {
		if k == ac.keys[i] && j > i {
			t.Fatal("index does not point at the newest copy")
		}
	}
}

func TestDeferRetrainMaintain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeferRetrain = true
	ac := New(excr.DefaultSpace, cfg)
	o := wifiOracle()
	feedRandom(ac, o, 25, 2)
	// Deferred mode: bootstrap CV never runs on the Observe path, so
	// the classifier is still bootstrapping and work is pending.
	if !ac.Bootstrapping() {
		t.Fatal("deferred classifier must not graduate inline")
	}
	if !ac.RetrainPending() {
		t.Fatal("crossing CV boundaries should mark work pending")
	}
	if err := ac.Maintain(); err != nil {
		t.Fatal(err)
	}
	if ac.Bootstrapping() {
		t.Fatalf("Maintain should graduate (cv=%v, set=%d)", ac.LastCVScore(), ac.TrainingSetSize())
	}
	if ac.RetrainPending() {
		t.Fatal("Maintain must clear the pending latch")
	}

	// Online: a burst crossing several batch boundaries coalesces into
	// one pending fit.
	feedRandom(ac, o, 60, 3)
	if !ac.RetrainPending() {
		t.Fatal("online batches should mark a retrain pending")
	}
	if err := ac.Maintain(); err != nil {
		t.Fatal(err)
	}
	if ac.RetrainPending() {
		t.Fatal("pending latch should clear after the coalesced fit")
	}
	// Idempotent when nothing is pending.
	if err := ac.Maintain(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDecideObserveRetrain(t *testing.T) {
	// Decide is a lock-free snapshot read; hammer it while Observe and
	// Retrain mutate training state. Run under -race.
	ac := New(excr.DefaultSpace, DefaultConfig())
	o := wifiOracle()
	feedRandom(ac, o, 25, 4)
	if ac.Bootstrapping() {
		t.Fatal("should be online before the stress phase")
	}
	evs := traffic.Arrivals(traffic.Random(mathx.NewRand(5), 40, 20, 0, excr.DefaultSpace), nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ac.Decide(evs[i%len(evs)].Arrival)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := mathx.NewRand(seed)
			for _, e := range traffic.Arrivals(traffic.Random(rng, 30, 20, 0, excr.DefaultSpace), nil) {
				ac.Observe(excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
			}
		}(int64(10 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_ = ac.Retrain()
		}
	}()
	wg.Wait()
	if ac.Bootstrapping() {
		t.Fatal("classifier regressed to bootstrap")
	}
	if d := ac.Decide(webArrival(0)); d.Bootstrap {
		t.Fatal("post-stress decision should use the trained model")
	}
}

func TestRetrainNotReady(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	if err := ac.Retrain(); err != ErrNotReady {
		t.Fatalf("empty retrain err = %v", err)
	}
	a := excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace), Class: excr.Web}
	ac.Observe(excr.Sample{Arrival: a, Label: 1})
	if err := ac.Retrain(); err != ErrNotReady {
		t.Fatalf("one-class retrain err = %v", err)
	}
	if err := ac.ForceOnline(); err != ErrNotReady {
		t.Fatalf("ForceOnline should propagate ErrNotReady, got %v", err)
	}
	if !ac.Bootstrapping() {
		t.Fatal("failed ForceOnline must stay in bootstrap")
	}
}

func TestForceOnline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CVThreshold = 0.99999 // make natural graduation implausible
	cfg.MinBootstrap = 1 << 30
	ac := New(excr.DefaultSpace, cfg)
	o := wifiOracle()
	rng := mathx.NewRand(6)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 20, 20, 0, excr.DefaultSpace), nil) {
		ac.Observe(excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
	}
	if !ac.Bootstrapping() {
		t.Fatal("should still bootstrap under extreme threshold")
	}
	if err := ac.ForceOnline(); err != nil {
		t.Fatal(err)
	}
	if ac.Bootstrapping() {
		t.Fatal("ForceOnline should end bootstrap")
	}
}

func TestOnlineAdaptsToNetworkChange(t *testing.T) {
	// Figure 11 in miniature: train on a clean network, then flip the
	// ground truth to a throttled network and keep feeding batches;
	// accuracy must recover.
	cfg := DefaultConfig()
	cfg.BatchSize = 10
	ac := New(excr.DefaultSpace, cfg)
	clean := wifiOracle()
	feedRandom(ac, clean, 25, 7)
	if ac.Bootstrapping() {
		t.Fatal("should be online after clean training")
	}

	// Throttled network: capacity halved.
	cfgW := netsim.SimWiFi()
	cfgW.PHYRateBps = map[excr.SNRLevel]float64{excr.SNRLow: 6e6, excr.SNRHigh: 40e6}
	throttled := apps.Oracle{Net: netsim.FluidWiFi{Config: cfgW}}

	accOn := func(o apps.Oracle, seed int64) float64 {
		rng := mathx.NewRand(seed)
		var conf metrics.Confusion
		for _, e := range traffic.Arrivals(traffic.Random(rng, 15, 20, 0, excr.DefaultSpace), nil) {
			d := ac.Decide(e.Arrival)
			pred := -1.0
			if d.Admit {
				pred = 1.0
			}
			conf.Observe(pred, o.Label(e.Arrival))
		}
		return conf.Accuracy()
	}
	before := accOn(throttled, 8)

	// Online updates against the throttled truth.
	rng := mathx.NewRand(9)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 35, 20, 0, excr.DefaultSpace), nil) {
		ac.Observe(excr.Sample{Arrival: e.Arrival, Label: throttled.Label(e.Arrival)})
	}
	after := accOn(throttled, 10)
	if after < before {
		t.Fatalf("online learning failed to adapt: before=%v after=%v", before, after)
	}
	if after < 0.75 {
		t.Fatalf("post-adaptation accuracy %v too low", after)
	}
}

func TestDecisionDeterministic(t *testing.T) {
	build := func() *AdmittanceClassifier {
		ac := New(excr.DefaultSpace, DefaultConfig())
		feedRandom(ac, wifiOracle(), 15, 11)
		return ac
	}
	a, b := build(), build()
	probe := excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).Set(excr.Streaming, 0, 10),
		Class:  excr.Web,
	}
	if a.Decide(probe) != b.Decide(probe) {
		t.Fatal("identical training should give identical decisions")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	ac := New(excr.DefaultSpace, Config{SVM: DefaultConfig().SVM})
	if ac.cfg.BatchSize != 20 || ac.cfg.CVFolds != 5 || ac.cfg.CVThreshold != 0.7 ||
		ac.cfg.MinBootstrap != 20 || ac.cfg.CVEvery != 10 {
		t.Fatalf("zero-value config not defaulted: %+v", ac.cfg)
	}
	if ac.Name() != "ExBox" {
		t.Fatal("Name wrong")
	}
}

func TestDecisionTreeLearnerPluggable(t *testing.T) {
	// The paper: "other supervised classification methods (e.g.,
	// decision trees) could be used by ExBox as well". Swap the
	// learner and verify the classifier still works end to end.
	cfg := DefaultConfig()
	cfg.Learner = learner.Tree{Config: dtree.DefaultConfig()}
	ac := New(excr.DefaultSpace, cfg)
	o := wifiOracle()
	feedRandom(ac, o, 35, 21)
	if ac.Bootstrapping() {
		t.Fatalf("tree-backed classifier did not graduate (cv=%v)", ac.LastCVScore())
	}
	rng := mathx.NewRand(22)
	var conf metrics.Confusion
	for _, e := range traffic.Arrivals(traffic.Random(rng, 20, 20, 0, excr.DefaultSpace), nil) {
		d := ac.Decide(e.Arrival)
		pred := -1.0
		if d.Admit {
			pred = 1.0
		}
		conf.Observe(pred, o.Label(e.Arrival))
	}
	// Trees trail the RBF SVM here (one reason the paper picked SVM),
	// but a pluggable learner must still be clearly better than chance.
	if conf.Accuracy() < 0.7 {
		t.Fatalf("tree-backed accuracy = %v (%v)", conf.Accuracy(), conf)
	}
}

// onlineClassifier trains a classifier to the online phase with the
// given kernel, for the fast-path tests.
func onlineClassifier(t *testing.T, kernel svm.KernelKind) *AdmittanceClassifier {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SVM.Kernel = kernel
	ac := New(excr.DefaultSpace, cfg)
	feedRandom(ac, wifiOracle(), 30, 11)
	if ac.Bootstrapping() {
		if err := ac.ForceOnline(); err != nil {
			t.Fatal(err)
		}
	}
	return ac
}

// pooledAllocPins is set by norace_test.go, i.e. when the build has no
// race detector: under it sync.Pool deliberately drops a quarter of
// what is Put, so pool-backed Decide allocates a fresh Scratch now and
// then by design and only the caller-owned-scratch pin can hold.
var pooledAllocPins bool

// TestDecideAllocs locks in the zero-allocation contract of the online
// decision path for both kernels: plain Decide (pool-backed) and
// DecideBatch of one with a per-worker Scratch must not allocate.
func TestDecideAllocs(t *testing.T) {
	for _, kernel := range []svm.KernelKind{svm.Linear, svm.RBF} {
		ac := onlineClassifier(t, kernel)
		a := webArrival(3)
		var s Scratch
		var sink float64
		one := []excr.Arrival{a}
		dst := make([]Decision, 1)
		ac.Decide(a)                 // warm the pool
		ac.DecideBatch(dst, one, &s) // grow the scratch
		if got := testing.AllocsPerRun(200, func() {
			sink += ac.Decide(a).Margin
		}); got != 0 && pooledAllocPins {
			t.Errorf("%v Decide: %v allocs/op, want 0", kernel, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			sink += ac.DecideBatch(dst, one, &s)[0].Margin
		}); got != 0 {
			t.Errorf("%v DecideBatch of one: %v allocs/op, want 0", kernel, got)
		}
		_ = sink
	}
}

// TestDecideBatchMatchesDecide pins the batched scorer to the scalar
// path on the same snapshot, and checks the warmed batch is
// allocation-free.
func TestDecideBatchMatchesDecide(t *testing.T) {
	for _, kernel := range []svm.KernelKind{svm.Linear, svm.RBF} {
		ac := onlineClassifier(t, kernel)
		var arrivals []excr.Arrival
		for n := 0; n < 12; n++ {
			arrivals = append(arrivals, webArrival(n))
		}
		var s Scratch
		out := ac.DecideBatch(nil, arrivals, &s)
		if len(out) != len(arrivals) {
			t.Fatalf("%v: %d decisions for %d arrivals", kernel, len(out), len(arrivals))
		}
		for i, a := range arrivals {
			want := ac.Decide(a)
			got := out[i]
			if got.Admit != want.Admit || got.Bootstrap != want.Bootstrap ||
				math.Abs(got.Margin-want.Margin) > 1e-12 || math.Abs(got.Depth-want.Depth) > 1e-12 {
				t.Fatalf("%v arrival %d: batch %+v, scalar %+v", kernel, i, got, want)
			}
		}
		dst := make([]Decision, len(arrivals))
		var sink float64
		if got := testing.AllocsPerRun(100, func() {
			dst = ac.DecideBatch(dst, arrivals, &s)
			sink += dst[0].Margin
		}); got != 0 {
			t.Errorf("%v DecideBatch: %v allocs/op, want 0", kernel, got)
		}
		_ = sink
	}
}

// TestDecideBatchBootstrap: during bootstrap the batch admits
// everything, like the scalar path.
func TestDecideBatchBootstrap(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	out := ac.DecideBatch(nil, []excr.Arrival{webArrival(0), webArrival(1)}, nil)
	for i, d := range out {
		if !d.Admit || !d.Bootstrap {
			t.Fatalf("bootstrap batch decision %d = %+v, want admit", i, d)
		}
	}
	if got := ac.DecideBatch(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d decisions", len(got))
	}
}

// constPredictor is a degenerate model whose every training decision
// is 0 — the case that produces a zero calibration.
type constPredictor struct{ v float64 }

func (p constPredictor) Decision([]float64) float64 { return p.v }

// TestZeroCalibrationDepth is the regression test for the depth guard:
// a snapshot with calibration 0 must yield Depth 0, not NaN/±Inf,
// which would poison network-selection ordering.
func TestZeroCalibrationDepth(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	ac.state.Store(&modelSnapshot{model: constPredictor{v: 2.5}, calibration: 0})
	a := webArrival(1)
	d := ac.Decide(a)
	if d.Margin != 2.5 || d.Depth != 0 {
		t.Fatalf("zero-calibration Decide = %+v, want Margin 2.5 Depth 0", d)
	}
	if b := ac.DecideBatch(nil, []excr.Arrival{a}, nil); b[0].Depth != 0 {
		t.Fatalf("zero-calibration DecideBatch depth = %v, want 0", b[0].Depth)
	}
}
