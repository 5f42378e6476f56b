package exboxcore

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/learner"
	"exbox/internal/mathx"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	"exbox/internal/svm"
	"exbox/internal/traffic"
)

// twinMiddlebox builds one instrumented, deterministically trained
// middlebox; calling it twice with the same seed yields bit-identical
// models, so the per-packet and burst paths can be compared on
// separate instances without sharing any telemetry state.
func twinMiddlebox(t *testing.T, seed int64) (*Middlebox, *obs.Registry) {
	t.Helper()
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 1024)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	trainCell(t, mb, "ap", wifiOracle(), seed)
	return mb, reg
}

// burstPlan cuts n candidates into bursts of cycling sizes, returning
// the boundary offsets [0, s1, s1+s2, ..., n].
func burstPlan(n int) []int {
	sizes := []int{1, 3, 8, 17, 32}
	bounds := []int{0}
	for i := 0; bounds[len(bounds)-1] < n; i++ {
		next := bounds[len(bounds)-1] + sizes[i%len(sizes)]
		if next > n {
			next = n
		}
		bounds = append(bounds, next)
	}
	return bounds
}

// stripTimed drops the wall-clock-dependent registry lines (latency
// and fit-duration histograms) so the rest of the telemetry — verdict
// and margin counters, histogram bucket counts, training-size gauges —
// can be compared exactly across the two paths.
func stripTimed(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "seconds") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// burstCase is one input of TestAdmitBurstMatchesPerPacket: a candidate
// sequence cut into bursts at bounds, on twin middleboxes built by
// build. rebase rewrites the admitted-flow counts before burst bi, the
// same way on both sides (flows expiring, or a fresh base matrix).
type burstCase struct {
	space  excr.Space
	build  func(t *testing.T) (*Middlebox, *obs.Registry)
	cands  []BurstCandidate
	bounds []int
	rebase func(bi int, counts []int)
}

// boundaryCase hovers around the region boundary of the default space:
// mixed-size bursts, and the matrix drained by a quarter at every burst
// boundary, so the verdict sequence alternates.
func boundaryCase(t *testing.T) burstCase {
	space := excr.DefaultSpace
	const n = 150
	cands := make([]BurstCandidate, n)
	for i := range cands {
		cands[i] = BurstCandidate{Class: excr.AppClass(i % space.Classes), Level: 0}
	}
	return burstCase{
		space:  space,
		build:  func(t *testing.T) (*Middlebox, *obs.Registry) { return twinMiddlebox(t, 7) },
		cands:  cands,
		bounds: burstPlan(n),
		rebase: func(_ int, counts []int) {
			for i := range counts {
				counts[i] = counts[i] * 3 / 4
			}
		},
	}
}

// poisonClass marks the candidates poisonLearner's models score NaN.
const poisonClass = excr.AppClass(99)

// poisonLearner trains the stock SVM and wraps the model so that a row
// whose class feature is poisonClass scores NaN. excr features are
// integer counts and can never be non-finite themselves, so a poisoned
// model is the only way a candidate reaches the feature-boundary
// reject (bad-features counter, no margin sample) through AdmitBurst.
type poisonLearner struct{ learner.SVM }

func (l poisonLearner) Train(x [][]float64, y []float64, keys []string, stats *svm.SolveStats) (learner.Predictor, bool, error) {
	p, warm, err := l.SVM.Train(x, y, keys, stats)
	if err != nil {
		return nil, false, err
	}
	return poisonPredictor{p.(learner.FastPredictor)}, warm, nil
}

type poisonPredictor struct{ learner.FastPredictor }

// DecisionBatch is the entry point the classifier's decide path scores
// a FastPredictor through.
func (p poisonPredictor) DecisionBatch(dst []float64, rows [][]float64, scratch []float64) []float64 {
	dst = p.FastPredictor.DecisionBatch(dst, rows, scratch)
	for i, row := range rows {
		if row[len(row)-2] == float64(poisonClass) {
			dst[i] = math.NaN()
		}
	}
	return dst
}

// admitLibCase is the traffic bench/'s admit_lib workload puts through
// AdmitBurst: the mixed-SNR space, the paper's Random population on
// the testbed WiFi cell (about a fifth of the arrivals admissible, so
// bursts are verdict-mixed and mostly rejecting), 32 candidates a burst,
// every burst on a fresh base matrix. Burst 3 also carries one
// out-of-space candidate (scored, never counted into the matrix) and
// one poisoned one.
func admitLibCase(t *testing.T) burstCase {
	space := excr.MixedSNRSpace
	const bursts, per = 12, 32
	oracle := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}
	draw := func(rng *rand.Rand, n int) []excr.Arrival {
		var out []excr.Arrival
		assign := traffic.RandomLevels(rng, space)
		for len(out) < n {
			for _, e := range traffic.Arrivals(traffic.Random(rng, 64, 7, 0, space), assign) {
				out = append(out, e.Arrival)
			}
		}
		return out[:n]
	}
	build := func(t *testing.T) (*Middlebox, *obs.Registry) {
		mb := New(space, Discontinue)
		reg := obs.NewRegistry()
		mb.Instrument(reg, 1024)
		cfg := classifier.DefaultConfig()
		cfg.Learner = poisonLearner{learner.SVM{Config: cfg.SVM}}
		if _, err := mb.AddCell("ap", cfg); err != nil {
			t.Fatal(err)
		}
		for _, a := range draw(mathx.NewRand(1), 400) {
			if err := mb.Observe("ap", excr.Sample{Arrival: a, Label: oracle.Label(a)}); err != nil {
				t.Fatal(err)
			}
		}
		if mb.Cell("ap").Classifier.Bootstrapping() {
			t.Fatal("cell did not graduate")
		}
		return mb, reg
	}
	stream := draw(mathx.NewRand(42), bursts*(per+1))
	bases := make([]excr.Matrix, bursts)
	cands := make([]BurstCandidate, 0, bursts*per)
	bounds := []int{0}
	for bi := range bases {
		blk := stream[bi*(per+1) : (bi+1)*(per+1)]
		bases[bi] = blk[0].Matrix
		for _, a := range blk[1:] {
			cands = append(cands, BurstCandidate{Class: a.Class, Level: a.Level})
		}
		bounds = append(bounds, len(cands))
	}
	cands[3*per+5] = BurstCandidate{Class: excr.Web, Level: excr.SNRLevel(space.Levels)}
	cands[3*per+20] = BurstCandidate{Class: poisonClass}
	return burstCase{
		space: space, build: build, cands: cands, bounds: bounds,
		rebase: func(bi int, counts []int) { copy(counts, bases[bi-1].Counts()) },
	}
}

// TestAdmitBurstMatchesPerPacket is the burst datapath's determinism
// pin: the same candidate sequence driven per packet (each decision
// conditioning on the matrix left by the previous one) and driven
// through AdmitBurst must produce bit-identical outcomes, identical
// audit-ring records modulo timestamps, and identical non-timing
// telemetry — and the classifier must count exactly one decision per
// candidate: each is scored and recorded once.
func TestAdmitBurstMatchesPerPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T) burstCase
	}{
		{"boundary", boundaryCase},
		{"admit_lib", admitLibCase},
	} {
		t.Run(tc.name, func(t *testing.T) { testBurstMatchesPerPacket(t, tc.mk(t)) })
	}
}

func testBurstMatchesPerPacket(t *testing.T, tc burstCase) {
	mbA, regA := tc.build(t)
	mbB, regB := tc.build(t)
	space, cands, bounds := tc.space, tc.cands, tc.bounds
	n := len(cands)
	// track applies the caller's side of the contract (TrackAdmitted):
	// an admitted in-space candidate joins the matrix.
	track := func(counts []int, c BurstCandidate, out Outcome) {
		if out.Verdict == Admit && int(c.Class) < space.Classes && int(c.Level) < space.Levels {
			counts[space.CellIndex(c.Class, c.Level)]++
		}
	}

	// Per-packet reference on middlebox A.
	perPkt := make([]Outcome, 0, n)
	countsA := make([]int, space.Dim())
	for bi := 1; bi < len(bounds); bi++ {
		tc.rebase(bi, countsA)
		for g := bounds[bi-1]; g < bounds[bi]; g++ {
			c := cands[g]
			out, err := mbA.Admit("ap", excr.Arrival{
				Matrix: excr.MatrixFromCounts(space, countsA), Class: c.Class, Level: c.Level,
			})
			if err != nil {
				t.Fatal(err)
			}
			perPkt = append(perPkt, out)
			track(countsA, c, out)
		}
	}

	// Burst path on middlebox B.
	burst := make([]Outcome, 0, n)
	countsB := make([]int, space.Dim())
	var bs BurstScratch
	var dst []Outcome
	clfAdmits := regB.Counter("exbox_cell_ap_clf_admit_total")
	clfRejects := regB.Counter("exbox_cell_ap_clf_reject_total")
	for bi := 1; bi < len(bounds); bi++ {
		tc.rebase(bi, countsB)
		lo, hi := bounds[bi-1], bounds[bi]
		before := clfAdmits.Value() + clfRejects.Value()
		var err error
		dst, err = mbB.AdmitBurst("ap", excr.MatrixFromCounts(space, countsB), cands[lo:hi], dst, &bs)
		if err != nil {
			t.Fatal(err)
		}
		if got := clfAdmits.Value() + clfRejects.Value() - before; got != int64(hi-lo) {
			t.Fatalf("burst %d of %d candidates recorded %d classifier decisions", bi, hi-lo, got)
		}
		for k, out := range dst {
			burst = append(burst, out)
			track(countsB, cands[lo+k], out)
		}
	}

	if len(perPkt) != len(burst) {
		t.Fatalf("outcome counts differ: %d vs %d", len(perPkt), len(burst))
	}
	admits, rejects := 0, 0
	for i := range perPkt {
		if perPkt[i] != burst[i] {
			t.Fatalf("outcome %d diverged:\nper-packet %+v\nburst      %+v", i, perPkt[i], burst[i])
		}
		if perPkt[i].Verdict == Admit {
			admits++
		} else {
			rejects++
		}
	}
	// The sequence must exercise both verdicts, or the matrix never
	// moved (or never stopped moving) within a burst.
	if admits == 0 || rejects == 0 {
		t.Fatalf("degenerate workload: %d admits, %d rejects", admits, rejects)
	}
	poison := 0
	for _, c := range cands {
		if c.Class == poisonClass {
			poison++
		}
	}
	if got := regB.Counter("exbox_bad_features_total").Value(); got != int64(poison) {
		t.Fatalf("bad-features counter %d, want %d", got, poison)
	}

	// Audit rings: same records in the same order, modulo timestamps.
	ringA, ringB := regA.Ring().Snapshot(), regB.Ring().Snapshot()
	if len(ringA) != len(ringB) {
		t.Fatalf("ring lengths differ: %d vs %d", len(ringA), len(ringB))
	}
	for i := range ringA {
		a, b := ringA[i], ringB[i]
		a.UnixNanos, b.UnixNanos = 0, 0
		if a != b {
			t.Fatalf("ring record %d diverged:\nper-packet %+v\nburst      %+v", i, a, b)
		}
	}

	// Every non-timing metric line — verdict counters, margin buckets,
	// classifier counters, health gauges — must agree exactly.
	if a, b := stripTimed(regA.String()), stripTimed(regB.String()); a != b {
		t.Fatalf("telemetry diverged:\nper-packet:\n%s\nburst:\n%s", a, b)
	}
}

// TestAdmitBurstBootstrap: a bootstrapping cell admits the whole burst
// with Bootstrap flagged on every outcome.
func TestAdmitBurstBootstrap(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	cands := make([]BurstCandidate, 10)
	for i := range cands {
		cands[i] = BurstCandidate{Class: excr.AppClass(i % 3)}
	}
	out, err := mb.AdmitBurst("ap", excr.NewMatrix(excr.DefaultSpace), cands, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Verdict != Admit || !o.Decision.Bootstrap {
			t.Fatalf("outcome %d: %+v, want bootstrap admit", i, o)
		}
	}
	if got := mb.Cell("ap").admitN.Value(); got != 10 {
		t.Fatalf("admit counter %d, want 10", got)
	}
	if got := reg.Ring().Len(); got != 10 {
		t.Fatalf("ring has %d records, want 10", got)
	}
}

// TestAdmitLatencySamplingAcrossBurstSizes pins the 1-in-N latency
// sample to the decision count, whatever the burst sizes: the decisions
// whose audit sequence number is a multiple of N are the sampled ones.
// Bursts of 2 after a single Admit (every burst starts on an odd
// sequence) and back-to-back bursts of 32 (every burst spans two
// multiples of 16) must both leave decisions/N samples in the histogram.
func TestAdmitLatencySamplingAcrossBurstSizes(t *testing.T) {
	const rate = 16
	for _, tc := range []struct {
		name   string
		lead   int // single Admits first
		size   int
		bursts int
	}{
		{"ones", 0, 1, 160},
		{"odd-start pairs", 1, 2, 160},
		{"bursts of 32", 0, 32, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mb := New(excr.DefaultSpace, Discontinue)
			reg := obs.NewRegistry()
			mb.Instrument(reg, 64)
			if got := mb.SetAdmitLatencySampling(rate); got != rate {
				t.Fatalf("effective rate %d, want %d", got, rate)
			}
			if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			base := excr.NewMatrix(excr.DefaultSpace)
			for i := 0; i < tc.lead; i++ {
				if _, err := mb.Admit("ap", excr.Arrival{Matrix: base}); err != nil {
					t.Fatal(err)
				}
			}
			cands := make([]BurstCandidate, tc.size)
			var bs BurstScratch
			var dst []Outcome
			for i := 0; i < tc.bursts; i++ {
				var err error
				if dst, err = mb.AdmitBurst("ap", base, cands, dst, &bs); err != nil {
					t.Fatal(err)
				}
			}
			decisions := tc.lead + tc.size*tc.bursts
			// Sequence numbers 0, N, 2N, ... below decisions.
			want := int64((decisions + rate - 1) / rate)
			if got := reg.Histogram("exbox_admit_seconds", nil).Count(); got != want {
				t.Fatalf("%d decisions at 1-in-%d left %d latency samples, want %d", decisions, rate, got, want)
			}
		})
	}
}

func TestAdmitBurstUnknownCell(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.AdmitBurst("ghost", excr.NewMatrix(excr.DefaultSpace), []BurstCandidate{{}}, nil, nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("err = %v, want ErrUnknownCell", err)
	}
	if err := mb.ObserveBatch("ghost", []excr.Sample{{Arrival: excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace)}, Label: 1}}, nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("err = %v, want ErrUnknownCell", err)
	}
}

// TestObserveBatchMatchesObserve drives the same labeled feed through
// per-sample Observe and through ObserveBatch bursts — across the
// bootstrap graduation and subsequent refits — and requires the
// resulting models to decide identically.
func TestObserveBatchMatchesObserve(t *testing.T) {
	build := func() *Middlebox {
		mb := New(excr.DefaultSpace, Discontinue)
		if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		return mb
	}
	mbA, mbB := build(), build()

	o := wifiOracle()
	samples := make([]excr.Sample, 0, 200)
	for i := 0; i < 200; i++ {
		m := excr.NewMatrix(excr.DefaultSpace).
			Set(excr.Web, 0, i%15).Set(excr.Streaming, 0, (i*3)%22).Set(excr.Conferencing, 0, (i*5)%11)
		a := excr.Arrival{Matrix: m, Class: excr.AppClass(i % 3)}
		samples = append(samples, excr.Sample{Arrival: a, Label: o.Label(a)})
	}

	for _, s := range samples {
		if err := mbA.Observe("ap", s); err != nil {
			t.Fatal(err)
		}
	}
	bounds := burstPlan(len(samples))
	for bi := 1; bi < len(bounds); bi++ {
		if err := mbB.ObserveBatch("ap", samples[bounds[bi-1]:bounds[bi]], nil); err != nil {
			t.Fatal(err)
		}
	}

	ca, cb := mbA.Cell("ap").Classifier, mbB.Cell("ap").Classifier
	if ca.Bootstrapping() != cb.Bootstrapping() {
		t.Fatalf("phase diverged: %v vs %v", ca.Bootstrapping(), cb.Bootstrapping())
	}
	if ca.ModelVersion() != cb.ModelVersion() {
		t.Fatalf("model version diverged: %d vs %d", ca.ModelVersion(), cb.ModelVersion())
	}
	for i := 0; i < 60; i++ {
		m := excr.NewMatrix(excr.DefaultSpace).
			Set(excr.Web, 0, i%18).Set(excr.Streaming, 0, (i*7)%18).Set(excr.Conferencing, 0, i%7)
		a := excr.Arrival{Matrix: m, Class: excr.AppClass(i % 3)}
		da := ca.Decide(a)
		db := cb.Decide(a)
		if da != db {
			t.Fatalf("probe %d: decisions diverged %+v vs %+v", i, da, db)
		}
	}
}

// pooledAllocPins is set by norace_test.go, i.e. when the build has no
// race detector: under it sync.Pool deliberately drops a quarter of
// what is Put, so the pool-backed Admit allocates a fresh scratch now
// and then by design and only the caller-owned-scratch pin can hold.
var pooledAllocPins bool

// assertAdmitZeroAlloc pins single-arrival admission of a on mb at zero
// allocations both ways it can be called: AdmitBurst of one on a
// caller-owned BurstScratch (what a worker does) and pooled Admit.
func assertAdmitZeroAlloc(t *testing.T, mb *Middlebox, a excr.Arrival) {
	t.Helper()
	var bs BurstScratch
	cands := []BurstCandidate{{Class: a.Class, Level: a.Level}}
	dst, err := mb.AdmitBurst("ap", a.Matrix, cands, nil, &bs)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if got := testing.AllocsPerRun(200, func() {
		dst, _ = mb.AdmitBurst("ap", a.Matrix, cands, dst, &bs)
		sink += dst[0].Decision.Margin
	}); got != 0 {
		t.Errorf("AdmitBurst of one: %v allocs/op, want 0", got)
	}
	if _, err := mb.Admit("ap", a); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		out, _ := mb.Admit("ap", a)
		sink += out.Decision.Margin
	}); got != 0 && pooledAllocPins {
		t.Errorf("Admit: %v allocs/op, want 0", got)
	}
	_ = sink
}

// TestAdmitWithZeroAlloc pins the single-arrival admission path on an
// uninstrumented middlebox: pooled Admit, and AdmitBurst of one with a
// caller-owned scratch, must not allocate. Larger bursts ride on the
// same scorer, so this is the floor the burst pipeline amortizes from.
func TestAdmitWithZeroAlloc(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	trainCell(t, mb, "ap", wifiOracle(), 7)
	assertAdmitZeroAlloc(t, mb, lightArrival())
}

// TestAdmitObserveMixedSteadyStateAllocs pins the mixed datapath the
// ingest workers actually run — admissions interleaved with feedback
// observations whose tuples recur (replacement hits) — at zero
// allocations per operation once warmed. This is the AllocsPerRun twin
// of BenchmarkAdmitObserveMixed's CI allocs gate.
func TestAdmitObserveMixedSteadyStateAllocs(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	cfg := classifier.DefaultConfig()
	// Deferred retraining keeps fits off the measured path, as in the
	// live gateway; graduation is forced explicitly. No batch may come
	// due among the 21 observations below either: AllocsPerRun counts
	// the whole process, so a background fit that happened to run inside
	// the window was charged to it (1 run in ~200).
	cfg.DeferRetrain = true
	cfg.BatchSize = 1 << 20
	mb.AddCell("ap", cfg)
	o := wifiOracle()
	rng := mathx.NewRand(7)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mb.Cell("ap").Classifier.ForceOnline(); err != nil {
		t.Fatal(err)
	}
	a := lightArrival()
	s := excr.Sample{Arrival: a, Label: 1}
	mb.Observe("ap", s) // insert the key once
	var bs BurstScratch
	cands := []BurstCandidate{{Class: a.Class, Level: a.Level}}
	dst, _ := mb.AdmitBurst("ap", a.Matrix, cands, nil, &bs)
	var sink float64
	i := 0
	if got := testing.AllocsPerRun(320, func() {
		if i%16 == 15 {
			mb.Observe("ap", s)
		} else {
			dst, _ = mb.AdmitBurst("ap", a.Matrix, cands, dst, &bs)
			sink += dst[0].Decision.Margin
		}
		i++
	}); got != 0 {
		t.Errorf("mixed Observe/Admit steady state: %v allocs/op, want 0", got)
	}
	_ = sink
}

// countingLearner is the stock SVM with every model it trains wrapped
// to count the rows it scores, through whichever entry point the
// classifier calls.
type countingLearner struct {
	learner.SVM
	rows *atomic.Int64
}

func (l countingLearner) Train(x [][]float64, y []float64, keys []string, stats *svm.SolveStats) (learner.Predictor, bool, error) {
	p, warm, err := l.SVM.Train(x, y, keys, stats)
	if err != nil {
		return nil, false, err
	}
	return countingPredictor{p.(learner.FastPredictor), l.rows}, warm, nil
}

type countingPredictor struct {
	learner.FastPredictor
	rows *atomic.Int64
}

func (p countingPredictor) Decision(row []float64) float64 {
	p.rows.Add(1)
	return p.FastPredictor.Decision(row)
}

func (p countingPredictor) DecisionInto(dst, row []float64) float64 {
	p.rows.Add(1)
	return p.FastPredictor.DecisionInto(dst, row)
}

func (p countingPredictor) DecisionBatch(dst []float64, rows [][]float64, scratch []float64) []float64 {
	p.rows.Add(int64(len(rows)))
	return p.FastPredictor.DecisionBatch(dst, rows, scratch)
}

// overloadedBase is a mixed-SNR matrix outside the region
// overloadedMiddlebox learns: every (class, level) arriving on it is
// rejected.
var overloadedBase = excr.MatrixFromCounts(excr.MixedSNRSpace, []int{2, 2, 2, 2, 2, 2})

// testbedSamples draws n arrivals of the paper's Random population on
// the mixed-SNR space (SNR levels assigned per client), labeled by the
// testbed WiFi cell's oracle.
func testbedSamples(seed int64, n int) []excr.Sample {
	space := excr.MixedSNRSpace
	oracle := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}
	rng := mathx.NewRand(seed)
	assign := traffic.RandomLevels(rng, space)
	var out []excr.Sample
	for len(out) < n {
		for _, e := range traffic.Arrivals(traffic.Random(rng, 64, 7, 0, space), assign) {
			out = append(out, excr.Sample{Arrival: e.Arrival, Label: oracle.Label(e.Arrival)})
		}
	}
	return out[:n]
}

// overloadedMiddlebox is one mixed-SNR cell trained online from 400
// testbedSamples (admit_lib's model), learning through l (nil: the
// default) and instrumented into reg when reg is non-nil.
func overloadedMiddlebox(tb testing.TB, l learner.Learner, reg *obs.Registry) *Middlebox {
	tb.Helper()
	mb := New(excr.MixedSNRSpace, Discontinue)
	if reg != nil {
		mb.Instrument(reg, 1024)
	}
	cfg := classifier.DefaultConfig()
	cfg.Learner = l
	if _, err := mb.AddCell("ap", cfg); err != nil {
		tb.Fatal(err)
	}
	for _, s := range testbedSamples(1, 400) {
		if err := mb.Observe("ap", s); err != nil {
			tb.Fatal(err)
		}
	}
	if mb.Cell("ap").Classifier.Bootstrapping() {
		tb.Fatal("cell did not graduate")
	}
	return mb
}

// cycleCands returns n candidates cycling through every (class, level)
// of space.
func cycleCands(space excr.Space, n int) []BurstCandidate {
	cands := make([]BurstCandidate, n)
	for i := range cands {
		j := i % space.Dim()
		cands[i] = BurstCandidate{Class: excr.AppClass(j % space.Classes), Level: excr.SNRLevel(j / space.Classes)}
	}
	return cands
}

// TestAdmitBurstScoresDistinctTuplesOnce pins what a burst costs the
// model: one evaluation per distinct (class, level) of each stretch of
// candidates between two in-space admits — an overloaded cell scores a
// 32-candidate burst Space.Dim() times — while everything recorded per
// candidate (classifier verdict counters, margin histogram, audit
// records on the matrix each was decided on) still counts all 32.
func TestAdmitBurstScoresDistinctTuplesOnce(t *testing.T) {
	var rows atomic.Int64
	reg := obs.NewRegistry()
	mb := overloadedMiddlebox(t, countingLearner{learner.SVM{Config: classifier.DefaultConfig().SVM}, &rows}, reg)
	space := mb.Space
	cands := cycleCands(space, 32)
	clfAdmits := reg.Counter("exbox_cell_ap_clf_admit_total")
	clfRejects := reg.Counter("exbox_cell_ap_clf_reject_total")
	margins := reg.HistogramNoSum("exbox_cell_ap_clf_margin", nil)
	for _, tc := range []struct {
		name string
		base excr.Matrix
	}{
		{"overloaded", overloadedBase},
		{"empty", excr.NewMatrix(space)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decisions := clfAdmits.Value() + clfRejects.Value()
			marginN := margins.Count()
			rows.Store(0)
			dst, err := mb.AdmitBurst("ap", tc.base, cands, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Replay the burst per packet: the matrix each candidate was
			// decided on, and the distinct tuples of each stretch.
			counts := tc.base.Counts()
			var keys []string
			want, admits := 0, 0
			seen := map[BurstCandidate]bool{}
			for k, out := range dst {
				keys = append(keys, excr.MatrixFromCounts(space, counts).Key())
				if !seen[cands[k]] {
					seen[cands[k]] = true
					want++
				}
				if out.Verdict == Admit {
					admits++
					counts[space.CellIndex(cands[k].Class, cands[k].Level)]++
					seen = map[BurstCandidate]bool{}
				}
			}
			if tc.name == "overloaded" && (admits != 0 || want != space.Dim()) {
				t.Fatalf("overloaded burst: %d admits, %d distinct tuples; want 0 and %d", admits, want, space.Dim())
			}
			if tc.name == "empty" && (admits == 0 || admits == len(cands)) {
				t.Fatalf("empty-cell burst admitted %d of %d: want both verdicts", admits, len(cands))
			}
			if got := rows.Load(); got != int64(want) {
				t.Fatalf("burst of %d scored %d rows, want %d (one per distinct tuple of each stretch)", len(cands), got, want)
			}
			if got := clfAdmits.Value() + clfRejects.Value() - decisions; got != int64(len(cands)) {
				t.Fatalf("classifier counted %d decisions, want %d", got, len(cands))
			}
			if got := margins.Count() - marginN; got != int64(len(cands)) {
				t.Fatalf("margin histogram took %d samples, want %d", got, len(cands))
			}
			recs := reg.Ring().Snapshot()
			recs = recs[len(recs)-len(cands):]
			for k, r := range recs {
				if r.Matrix != keys[k] || r.Class != int(cands[k].Class) || r.Level != int(cands[k].Level) ||
					r.Margin != dst[k].Decision.Margin || r.Verdict != dst[k].Verdict.String() {
					t.Fatalf("audit record %d: %+v, want matrix %s for outcome %+v", k, r, keys[k], dst[k])
				}
			}
		})
	}
}
