// Package classifier implements ExBox's Admittance Classifier
// (Section 3.1 and Figure 4 of the paper): an online SVM that learns
// the boundary of the Experiential Capacity Region and classifies each
// arriving flow as admissible (+1) or inadmissible (−1).
//
// The classifier runs in two phases:
//
//   - Bootstrap: every flow is admitted and its observed (X_m, Y_m)
//     tuple is recorded. Periodic n-fold cross-validation measures how
//     trustworthy the learned boundary is; once accuracy crosses the
//     configured threshold the classifier goes online.
//
//   - Online learning: each arrival is classified by the trained SVM.
//     Observed tuples continue to accumulate, and after every batch of
//     B flows the SVM is retrained on everything seen so far. A traffic
//     matrix seen again replaces its previously observed QoE label, so
//     the training set tracks the network as it drifts.
package classifier

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exbox/internal/excr"
	"exbox/internal/learner"
	"exbox/internal/mathx"
	"exbox/internal/obs"
	"exbox/internal/svm"
)

// Metrics is the classifier's telemetry hookup. Every field is
// optional (nil fields no-op), and every update on the Decide path is
// a single atomic operation — instrumentation never adds a lock or an
// allocation to admission. Wire it with SetMetrics before the
// classifier sees concurrent traffic; exboxcore.Middlebox.Instrument
// does this per cell.
type Metrics struct {
	// Decide path (lock-free, atomic-only). Total decisions are not a
	// separate counter — every decision lands in exactly one of Admits
	// or Rejects, so the total is derived at scrape time and the hot
	// path saves an atomic op.
	BootstrapDecisions *obs.Counter   // decided by the admit-everything bootstrap
	Admits             *obs.Counter   // classifier said admissible (incl. bootstrap)
	Rejects            *obs.Counter   // classifier said inadmissible
	Margin             *obs.Histogram // signed SVM decision values

	// Training path (under the training lock / fit lock).
	Observations *obs.Counter    // labeled tuples fed in
	Replacements *obs.Counter    // repeated matrices that replaced their label
	Evictions    *obs.Counter    // LRU-evicted training samples
	TrainingSize *obs.Gauge      // current deduplicated training-set size
	Fits         *obs.Counter    // model fits published
	WarmFits     *obs.Counter    // fits seeded from the previous solver state
	FitErrors    *obs.Counter    // fits that failed (incl. not-ready)
	FitSeconds   *obs.Histogram  // wall time per fit, train + calibration
	CVChecks     *obs.Counter    // bootstrap cross-validation runs
	CVScore      *obs.GaugeFloat // most recent cross-validation accuracy
	Graduations  *obs.Counter    // bootstrap -> online phase transitions

	// Solver behavior, accumulated per fit when model health is enabled
	// and the learner exposes solver accounting.
	KernelCacheHits   *obs.Counter // kernel-row lookups served from cache
	KernelCacheMisses *obs.Counter // kernel rows computed
	CappedFits        *obs.Counter // published fits that hit MaxIter before converging

	// BadFeatures counts observations and decisions rejected at the
	// feature boundary: a non-finite feature row, or a model that
	// returned a NaN margin. Neither is allowed to reach the margin
	// histogram or the drift bins.
	BadFeatures *obs.Counter

	// RFF tier lifecycle (see EnableHealth's oracle gate): demotions
	// flip scoring back to the exact kernel walk when the approximate
	// tier's agreement EWMA drops below the threshold; promotions count
	// demoted classifiers restored by a fresh fit that rebuilt a tier.
	RFFDemotions  *obs.Counter
	RFFPromotions *obs.Counter
}

// Controller is the common admission-control interface shared by the
// Admittance Classifier and the RateBased/MaxClient baselines.
type Controller interface {
	// Decide returns the admission decision for an arriving flow.
	Decide(a excr.Arrival) Decision
	// Observe feeds a ground-truth labeled tuple to learners;
	// baselines ignore it.
	Observe(s excr.Sample)
	// Name identifies the controller in experiment output.
	Name() string
}

// Decision is the outcome of classifying one arrival.
type Decision struct {
	// Admit is true when the flow should be admitted.
	Admit bool
	// Margin is the signed SVM decision value: how far inside
	// (positive) or outside (negative) the capacity region the
	// post-admission state sits. Baselines and the bootstrap phase
	// report 0.
	Margin float64
	// Depth is the margin normalized by the largest absolute decision
	// value seen on the training set, yielding a roughly [-1, 1] score
	// comparable across cells. Network selection ranks admitting cells
	// by Depth.
	Depth float64
	// Bootstrap is true when the decision was made during the
	// bootstrap phase (everything is admitted unconditionally).
	Bootstrap bool
	// Model is the version of the model snapshot that made the
	// decision (monotonic per classifier, 0 during bootstrap), so
	// audit records and traces can tie a verdict to the exact boundary
	// that produced it.
	Model uint64
}

// Config holds Admittance Classifier hyperparameters.
type Config struct {
	// SVM is the underlying learner configuration, used when Learner
	// is nil.
	SVM svm.Config
	// Learner overrides the learning technique (e.g. learner.Tree for
	// the decision-tree ablation). Nil uses an SVM with the SVM config,
	// the paper's choice.
	Learner learner.Learner
	// BatchSize is B: the SVM is retrained after this many new
	// observations in the online phase. The paper uses 20 for WiFi,
	// 10 for LTE, and 100–400 in the large mixed-SNR simulations.
	BatchSize int
	// CVFolds is n for the bootstrap cross-validation.
	CVFolds int
	// CVThreshold is the cross-validation accuracy that ends the
	// bootstrap phase.
	CVThreshold float64
	// MinBootstrap is the minimum number of observations before
	// cross-validation is attempted (the paper observes ≈50 samples
	// suffice).
	MinBootstrap int
	// CVEvery spaces out cross-validation checks during bootstrap.
	CVEvery int
	// ReplaceRepeated controls whether a re-observed traffic matrix
	// replaces its old label (the paper's behavior, and the default)
	// or is appended as a fresh sample (ablation).
	ReplaceRepeated bool
	// MaxTrainingSet caps the training-set size; least-recently
	// observed samples are evicted first. 0 means unlimited.
	MaxTrainingSet int
	// Seed drives fold shuffling and is part of the deterministic
	// behavior of the classifier.
	Seed int64
	// WarmStart seeds each online refit from the previous fit's solver
	// state (dual variables keyed by traffic matrix, frozen feature
	// standardization): after a batch of B lands, SMO starts from the
	// last boundary instead of from zero, making the paper's
	// retrain-every-batch loop cheap. Seeds are re-aligned by sample
	// key, so replacement, reordering and LRU eviction of training
	// rows invalidate exactly the affected rows rather than the whole
	// seed; the solver itself falls back to a cold fit when the set
	// churned too much. Off by default so experiment output is
	// bit-identical to the cold path; exboxd enables it.
	WarmStart bool
	// DeferRetrain moves the SVM fits off the Observe path: batch
	// boundaries (and bootstrap cross-validation checks) mark a
	// retrain pending instead of fitting inline, and a background
	// worker — exboxcore's per-cell retrainer — performs the fit via
	// Maintain. Off by default, which keeps Observe→Decide
	// synchronous and deterministic for experiments.
	DeferRetrain bool
}

// DefaultConfig returns the configuration used for the WiFi testbed
// experiments.
func DefaultConfig() Config {
	return Config{
		SVM:             svm.DefaultConfig(),
		BatchSize:       20,
		CVFolds:         5,
		CVThreshold:     0.7,
		MinBootstrap:    20,
		CVEvery:         10,
		ReplaceRepeated: true,
		MaxTrainingSet:  1500,
		Seed:            1,
	}
}

// modelSnapshot is the immutable published state Decide reads: the
// trained model, its depth normalizer, and the phase flag. A new
// snapshot is atomically swapped in after every fit, so the admission
// path never takes a lock (trained svm/dtree models are themselves
// immutable and safe for concurrent use).
type modelSnapshot struct {
	model       learner.Predictor
	fast        learner.FastPredictor // model's fast path, nil when not provided
	approx      learner.ApproxPredictor
	calibration float64 // max |decision| over the training set
	bootstrap   bool
	version     uint64 // monotonic fit counter, 0 while bootstrapping
}

// Scratch is per-caller workspace for the allocation-free decision
// paths: the feature rows and the batch slabs live here and are grown
// on demand. A Scratch must not be used concurrently; hold one per
// worker (cmd/exboxd does) or let Decide/DecideBatch borrow one from
// the internal pool. The classifier never retains a Scratch or any
// slice inside it beyond the call.
type Scratch struct {
	slab  []float64   // flat feature storage for the batch rows
	rows  [][]float64 // row views into slab
	score []float64   // raw decision values for a batch
	batch []float64   // FastPredictor.DecisionBatch workspace
	bad   []bool      // per-row forced-reject marks (see scoreBatch)
	one   [1]Decision // Decide's batch-of-one destination
	seen  []seenTuple // DecideBurst's distinct tuples of the current segment
}

// seenTuple is one (class, level) DecideBurst has already scored on the
// current segment's matrix, with its decision and scoreBatch's bad mark.
type seenTuple struct {
	class excr.AppClass
	level excr.SNRLevel
	d     Decision
	bad   bool
}

// scratchPool backs plain Decide so callers that don't hold their own
// Scratch still hit the zero-allocation path (pooling a pointer type
// keeps Get/Put allocation-free).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AdmittanceClassifier learns the ExCR boundary online. It is safe for
// concurrent use: Decide is a lock-free read of the atomically
// published model snapshot, while Observe and the retraining entry
// points serialize on an internal training lock. With
// Config.DeferRetrain the expensive SVM fits additionally move to a
// background caller of Maintain, leaving Observe cheap.
type AdmittanceClassifier struct {
	cfg   Config
	space excr.Space

	// mu guards the training set and phase counters below. The rng is
	// only consumed under mu (bootstrap cross-validation).
	mu             sync.Mutex
	rng            *rand.Rand
	samples        []excr.Sample
	keys           []string
	index          map[string]int
	sinceTrain     int
	sinceCV        int
	observed       int
	lastCVScore    float64
	retrainPending bool

	// fitMu serializes model fits so concurrent Retrain/Maintain calls
	// publish snapshots in a well-defined order.
	fitMu  sync.Mutex
	state  atomic.Pointer[modelSnapshot]
	fitSeq atomic.Uint64 // model-version source, incremented per published fit

	// health is the optional model-health monitor (EnableHealth); nil
	// costs the hot paths one pointer load and branch.
	health atomic.Pointer[modelHealth]

	// rffDemoted is the oracle gate's verdict on the published model's
	// approximate scoring tier: when set, the decision paths ignore
	// snapshot.approx and score through the exact fast path. Set by the
	// health monitor when the RFF-vs-oracle agreement EWMA drops below
	// threshold, cleared when a fresh fit publishes a new tier. Read
	// lock-free on every decision.
	rffDemoted atomic.Bool

	// obsFeat is Observe's feature scratch, guarded by mu, for the
	// finite-features check at the observation boundary. keyBuf is the
	// reusable sample-key buffer: the replace-repeated lookup builds
	// the key bytes here and probes the index without materializing a
	// string, so a steady-state (replacement-hit) observation
	// allocates nothing.
	obsFeat []float64
	keyBuf  []byte

	learner learner.Learner

	// metrics is the telemetry hookup (zero value: all no-ops). Set
	// once via SetMetrics before concurrent use; the fields are atomic
	// primitives, so updates themselves are always race-free.
	metrics Metrics
}

// New returns a fresh classifier in the bootstrap phase for the given
// traffic-matrix space.
func New(space excr.Space, cfg Config) *AdmittanceClassifier {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 20
	}
	if cfg.CVFolds < 2 {
		cfg.CVFolds = 5
	}
	if cfg.CVThreshold <= 0 {
		cfg.CVThreshold = 0.7
	}
	if cfg.MinBootstrap <= 0 {
		cfg.MinBootstrap = 20
	}
	if cfg.CVEvery <= 0 {
		cfg.CVEvery = 10
	}
	l := cfg.Learner
	if l == nil {
		if cfg.WarmStart {
			l = learner.NewWarmSVM(cfg.SVM)
		} else {
			l = learner.SVM{Config: cfg.SVM}
		}
	}
	ac := &AdmittanceClassifier{
		cfg:     cfg,
		space:   space,
		rng:     mathx.NewRand(cfg.Seed),
		index:   make(map[string]int),
		learner: l,
	}
	ac.state.Store(&modelSnapshot{bootstrap: true})
	return ac
}

// Name implements Controller.
func (ac *AdmittanceClassifier) Name() string { return "ExBox" }

// SetMetrics wires the classifier's telemetry. Call it once, before
// the classifier sees concurrent traffic (typically right after New);
// the middlebox does this when a registry is attached.
func (ac *AdmittanceClassifier) SetMetrics(m Metrics) { ac.metrics = m }

// Bootstrapping reports whether the classifier is still in its
// bootstrap (observe-everything) phase.
func (ac *AdmittanceClassifier) Bootstrapping() bool { return ac.state.Load().bootstrap }

// TrainingSetSize returns the current number of (deduplicated)
// training tuples.
func (ac *AdmittanceClassifier) TrainingSetSize() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.samples)
}

// Observed returns the total number of observations fed to the
// classifier, before deduplication.
func (ac *AdmittanceClassifier) Observed() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.observed
}

// LastCVScore returns the most recent bootstrap cross-validation
// accuracy (0 before the first check).
func (ac *AdmittanceClassifier) LastCVScore() float64 {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.lastCVScore
}

// RetrainPending reports whether deferred training work is queued for
// Maintain (always false without Config.DeferRetrain).
func (ac *AdmittanceClassifier) RetrainPending() bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.retrainPending
}

// sampleKey identifies a tuple for the replace-repeated-matrix policy:
// the paper replaces the observed QoE when the same traffic matrix
// recurs; the arriving flow's class and level are part of the state.
func sampleKey(a excr.Arrival) string {
	return fmt.Sprintf("%s|%d|%d", a.Matrix.Key(), a.Class, a.Level)
}

// appendSampleKey is sampleKey into a reusable buffer, byte-identical
// to it (the alloc-free pinning test holds the two together). The
// observation path builds the key here and only materializes a string
// for genuinely new samples.
func appendSampleKey(dst []byte, a excr.Arrival) []byte {
	dst = a.Matrix.AppendKey(dst)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(a.Class), 10)
	dst = append(dst, '|')
	return strconv.AppendInt(dst, int64(a.Level), 10)
}

// Observe implements Controller: it folds one ground-truth labeled
// tuple into the training set and advances the phase machinery —
// cross-validation during bootstrap, batch retraining online (or, with
// DeferRetrain, marking the work pending for Maintain).
func (ac *AdmittanceClassifier) Observe(s excr.Sample) {
	ac.mu.Lock()
	req := ac.observeLocked(s)
	ac.mu.Unlock()
	if req != nil {
		_ = ac.fit(req)
	}
}

// ObserveBatch feeds a burst of labeled tuples under one hold of the
// training lock — the per-burst entry point of the ingest datapath,
// amortizing the lock handshake and the phase accounting that Observe
// pays per sample. Semantics are identical to calling Observe in
// sequence: when a sample crosses a batch boundary (or a bootstrap CV
// checkpoint) without DeferRetrain, the lock is dropped, the fit runs
// inline, and the batch resumes — so later samples in the burst see
// exactly the phase transitions the per-sample path would have
// produced.
func (ac *AdmittanceClassifier) ObserveBatch(samples []excr.Sample) {
	ac.mu.Lock()
	for i := range samples {
		if req := ac.observeLocked(samples[i]); req != nil {
			ac.mu.Unlock()
			_ = ac.fit(req)
			ac.mu.Lock()
		}
	}
	ac.mu.Unlock()
}

// observeLocked is the body shared by Observe and ObserveBatch: fold
// one labeled tuple into the training set and return the fit to run
// outside the lock, if the phase machinery asks for one. Caller holds
// mu.
func (ac *AdmittanceClassifier) observeLocked(s excr.Sample) *fitRequest {
	if s.Label != 1 && s.Label != -1 {
		panic(fmt.Sprintf("classifier: label %v, want ±1", s.Label))
	}
	// Reject corrupt observations at the boundary: a NaN or ±Inf
	// feature would poison every fused dot product downstream (training
	// rows, margins, the drift bins). The UDP observation path computes
	// features from packet counters, so this should never fire — which
	// is exactly why it is a counter and not a panic.
	ac.obsFeat = s.Arrival.FeaturesInto(ac.obsFeat)
	if !mathx.AllFinite(ac.obsFeat) {
		ac.metrics.BadFeatures.Inc()
		return nil
	}
	ac.observed++
	ac.metrics.Observations.Inc()
	if h := ac.health.Load(); h != nil {
		// Score the sample against the model that would have decided
		// it, before this observation can trigger a refit.
		ac.healthObserveSample(h, s)
	}
	ac.keyBuf = appendSampleKey(ac.keyBuf[:0], s.Arrival)
	// The []byte→string conversion in the index probe does not
	// allocate (compiler-recognized map-lookup form), so the
	// replacement hit — the steady state once the matrix space has
	// been explored — is allocation-free end to end.
	if i, ok := ac.index[string(ac.keyBuf)]; ok && ac.cfg.ReplaceRepeated {
		ac.samples[i] = s
		ac.touchLocked(i)
		ac.metrics.Replacements.Inc()
	} else {
		key := string(ac.keyBuf)
		ac.samples = append(ac.samples, s)
		ac.keys = append(ac.keys, key)
		ac.index[key] = len(ac.samples) - 1
		ac.evictIfNeededLocked()
	}
	ac.metrics.TrainingSize.Set(int64(len(ac.samples)))
	return ac.advancePhaseLocked()
}

// advancePhaseLocked runs the per-observation phase accounting and
// returns the fit to perform outside the training lock, if any. With
// DeferRetrain it marks the work pending instead. Caller holds mu.
func (ac *AdmittanceClassifier) advancePhaseLocked() *fitRequest {
	if ac.state.Load().bootstrap {
		ac.sinceCV++
		if len(ac.samples) < ac.cfg.MinBootstrap || ac.sinceCV < ac.cfg.CVEvery {
			return nil
		}
		ac.sinceCV = 0
		if ac.cfg.DeferRetrain {
			ac.retrainPending = true
			return nil
		}
		return ac.crossValidateLocked()
	}
	ac.sinceTrain++
	if ac.sinceTrain < ac.cfg.BatchSize {
		return nil
	}
	ac.sinceTrain = 0
	if ac.cfg.DeferRetrain {
		ac.retrainPending = true
		return nil
	}
	x, y, keys := ac.datasetLocked()
	return &fitRequest{x: x, y: y, keys: keys}
}

// touchLocked moves the just-replaced sample at slot i to the tail so
// eviction order is least-recently-observed: a matrix the network keeps
// revisiting (and re-confirming) must outlive matrices not seen since.
// Caller holds mu.
func (ac *AdmittanceClassifier) touchLocked(i int) {
	last := len(ac.samples) - 1
	if i == last {
		return
	}
	s, k := ac.samples[i], ac.keys[i]
	copy(ac.samples[i:], ac.samples[i+1:])
	copy(ac.keys[i:], ac.keys[i+1:])
	ac.samples[last], ac.keys[last] = s, k
	for j := i; j <= last; j++ {
		ac.index[ac.keys[j]] = j
	}
}

// evictIfNeededLocked drops the least-recently-observed samples beyond
// MaxTrainingSet. Caller holds mu.
func (ac *AdmittanceClassifier) evictIfNeededLocked() {
	max := ac.cfg.MaxTrainingSet
	if max <= 0 || len(ac.samples) <= max {
		return
	}
	drop := len(ac.samples) - max
	ac.metrics.Evictions.Add(int64(drop))
	for pos, k := range ac.keys[:drop] {
		// With ReplaceRepeated off the same key can appear several
		// times and the index tracks the newest copy; only delete
		// entries that still point into the dropped prefix.
		if ac.index[k] == pos {
			delete(ac.index, k)
		}
	}
	ac.samples = append([]excr.Sample(nil), ac.samples[drop:]...)
	ac.keys = append([]string(nil), ac.keys[drop:]...)
	for i, k := range ac.keys {
		ac.index[k] = i
	}
}

// crossValidateLocked runs the bootstrap n-fold cross-validation and,
// when accuracy clears the threshold, returns the graduation fit.
// Caller holds mu (the CV consumes ac.rng and reads the dataset).
func (ac *AdmittanceClassifier) crossValidateLocked() *fitRequest {
	x, y, keys := ac.datasetLocked()
	ac.metrics.CVChecks.Inc()
	acc, err := learner.CrossValidate(ac.learner, x, y, ac.cfg.CVFolds, ac.rng)
	if err != nil {
		return nil // e.g. single-class folds dominate; keep bootstrapping
	}
	ac.lastCVScore = acc
	ac.metrics.CVScore.Set(acc)
	if acc < ac.cfg.CVThreshold {
		return nil
	}
	return &fitRequest{x: x, y: y, keys: keys, graduate: true}
}

// datasetLocked materializes the training matrices for the SVM, plus
// the per-row sample keys the warm-start path re-aligns seeds by.
// Caller holds mu; the returned slices are private copies safe to use
// after the lock is released.
func (ac *AdmittanceClassifier) datasetLocked() ([][]float64, []float64, []string) {
	x := make([][]float64, len(ac.samples))
	y := make([]float64, len(ac.samples))
	for i, s := range ac.samples {
		x[i] = s.Arrival.Features()
		y[i] = s.Label
	}
	return x, y, append([]string(nil), ac.keys...)
}

// ErrNotReady is returned by Retrain when no model can be fit yet
// (no samples, or a single class observed).
var ErrNotReady = errors.New("classifier: not enough label diversity to train")

// fitRequest is a snapshot of the dataset to train on, taken under mu
// so the expensive fit itself runs without blocking Observe.
type fitRequest struct {
	x        [][]float64
	y        []float64
	keys     []string // per-row sample keys, for warm-seed re-alignment
	graduate bool     // leave bootstrap on success
}

// fit trains on the snapshot and atomically publishes the new model.
func (ac *AdmittanceClassifier) fit(req *fitRequest) error {
	ac.fitMu.Lock()
	defer ac.fitMu.Unlock()
	if len(req.x) == 0 {
		ac.metrics.FitErrors.Inc()
		return ErrNotReady
	}
	start := time.Now()
	// With model health enabled, ask the learner for the solver's
	// per-phase accounting; a learner without solver phases leaves it
	// untouched (Rows still 0) and the record carries no solve split.
	h := ac.health.Load()
	var stats *svm.SolveStats
	if h != nil {
		stats = new(svm.SolveStats)
	}
	keys := req.keys
	if !ac.cfg.WarmStart || len(keys) != len(req.x) {
		keys = nil // cold fit
	}
	m, warmed, err := ac.learner.Train(req.x, req.y, keys, stats)
	if warmed {
		ac.metrics.WarmFits.Inc()
	}
	if stats != nil && stats.Rows == 0 {
		stats = nil
	}
	if errors.Is(err, learner.ErrOneClass) {
		ac.metrics.FitErrors.Inc()
		return ErrNotReady
	}
	if err != nil {
		ac.metrics.FitErrors.Inc()
		return err
	}
	// Calibrate the depth normalizer: the largest absolute decision
	// value over the training set. Margins divided by it are roughly
	// comparable across independently trained cells. The svm solver ends
	// holding every training decision value and reports their maximum;
	// other learners' models are scored over the training rows.
	fast, _ := m.(learner.FastPredictor)
	calib, known := 0.0, false
	if tm, ok := m.(interface{ MaxTrainDecision() (float64, bool) }); ok {
		calib, known = tm.MaxTrainDecision()
	}
	if !known && fast != nil {
		for _, d := range fast.DecisionBatch(nil, req.x, nil) {
			if d = math.Abs(d); d > calib {
				calib = d
			}
		}
	} else if !known {
		for _, row := range req.x {
			if d := math.Abs(m.Decision(row)); d > calib {
				calib = d
			}
		}
	}
	if calib < 1e-9 {
		calib = 1
	}
	// The approximate tier ships only when the learner actually built
	// it for this fit (svm with Config.RFF whose readout regression
	// succeeded); otherwise the snapshot scores exactly.
	var approx learner.ApproxPredictor
	if ap, ok := m.(learner.ApproxPredictor); ok && ap.HasApprox() {
		approx = ap
	}
	wasBoot := ac.state.Load().bootstrap
	boot := wasBoot && !req.graduate
	version := ac.fitSeq.Add(1)
	if h != nil {
		// The oracle gate judges one tier against one model: a new fit
		// starts the agreement EWMA over.
		h.resetRFF()
	}
	ac.state.Store(&modelSnapshot{model: m, fast: fast, approx: approx, calibration: calib, bootstrap: boot, version: version})
	// A fresh fit clears a demotion: the new tier gets its own trial
	// (counted as a promotion only when there is a tier to promote).
	if wasDemoted := ac.rffDemoted.Swap(false); wasDemoted && approx != nil {
		ac.metrics.RFFPromotions.Inc()
	}
	ac.metrics.Fits.Inc()
	elapsed := time.Since(start).Seconds()
	ac.metrics.FitSeconds.Observe(elapsed)
	if wasBoot && !boot {
		ac.metrics.Graduations.Inc()
	}
	if h != nil {
		if stats != nil {
			ac.metrics.KernelCacheHits.Add(int64(stats.CacheHits))
			ac.metrics.KernelCacheMisses.Add(int64(stats.CacheMisses))
			if stats.Capped {
				ac.metrics.CappedFits.Inc()
			}
		}
		nsv, _ := m.(interface{ NumSV() int })
		h.record(retrainRecordOf(version, len(req.x), ac.LastCVScore(), elapsed, nsv, stats))
	}
	return nil
}

// Retrain fits the SVM on the full training set now, regardless of
// batch accounting. The middlebox calls this when it detects drastic
// network changes (Section 4.3).
func (ac *AdmittanceClassifier) Retrain() error {
	ac.mu.Lock()
	x, y, keys := ac.datasetLocked()
	ac.mu.Unlock()
	return ac.fit(&fitRequest{x: x, y: y, keys: keys})
}

// Maintain performs the deferred training work marked pending by
// Observe under Config.DeferRetrain: the bootstrap cross-validation
// and graduation, or an online batch refit, whichever the phase calls
// for. It is the entry point for the per-cell background retrainer and
// a no-op when nothing is pending. Bursts of observations coalesce
// into one fit: however many batch boundaries passed since the last
// call, Maintain trains once on everything seen so far.
func (ac *AdmittanceClassifier) Maintain() error {
	ac.mu.Lock()
	if !ac.retrainPending {
		ac.mu.Unlock()
		return nil
	}
	ac.retrainPending = false
	var req *fitRequest
	if ac.state.Load().bootstrap {
		req = ac.crossValidateLocked()
	} else {
		x, y, keys := ac.datasetLocked()
		req = &fitRequest{x: x, y: y, keys: keys}
	}
	ac.mu.Unlock()
	if req == nil {
		return nil
	}
	return ac.fit(req)
}

// Decide implements Controller. During bootstrap every flow is
// admitted (the paper's ExBox performs no admission control until the
// classifier graduates); online, the SVM's sign decides and the margin
// reports depth inside the region. Decide is lock-free: it reads the
// last published model snapshot, so admission never waits on training.
// It is DecideBatch of one arrival on a pooled Scratch, allocation-free.
func (ac *AdmittanceClassifier) Decide(a excr.Arrival) Decision {
	s := scratchPool.Get().(*Scratch)
	// The one-element arrival slice stays on the stack: scoreBatch only
	// reads it.
	d := ac.scoreBatch(ac.state.Load(), s.one[:0], []excr.Arrival{a}, s)[0]
	ac.recordDecision(d, s.bad[0])
	scratchPool.Put(s)
	return d
}

// DecideBatch scores every arrival against one model snapshot — the
// consistency the Reevaluate sweep and SelectNetwork fan-out need: a
// concurrent refit cannot change the boundary mid-batch. Decisions are
// written into dst (grown when too small) and returned. With a
// caller-owned Scratch the batch is allocation-free; every decision is
// recorded (recordDecision).
func (ac *AdmittanceClassifier) DecideBatch(dst []Decision, arrivals []excr.Arrival, s *Scratch) []Decision {
	if len(arrivals) == 0 {
		return dst[:0]
	}
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	dst = ac.scoreBatch(ac.state.Load(), dst, arrivals, s)
	for i, d := range dst {
		ac.recordDecision(d, s.bad[i])
	}
	return dst
}

// DecideBurst decides a burst of sequential arrivals from one ingest
// path, reproducing the per-packet matrix dynamics: arrival k is
// decided on base plus every earlier arrival of the burst that was
// admitted and lies inside the space (an out-of-space arrival is
// decided but never joins the matrix). The caller sets Class and Level
// of each arrivals[k]; DecideBurst fills in the Matrix it was decided
// on. Decisions are written into dst (grown when too small) and
// returned.
//
// The whole burst reads one model snapshot, so a concurrent refit
// cannot change the boundary mid-burst. Within one snapshot a decision
// is a function of (matrix, class, level) alone, and the matrix only
// moves at an in-space admit; so each distinct (class, level) of a
// segment between two such admits is scored once and its decision
// reused for the segment's repeats — an overloaded cell, where every
// arrival is rejected, scores at most Space.Dim() in-space tuples a
// burst. Every arrival's decision is still recorded (recordDecision),
// exactly as DecideBatch of one per arrival would. A burst allocates
// one matrix per in-space admit that is not its last arrival; with a
// caller-owned Scratch it allocates nothing else.
func (ac *AdmittanceClassifier) DecideBurst(dst []Decision, arrivals []excr.Arrival, base excr.Matrix, s *Scratch) []Decision {
	n := len(arrivals)
	if cap(dst) < n {
		dst = make([]Decision, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	st := ac.state.Load()
	// grew: the previous arrival was admitted and joins the matrix. The
	// copy is made only when another arrival follows, so a burst of one
	// allocates nothing. seen holds the current segment's distinct
	// tuples; a segment rarely has more than a handful (in-space tuples
	// are bounded by Space.Dim()), so a linear scan beats a map.
	mat, grew := base, false
	seen := s.seen[:0]
	for k := range arrivals {
		a := &arrivals[k]
		if grew {
			mat = mat.Inc(arrivals[k-1].Class, arrivals[k-1].Level)
			seen = seen[:0]
		}
		a.Matrix = mat
		i := 0
		for i < len(seen) && (seen[i].class != a.Class || seen[i].level != a.Level) {
			i++
		}
		if i == len(seen) {
			d := ac.scoreBatch(st, s.one[:0], arrivals[k:k+1], s)[0]
			seen = append(seen, seenTuple{class: a.Class, level: a.Level, d: d, bad: s.bad[0]})
		}
		dst[k] = seen[i].d
		ac.recordDecision(seen[i].d, seen[i].bad)
		grew = dst[k].Admit && int(a.Class) >= 0 && int(a.Class) < ac.space.Classes &&
			int(a.Level) >= 0 && int(a.Level) < ac.space.Levels
	}
	s.seen = seen
	return dst
}

// recordDecision is the one place a decision reaches telemetry: the
// verdict counter, margin histogram and health sample (or the
// bootstrap/bad-feature counters). bad is scoreBatch's mark for the row
// d came from. Decide, DecideBatch and DecideBurst call it for every
// decision they return.
func (ac *AdmittanceClassifier) recordDecision(d Decision, bad bool) {
	if d.Bootstrap {
		ac.metrics.BootstrapDecisions.Inc()
		ac.metrics.Admits.Inc()
		return
	}
	if bad {
		ac.metrics.BadFeatures.Inc()
		ac.metrics.Rejects.Inc()
		return
	}
	ac.metrics.Margin.Observe(d.Margin)
	if h := ac.health.Load(); h != nil {
		h.observeMargin(d.Margin)
	}
	if d.Admit {
		ac.metrics.Admits.Inc()
	} else {
		ac.metrics.Rejects.Inc()
	}
}

// scoreBatch is the scoring core of Decide, DecideBatch and
// DecideBurst, and the only place that selects the scoring tier and
// applies the feature-boundary guards: extract features into the
// scratch slab, score the whole batch against the caller's model
// snapshot st, and write the decisions — recording no telemetry.
// s.bad[i] marks rows forced to reject at the feature boundary
// (including NaN margins). Caller guarantees n > 0 and s != nil.
func (ac *AdmittanceClassifier) scoreBatch(st *modelSnapshot, dst []Decision, arrivals []excr.Arrival, s *Scratch) []Decision {
	n := len(arrivals)
	if cap(dst) < n {
		dst = make([]Decision, n)
	}
	dst = dst[:n]
	if cap(s.bad) < n {
		s.bad = make([]bool, n)
	}
	bad := s.bad[:n]
	if st.bootstrap || st.model == nil {
		for i := range dst {
			dst[i] = Decision{Admit: true, Bootstrap: true}
			bad[i] = false
		}
		return dst
	}
	fd := excr.FeatureDim(ac.space)
	if cap(s.slab) < n*fd {
		s.slab = make([]float64, n*fd)
	}
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	rows := s.rows[:n]
	for i, a := range arrivals {
		rows[i] = a.FeaturesInto(s.slab[i*fd : i*fd : (i+1)*fd])
		if bad[i] = !mathx.AllFinite(rows[i]); bad[i] {
			// Zero the row so the scoring pass stays finite; the verdict
			// for this row is forced to reject below.
			for j := range rows[i] {
				rows[i][j] = 0
			}
		}
	}
	if cap(s.score) < n {
		s.score = make([]float64, n)
	}
	scores := s.score[:n]
	if st.approx != nil && !ac.rffDemoted.Load() {
		for i, row := range rows {
			scores[i] = st.approx.DecisionApprox(row)
		}
	} else if st.fast != nil {
		if need := st.fast.BatchScratch(n); cap(s.batch) < need {
			s.batch = make([]float64, need)
		}
		scores = st.fast.DecisionBatch(scores, rows, s.batch[:cap(s.batch)])
	} else {
		for i, row := range rows {
			scores[i] = st.model.Decision(row)
		}
	}
	for i, margin := range scores {
		if bad[i] || margin != margin {
			bad[i] = true // NaN margin from a finite row counts as bad
			dst[i] = Decision{Model: st.version}
			continue
		}
		dst[i] = Decision{Admit: margin >= 0, Margin: margin, Depth: depthOf(margin, st.calibration), Model: st.version}
	}
	return dst
}

// depthOf normalizes a margin by the snapshot's calibration. A zero
// (or negative) calibration — the all-training-points-on-boundary
// degenerate fit — yields Depth 0 instead of NaN/±Inf, which would
// otherwise poison network-selection ordering.
func depthOf(margin, calibration float64) float64 {
	if calibration > 0 {
		return margin / calibration
	}
	return 0
}

// ForceOnline ends the bootstrap phase immediately if a model can be
// trained, returning ErrNotReady otherwise. Experiments use it when
// they pre-train from an initial dataset (e.g. the 10% bootstrap sets
// of Figures 11, 13, 14).
func (ac *AdmittanceClassifier) ForceOnline() error {
	ac.mu.Lock()
	x, y, keys := ac.datasetLocked()
	ac.mu.Unlock()
	return ac.fit(&fitRequest{x: x, y: y, keys: keys, graduate: true})
}
