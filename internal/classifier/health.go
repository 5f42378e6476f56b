package classifier

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exbox/internal/excr"
	"exbox/internal/obs"
	"exbox/internal/svm"
)

// HealthConfig tunes the classifier's model-health monitor
// (EnableHealth). The zero value is usable: every field has a
// default.
type HealthConfig struct {
	// History is how many retrain records are kept (default 64).
	History int
	// DriftWindow is how many decision margins make one drift window.
	// The first completed window after the classifier goes online
	// becomes the frozen reference distribution; every later window is
	// compared against it with a smoothed PSI (default 256).
	DriftWindow int
	// AgreementAlpha is the EWMA step for the online agreement score —
	// how often the current model's prediction for an incoming labeled
	// sample matches its label (default 0.02, ≈ a 50-sample horizon).
	AgreementAlpha float64
	// RFFAgreementMin is the oracle gate for the approximate scoring
	// tier: when the EWMA of RFF-vs-exact sign agreement (same alpha as
	// AgreementAlpha) drops below this threshold, the classifier is
	// demoted to exact scoring until the next fit publishes a fresh
	// tier (default 0.9).
	RFFAgreementMin float64
	// RFFMinSamples is how many oracle comparisons must accumulate
	// before the gate may demote, so a couple of early disagreements
	// can't condemn a tier (default 32).
	RFFMinSamples int
}

// DefaultHealthConfig returns the defaults described on HealthConfig.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{History: 64, DriftWindow: 256, AgreementAlpha: 0.02,
		RFFAgreementMin: 0.9, RFFMinSamples: 32}
}

func (c HealthConfig) withDefaults() HealthConfig {
	d := DefaultHealthConfig()
	if c.History <= 0 {
		c.History = d.History
	}
	if c.DriftWindow <= 1 {
		c.DriftWindow = d.DriftWindow
	}
	if c.AgreementAlpha <= 0 || c.AgreementAlpha > 1 {
		c.AgreementAlpha = d.AgreementAlpha
	}
	if c.RFFAgreementMin <= 0 || c.RFFAgreementMin > 1 {
		c.RFFAgreementMin = d.RFFAgreementMin
	}
	if c.RFFMinSamples <= 0 {
		c.RFFMinSamples = d.RFFMinSamples
	}
	return c
}

// RetrainRecord is the health monitor's account of one published fit:
// what model version it produced, what it cost, and — when the learner
// exposes solver accounting — where the solve time went.
type RetrainRecord struct {
	// Version is the model version the fit published (monotonic per
	// classifier; decisions carry it as Decision.Model).
	Version   uint64 `json:"version"`
	UnixNanos int64  `json:"unix_nanos"`
	// Warm reports whether the solver was seeded from the previous
	// fit's state.
	Warm bool `json:"warm"`
	// TrainingSize is the number of rows fitted; SupportVectors how
	// many the published model retained.
	TrainingSize   int `json:"training_size"`
	SupportVectors int `json:"support_vectors"`
	// CVScore is the most recent bootstrap cross-validation accuracy
	// at the time of the fit (0 before the first check).
	CVScore float64 `json:"cv_score"`
	// Seconds is the wall time of the whole fit, training plus depth
	// calibration.
	Seconds float64 `json:"seconds"`
	// Solve is the solver's account of the fit: seeding and kernel
	// time, cache hits, pair updates, rows shrunk, warm vs cold, and the
	// violation gap it ended on with whether that was MaxIter's doing
	// (Capped) rather than convergence; nil for learners without solver
	// accounting (the decision tree ablation).
	Solve *svm.SolveStats `json:"solve,omitempty"`
}

// HealthSnapshot is the exported state of the model-health monitor.
type HealthSnapshot struct {
	ModelVersion uint64  `json:"model_version"`
	Retrains     int     `json:"retrains"`
	LastCV       float64 `json:"last_cv"`
	// Drift is the latest windowed PSI of the decision-margin
	// distribution against the post-graduation reference window; valid
	// once DriftReady (one reference window plus one comparison window
	// completed).
	Drift        float64 `json:"drift_psi"`
	DriftReady   bool    `json:"drift_ready"`
	DriftWindows int64   `json:"drift_windows"`
	// Agreement is the EWMA of "did the current model agree with the
	// incoming ground-truth label" over the last ~1/alpha samples.
	Agreement        float64 `json:"agreement"`
	AgreementSamples int     `json:"agreement_samples"`
	// RFF tier state: RFFActive means the published model carries an
	// approximate scoring tier and it is currently serving decisions;
	// RFFDemoted means the oracle gate flipped scoring back to the
	// exact slab. RFFAgreement/RFFSamples expose the gate's EWMA of
	// approximate-vs-exact sign agreement for the current model.
	RFFActive    bool    `json:"rff_active"`
	RFFDemoted   bool    `json:"rff_demoted"`
	RFFAgreement float64 `json:"rff_agreement"`
	RFFSamples   int     `json:"rff_samples"`
	// History is the retained retrain records, oldest first.
	History []RetrainRecord `json:"history"`
}

// modelHealth is the monitor's state. The margin-drift counters are
// the only part touched by the decision hot path, and they are one
// binary search plus two atomic adds — no lock, no allocation (the
// window-rotation buffers are preallocated).
type modelHealth struct {
	cfg HealthConfig

	mu      sync.Mutex
	records []RetrainRecord // ring once len reaches cfg.History
	next    int             // ring cursor (oldest record when full)
	total   int

	// Online agreement EWMA, updated under mu from Observe (which is
	// already serialized by the classifier's training lock).
	agree  float64
	agreeN int
	feat   []float64
	z      []float64

	// RFF oracle gate: EWMA of approximate-vs-exact sign agreement for
	// the currently published tier, reset on every fit. Under mu.
	rffAgree float64
	rffN     int

	// Margin drift. cur accumulates the running window lock-free; when
	// curN reaches the window size the counts swap into swap (under
	// rotateMu) and become either the frozen reference or one PSI
	// comparison.
	bounds   []float64
	cur      []atomic.Int64 // len(bounds)+1, last is overflow
	curN     atomic.Int64
	rotateMu sync.Mutex
	swap     []int64
	ref      []int64
	refN     int64
	refSet   atomic.Bool
	psiBits  atomic.Uint64
	psiSet   atomic.Bool
	windows  atomic.Int64
}

// marginBounds is the fixed binning for drift windows: log-spaced and
// mirrored around zero, like the margin histograms, because the
// interesting movement is near the boundary.
func marginBounds() []float64 {
	return obs.SignedExpBuckets(0.01, 2, 10) // ±[0.01 .. 5.12] and 0
}

func newModelHealth(cfg HealthConfig) *modelHealth {
	cfg = cfg.withDefaults()
	bounds := marginBounds()
	return &modelHealth{
		cfg:    cfg,
		bounds: bounds,
		cur:    make([]atomic.Int64, len(bounds)+1),
		swap:   make([]int64, len(bounds)+1),
		ref:    make([]int64, len(bounds)+1),
	}
}

// EnableHealth turns on model-health monitoring: per-retrain records,
// margin-distribution drift and the online agreement score, surfaced
// through HealthSnapshot (and the middlebox's /debug/health verdict).
// The first call wins; later calls (for example a re-instrumented
// middlebox) keep the monitor and its accumulated reference window.
func (ac *AdmittanceClassifier) EnableHealth(cfg HealthConfig) {
	ac.health.CompareAndSwap(nil, newModelHealth(cfg))
}

// HealthEnabled reports whether EnableHealth has been called.
func (ac *AdmittanceClassifier) HealthEnabled() bool { return ac.health.Load() != nil }

// ModelVersion returns the version of the currently published model
// (0 while bootstrapping: no model has been fit).
func (ac *AdmittanceClassifier) ModelVersion() uint64 { return ac.state.Load().version }

// HealthSnapshot returns the monitor's current state; ok is false when
// EnableHealth was never called.
func (ac *AdmittanceClassifier) HealthSnapshot() (HealthSnapshot, bool) {
	h := ac.health.Load()
	if h == nil {
		return HealthSnapshot{}, false
	}
	snap := HealthSnapshot{
		ModelVersion: ac.ModelVersion(),
		LastCV:       ac.LastCVScore(),
		Drift:        math.Float64frombits(h.psiBits.Load()),
		DriftReady:   h.psiSet.Load(),
		DriftWindows: h.windows.Load(),
	}
	st := ac.state.Load()
	snap.RFFDemoted = ac.rffDemoted.Load()
	snap.RFFActive = st.approx != nil && !snap.RFFDemoted
	h.mu.Lock()
	snap.Retrains = h.total
	snap.Agreement = h.agree
	snap.AgreementSamples = h.agreeN
	snap.RFFAgreement = h.rffAgree
	snap.RFFSamples = h.rffN
	if len(h.records) < h.cfg.History {
		snap.History = append([]RetrainRecord(nil), h.records...)
	} else {
		snap.History = make([]RetrainRecord, 0, len(h.records))
		snap.History = append(snap.History, h.records[h.next:]...)
		snap.History = append(snap.History, h.records[:h.next]...)
	}
	h.mu.Unlock()
	return snap, true
}

// observeMargin folds one decision margin into the running drift
// window: one binary search, two atomic adds, and — once per window —
// a rotation over preallocated buffers. Allocation-free.
func (h *modelHealth) observeMargin(m float64) {
	i := sort.SearchFloat64s(h.bounds, m)
	h.cur[i].Add(1)
	if h.curN.Add(1) == int64(h.cfg.DriftWindow) {
		h.rotate()
	}
}

// rotate closes the current window: the first completed window becomes
// the frozen post-graduation reference, every later one produces a PSI
// against it. Concurrent decisions keep counting into cur while the
// swap runs; the handful that land mid-swap smear into the next
// window, which is fine for a drift statistic.
func (h *modelHealth) rotate() {
	h.rotateMu.Lock()
	defer h.rotateMu.Unlock()
	var total int64
	for i := range h.cur {
		h.swap[i] = h.cur[i].Swap(0)
		total += h.swap[i]
	}
	h.curN.Store(0)
	if !h.refSet.Load() {
		copy(h.ref, h.swap)
		h.refN = total
		h.refSet.Store(true)
		return
	}
	h.psiBits.Store(math.Float64bits(psiOf(h.ref, h.refN, h.swap, total)))
	h.psiSet.Store(true)
	h.windows.Add(1)
}

// psiOf is the population-stability index between two binned
// distributions, with +0.5 Laplace smoothing per bin so empty bins
// (routine at these window sizes) don't blow the logarithm up.
func psiOf(ref []int64, refN int64, cur []int64, curN int64) float64 {
	if refN == 0 || curN == 0 {
		return 0
	}
	k := 0.5 * float64(len(ref))
	var sum float64
	for i := range ref {
		p := (float64(ref[i]) + 0.5) / (float64(refN) + k)
		q := (float64(cur[i]) + 0.5) / (float64(curN) + k)
		sum += (q - p) * math.Log(q/p)
	}
	return sum
}

// record appends one retrain record to the bounded history.
func (h *modelHealth) record(rec RetrainRecord) {
	h.mu.Lock()
	if len(h.records) < h.cfg.History {
		h.records = append(h.records, rec)
	} else {
		h.records[h.next] = rec
		h.next = (h.next + 1) % h.cfg.History
	}
	h.total++
	h.mu.Unlock()
}

// observeSample scores an incoming ground-truth sample against the
// currently published model and folds the agreement into the EWMA:
// a live accuracy estimate that needs no extra labels. Called from
// Observe (serialized by the training lock), never from Decide.
func (ac *AdmittanceClassifier) healthObserveSample(h *modelHealth, s excr.Sample) {
	st := ac.state.Load()
	if st.bootstrap || st.model == nil {
		return
	}
	h.mu.Lock()
	h.feat = s.Arrival.FeaturesInto(h.feat)
	var margin float64
	if st.fast != nil {
		if need := st.fast.Dim(); cap(h.z) < need {
			h.z = make([]float64, need)
		}
		margin = st.fast.DecisionInto(h.z[:cap(h.z)], h.feat)
	} else {
		margin = st.model.Decision(h.feat)
	}
	agree := 0.0
	if (margin >= 0) == (s.Label == 1) {
		agree = 1
	}
	if h.agreeN == 0 {
		h.agree = agree
	} else {
		h.agree += h.cfg.AgreementAlpha * (agree - h.agree)
	}
	h.agreeN++
	// Oracle gate for the approximate tier: the exact margin just
	// computed above is the oracle, one extra DecisionApprox per
	// labeled sample is the gate's whole cost. Demotion flips the
	// classifier's lock-free rffDemoted flag, which the decision paths
	// read; it stays set until the next fit publishes a fresh tier.
	if st.approx != nil && !ac.rffDemoted.Load() {
		am := st.approx.DecisionApprox(h.feat)
		ok := 0.0
		if (am >= 0) == (margin >= 0) {
			ok = 1
		}
		if h.rffN == 0 {
			h.rffAgree = ok
		} else {
			h.rffAgree += h.cfg.AgreementAlpha * (ok - h.rffAgree)
		}
		h.rffN++
		if h.rffN >= h.cfg.RFFMinSamples && h.rffAgree < h.cfg.RFFAgreementMin {
			if !ac.rffDemoted.Swap(true) {
				ac.metrics.RFFDemotions.Inc()
			}
		}
	}
	h.mu.Unlock()
}

// resetRFF starts the oracle gate's agreement EWMA over; the fit path
// calls it when publishing a new model so a stale tier's score cannot
// condemn (or excuse) its successor.
func (h *modelHealth) resetRFF() {
	h.mu.Lock()
	h.rffAgree = 0
	h.rffN = 0
	h.mu.Unlock()
}

// retrainRecordOf assembles the health record for a published fit.
func retrainRecordOf(version uint64, rows int, cv, seconds float64, m interface{ NumSV() int }, stats *svm.SolveStats) RetrainRecord {
	rec := RetrainRecord{
		Version:      version,
		UnixNanos:    time.Now().UnixNano(),
		TrainingSize: rows,
		CVScore:      cv,
		Seconds:      seconds,
		Solve:        stats,
	}
	if stats != nil {
		rec.Warm = stats.Warm
	}
	if m != nil {
		rec.SupportVectors = m.NumSV()
	}
	return rec
}
