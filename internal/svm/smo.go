package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config holds the SVM hyperparameters. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Kernel selects Linear or RBF.
	Kernel KernelKind
	// C is the soft-margin penalty. Larger C fits the training data
	// harder.
	C float64
	// Gamma is the RBF kernel width (ignored for Linear). When 0 it
	// defaults to 1/dim at training time, the usual libsvm default.
	Gamma float64
	// Tol is the KKT violation tolerance used by SMO.
	Tol float64
	// Eps is the minimum alpha step considered progress.
	Eps float64
	// MaxPasses bounds full sweeps over the training set without
	// progress before SMO gives up and returns the current model.
	MaxPasses int
	// MaxIter is a hard ceiling on examine steps, a safety valve
	// against pathological data. 0 means a generous default.
	MaxIter int
	// CacheRows bounds the kernel-row LRU cache used when the training
	// set is too large for a full kernel matrix (see
	// kernelCacheLimit). 0 means 512 rows.
	CacheRows int
	// RFF enables the budget-constrained RBF inference tier: a random
	// Fourier feature linearization with a ridge-refit readout, built
	// at model construction (see rff.go), scoring through DecisionRFF.
	// Ignored for the linear kernel, which is already one dot product.
	RFF bool
	// RFFDim is the RFF dictionary size D (cos/sin pairs count as two).
	// 0 means 256.
	RFFDim int
	// PruneTol drops support vectors whose dual variable ended at or
	// below the tolerance after the solve (reduced-set selection): their
	// kernel terms contribute ~α·1 each, so pruning trades a bounded
	// decision-value perturbation for a shorter slab walk. The dual
	// equality Σ αᵢyᵢ = 0 is repaired by scaling down the heavier
	// class, the same repair warm seeding applies. 0 (the default)
	// disables pruning and keeps fits bit-identical to earlier
	// versions; SolveStats.Pruned reports how many were dropped.
	PruneTol float64
}

// DefaultConfig returns the configuration used by the ExBox
// Admittance Classifier: an RBF kernel with a moderate penalty, chosen
// because the ExCR boundary is curved in traffic-matrix space.
func DefaultConfig() Config {
	return Config{
		Kernel:    RBF,
		C:         10,
		Gamma:     0, // 1/dim at train time
		Tol:       1e-3,
		Eps:       1e-5,
		MaxPasses: 5,
	}
}

// ErrOneClass is returned by Train when the labels contain only one
// class; no separating boundary exists to learn. The Admittance
// Classifier treats this as "keep bootstrapping".
var ErrOneClass = errors.New("svm: training data contains a single class")

// Model is a trained SVM. Models are immutable after training and safe
// for concurrent use. The representation is the inference fast path
// built by buildModel (see predict.go): everything that can be
// precomputed — the kernel closure, the feature standardization, the
// support-vector layout — is folded in at construction so scoring is
// fused arithmetic over contiguous memory.
type Model struct {
	cfg    Config
	gamma  float64
	scaler *Scaler
	dim    int

	svCoef []float64 // alpha_i * y_i per retained support vector
	b      float64

	// Linear kernel: collapsed weights in standardized space (wLinear,
	// kept for the reference path) and their scaler-folded counterpart
	// over raw features (wFold, bFold) the fast path uses.
	wLinear []float64
	wFold   []float64
	bFold   float64

	// RBF kernel: standardized support vectors packed row-major with
	// stride dim, plus their precomputed squared norms.
	svSlab []float64
	svNorm []float64

	// rff is the optional budget-constrained inference tier
	// (Config.RFF; see rff.go), nil when disabled or when its readout
	// fit failed.
	rff *rffModel
}

// Train fits a soft-margin SVM on rows x with labels y in {-1,+1}.
// Features are standardized internally; the returned model applies the
// same standardization at prediction time.
func Train(cfg Config, x [][]float64, y []float64) (*Model, error) {
	m, _, err := Solve(cfg, x, y, nil)
	return m, err
}

// WarmState carries the solver state of one fit so the next fit over a
// grown dataset can start from it instead of from zero. States are
// value snapshots: Solve never mutates a state it was given.
type WarmState struct {
	// Alpha holds the dual variables, aligned to the rows of the fit
	// that produced the state. Callers that reorder or evict training
	// rows between fits should re-align the values and install them
	// with Remap; unmatched rows simply start at 0.
	Alpha []float64

	b      float64 // threshold at the seed's optimum (Platt convention)
	scaler *Scaler // frozen feature standardization of the seed fit
	n      int     // training rows when the scaler was fitted
	age    int     // consecutive warm reuses of the frozen scaler
}

// Remap returns a copy of the state with the dual variables replaced
// by alpha — the caller's re-alignment of the previous values to a new
// row order — keeping the frozen scaler and threshold.
func (w *WarmState) Remap(alpha []float64) *WarmState {
	c := *w
	c.Alpha = alpha
	return &c
}

// maxWarmAge bounds how many consecutive fits may reuse one frozen
// scaler before a cold refit re-standardizes: the warm path trades a
// slightly stale standardization for an exactly-optimal seed, and the
// periodic refresh stops the staleness from compounding as the
// feature distribution drifts.
const maxWarmAge = 64

// Usable reports whether the state can seed a fit of n rows of the
// given dimension: the scaler must match the features, the dataset
// must not have changed size by more than ~25% since the scaler was
// fitted, and the scaler must not have been reused too many times.
func (w *WarmState) Usable(n, dim int) bool {
	return w != nil && len(w.Alpha) > 0 && w.scaler != nil &&
		len(w.scaler.Mean) == dim && w.age < maxWarmAge &&
		4*n >= 3*w.n && 4*n <= 5*w.n
}

// Solve fits like Train and additionally accepts and returns solver
// state, enabling warm-started incremental retraining: pass the state
// returned by a previous Solve over a prefix of the current rows (new
// rows implicitly start at α = 0) and SMO starts from that
// near-optimal point instead of from zero, which is what makes ExBox's
// after-every-batch refits cheap. A usable warm state also freezes the
// seed fit's feature standardization, so the kernel geometry of the
// shared rows is unchanged and the seed is exactly optimal for them;
// the standardization is refreshed by a cold fit when the dataset has
// grown past the state's horizon or the state has been reused
// maxWarmAge times.
//
// The seed is advisory. Its alphas may be shorter than x (extra rows
// start cold), they are clipped to [0, C], and the dual equality
// constraint Σ αᵢyᵢ = 0 is repaired by scaling down the heavier side,
// so a seed re-aligned from a slightly different dataset (rows
// evicted, labels replaced) still yields a feasible start. The seed
// must come from a fit with the same kernel, C and gamma to be a
// useful starting point; the solver converges to the optimum either
// way.
func Solve(cfg Config, x [][]float64, y []float64, warm *WarmState) (*Model, *WarmState, error) {
	return SolveDetailed(cfg, x, y, warm, nil)
}

// SolveDetailed is Solve with per-phase accounting: when stats is
// non-nil it is overwritten with the counters and timings of this fit.
// The solve itself is bit-identical either way — the counters are
// plain increments and the timers wrap whole phases, so passing nil
// (what Solve does) keeps the hot loops free of clock calls.
func SolveDetailed(cfg Config, x [][]float64, y []float64, warm *WarmState, stats *SolveStats) (*Model, *WarmState, error) {
	if stats != nil {
		*stats = SolveStats{Rows: len(x)}
		t0 := time.Now()
		defer func() { stats.TotalSeconds = time.Since(t0).Seconds() }()
	}
	if len(x) == 0 {
		return nil, nil, errors.New("svm: no training data")
	}
	if len(x) != len(y) {
		return nil, nil, fmt.Errorf("svm: %d rows but %d labels", len(x), len(y))
	}
	if cfg.C <= 0 {
		return nil, nil, errors.New("svm: C must be positive")
	}
	dim := len(x[0])
	var pos, neg int
	for i, yi := range y {
		if len(x[i]) != dim {
			return nil, nil, fmt.Errorf("svm: row %d has dim %d, want %d", i, len(x[i]), dim)
		}
		switch yi {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, nil, fmt.Errorf("svm: label %v at row %d, want +1 or -1", yi, i)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, nil, ErrOneClass
	}

	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 1 / float64(dim)
	}
	useWarm := warm.Usable(len(x), dim)
	var tInit time.Time
	if stats != nil {
		stats.Warm = useWarm
		tInit = time.Now()
	}
	var scaler *Scaler
	if useWarm {
		scaler = warm.scaler
	} else {
		scaler = FitScaler(x)
	}
	xs := scaler.TransformAll(x)

	tr := newTrainer(cfg, gamma, xs, y)
	tr.stats = stats
	if useWarm {
		tr.initWarm(warm)
	}
	if stats != nil {
		stats.InitSeconds = time.Since(tInit).Seconds()
	}
	tr.solve()

	if cfg.PruneTol > 0 {
		if pruned := pruneAlpha(tr.alpha, y, cfg.PruneTol, cfg.C); pruned > 0 && stats != nil {
			stats.Pruned = pruned
		}
	}

	// The trainer follows Platt's convention u(x) = Σ αᵢyᵢK(xᵢ,x) − b;
	// the model stores the negated threshold so Decision can add it.
	m := buildModel(cfg, gamma, scaler, xs, y, tr.alpha, -tr.b)
	next := &WarmState{
		Alpha:  append([]float64(nil), tr.alpha...),
		b:      tr.b,
		scaler: scaler,
		n:      len(x),
		age:    0,
	}
	if useWarm {
		next.n = warm.n // the scaler's horizon, not this fit's size
		next.age = warm.age + 1
	}
	return m, next, nil
}

// trainer holds the SMO working state.
type trainer struct {
	cfg   Config
	gamma float64
	x     [][]float64
	y     []float64
	n     int

	alpha []float64
	b     float64
	errs  []float64 // E_i = f(x_i) - y_i, maintained incrementally

	// active marks the solver's working set. Bound examples whose KKT
	// condition holds with margin are shrunk out of the sweeps (and the
	// error-update loop) and re-checked once at the end.
	active  []bool
	nActive int

	kern  func(a, b []float64) float64
	kdiag []float64
	// Full kernel matrix when n is small enough; otherwise rows are
	// computed on demand through kRow with a bounded LRU cache.
	kfull [][]float64
	lru   *rowLRU

	// stats, when non-nil, accumulates the per-phase accounting of
	// SolveDetailed. Every touch is nil-guarded so the plain Solve path
	// pays only untaken branches.
	stats *SolveStats
}

// kernelCacheLimit bounds the n for which a full n×n kernel matrix is
// precomputed (n=3000 → ~72 MB of float64, acceptable).
const kernelCacheLimit = 3000

// shrinkMargin is the multiple of Tol by which a bound example must
// satisfy its KKT condition before shrinking drops it from the working
// set; a conservative margin keeps the final unshrink pass cheap.
const shrinkMargin = 10

func newTrainer(cfg Config, gamma float64, x [][]float64, y []float64) *trainer {
	n := len(x)
	tr := &trainer{
		cfg:     cfg,
		gamma:   gamma,
		x:       x,
		y:       y,
		n:       n,
		alpha:   make([]float64, n),
		errs:    make([]float64, n),
		active:  make([]bool, n),
		nActive: n,
		kern:    kernelFunc(cfg.Kernel, gamma),
		kdiag:   make([]float64, n),
	}
	for i := range tr.errs {
		tr.errs[i] = -y[i] // f = 0 initially
		tr.active[i] = true
	}
	if n <= kernelCacheLimit {
		tr.kfull = make([][]float64, n)
	} else {
		rows := cfg.CacheRows
		if rows <= 0 {
			rows = 512
		}
		tr.lru = newRowLRU(rows)
	}
	for i := 0; i < n; i++ {
		tr.kdiag[i] = tr.kern(x[i], x[i])
	}
	return tr
}

// initWarm seeds the dual variables from a previous fit. The seed is
// clipped to the box [0, C], rebalanced so Σ αᵢyᵢ = 0 holds exactly
// (rows may have been evicted or relabeled since the seed was taken),
// and the error cache is rebuilt from the seeded support vectors and
// the seed's threshold so the first sweep sees a consistent state.
func (tr *trainer) initWarm(warm *WarmState) {
	c := tr.cfg.C
	m := len(warm.Alpha)
	if m > tr.n {
		m = tr.n
	}
	for i := 0; i < m; i++ {
		a := warm.Alpha[i]
		if a < 0 {
			a = 0
		} else if a > c {
			a = c
		}
		tr.alpha[i] = a
	}
	// Repair dual feasibility: scale down whichever class carries the
	// excess so the equality constraint holds before SMO starts (SMO
	// steps preserve it but never restore it).
	var pos, neg float64
	for i, a := range tr.alpha {
		if a == 0 {
			continue
		}
		if tr.y[i] > 0 {
			pos += a
		} else {
			neg += a
		}
	}
	switch s := pos - neg; {
	case s > 0 && pos > 0:
		f := (pos - s) / pos
		for i := range tr.alpha {
			if tr.y[i] > 0 {
				tr.alpha[i] *= f
			}
		}
	case s < 0 && neg > 0:
		f := (neg + s) / neg
		for i := range tr.alpha {
			if tr.y[i] < 0 {
				tr.alpha[i] *= f
			}
		}
	}

	var sv []int
	for i, a := range tr.alpha {
		if a > 1e-12 {
			sv = append(sv, i)
		}
	}
	if len(sv) == 0 {
		return // fully cold after repair: errs are already -y, b = 0
	}
	// The seed's threshold transfers directly: the frozen scaler keeps
	// the kernel geometry of the shared rows identical, so at the seed
	// optimum the same b makes the non-bound errors vanish.
	tr.b = warm.b
	// E_i = Σ_j α_j y_j K(i, j) − b − y_i over the seeded support
	// vectors; this O(n·|SV|) pass is the whole cost of warm-starting.
	for i := 0; i < tr.n; i++ {
		var g float64
		for _, j := range sv {
			g += tr.alpha[j] * tr.y[j] * tr.kern(tr.x[i], tr.x[j])
		}
		tr.errs[i] = g - tr.b - tr.y[i]
	}
}

// pruneAlpha zeroes dual variables at or below tol (Config.PruneTol)
// so buildModel drops their support vectors, then repairs the dual
// equality Σ αᵢyᵢ = 0 by scaling down whichever class carries the
// excess — the same repair initWarm applies to re-aligned seeds, so
// the pruned solution stays a feasible (slightly perturbed) dual
// point and can still seed the next warm fit. Variables at the box
// bound C are never pruned regardless of tol: they are the misfit
// examples, not numerical dust. Returns how many support vectors
// (α > the 1e-12 retention threshold) were dropped.
func pruneAlpha(alpha, y []float64, tol, c float64) int {
	pruned := 0
	for i, a := range alpha {
		if a > 0 && a <= tol && a < c {
			if a > 1e-12 {
				pruned++
			}
			alpha[i] = 0
		}
	}
	if pruned == 0 {
		return 0
	}
	var pos, neg float64
	for i, a := range alpha {
		if a == 0 {
			continue
		}
		if y[i] > 0 {
			pos += a
		} else {
			neg += a
		}
	}
	switch s := pos - neg; {
	case s > 0 && pos > 0:
		f := (pos - s) / pos
		for i := range alpha {
			if y[i] > 0 {
				alpha[i] *= f
			}
		}
	case s < 0 && neg > 0:
		f := (neg + s) / neg
		for i := range alpha {
			if y[i] < 0 {
				alpha[i] *= f
			}
		}
	}
	return pruned
}

// kRow returns row i of the kernel matrix, computing and caching it as
// needed.
func (tr *trainer) kRow(i int) []float64 {
	if tr.kfull != nil {
		if tr.kfull[i] == nil {
			tr.kfull[i] = tr.computeRow(i)
		} else if tr.stats != nil {
			tr.stats.CacheHits++
		}
		return tr.kfull[i]
	}
	if row, ok := tr.lru.Get(i); ok {
		if tr.stats != nil {
			tr.stats.CacheHits++
		}
		return row
	}
	row := tr.computeRow(i)
	tr.lru.Put(i, row)
	return row
}

// computeRow materializes kernel row i, charging the work to the
// kernel phase when accounting is on.
func (tr *trainer) computeRow(i int) []float64 {
	var t0 time.Time
	if tr.stats != nil {
		t0 = time.Now()
	}
	row := make([]float64, tr.n)
	for j := 0; j < tr.n; j++ {
		row[j] = tr.kern(tr.x[i], tr.x[j])
	}
	if tr.stats != nil {
		tr.stats.KernelRows++
		tr.stats.CacheMisses++
		tr.stats.KernelSeconds += time.Since(t0).Seconds()
	}
	return row
}

// solve runs the SMO main loop with working-set shrinking: alternate
// full passes over the active set with passes over its non-bound
// subset until a full pass makes no progress, dropping converged bound
// examples from the sweeps along the way; then restore the shrunk
// examples, rebuild their error terms, and verify the KKT conditions
// globally, resuming (without further shrinking) if the reduced
// problem's solution does not survive the full check.
func (tr *trainer) solve() {
	maxIter := tr.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * tr.n
		if maxIter < 20000 {
			maxIter = 20000
		}
	}
	// Deterministic tie-breaking RNG for the second-choice heuristic
	// fallback; seeded from the problem size so training is
	// reproducible for a given dataset.
	rng := rand.New(rand.NewSource(int64(tr.n)*2654435761 + 1))

	iter := 0
	shrinking := true
	for {
		tr.sweeps(rng, &iter, maxIter, shrinking)
		if iter >= maxIter || tr.nActive == tr.n {
			if tr.stats != nil {
				tr.stats.Iters = iter
			}
			return
		}
		tr.unshrink()
		shrinking = false
	}
}

// sweeps is one convergence run over the current active set: Platt's
// alternation of full and non-bound-only passes until MaxPasses passes
// in a row make no progress.
func (tr *trainer) sweeps(rng *rand.Rand, iter *int, maxIter int, shrinking bool) {
	examineAll := true
	passesWithoutProgress := 0
	for passesWithoutProgress < tr.cfg.maxPasses() && *iter < maxIter {
		changed := 0
		for i := 0; i < tr.n && *iter < maxIter; i++ {
			if !tr.active[i] {
				continue
			}
			if !examineAll && !(tr.alpha[i] > 0 && tr.alpha[i] < tr.cfg.C) {
				continue
			}
			changed += tr.examine(i, rng)
			*iter++
		}
		if examineAll && shrinking {
			tr.shrink()
		}
		if examineAll {
			examineAll = false
		} else if changed == 0 {
			examineAll = true
		}
		if changed == 0 {
			passesWithoutProgress++
		} else {
			passesWithoutProgress = 0
		}
	}
}

// shrink drops bound examples whose KKT condition holds with a
// comfortable margin from the active set: SMO will not pick them again
// until the rest of the working set moves the boundary substantially,
// and the final unshrink pass re-checks them anyway. Their cached
// kernel rows are released so the LRU budget stays on live rows.
func (tr *trainer) shrink() {
	var t0 time.Time
	if tr.stats != nil {
		t0 = time.Now()
		defer func() { tr.stats.ShrinkSeconds += time.Since(t0).Seconds() }()
	}
	tol, c := tr.cfg.Tol, tr.cfg.C
	for i := 0; i < tr.n; i++ {
		if !tr.active[i] {
			continue
		}
		a := tr.alpha[i]
		if a > 0 && a < c {
			continue // non-bound examples always stay active
		}
		r := tr.errs[i] * tr.y[i]
		if (a <= 0 && r > shrinkMargin*tol) || (a >= c && r < -shrinkMargin*tol) {
			tr.active[i] = false
			tr.nActive--
			if tr.stats != nil {
				tr.stats.Shrunk++
			}
			if tr.lru != nil {
				tr.lru.Remove(i)
			}
		}
	}
}

// unshrink reactivates every shrunk example, rebuilding its error term
// exactly from the support vectors (errors of inactive examples go
// stale the moment they are shrunk: the incremental update loop skips
// them on purpose).
func (tr *trainer) unshrink() {
	var t0 time.Time
	if tr.stats != nil {
		t0 = time.Now()
		tr.stats.Unshrinks++
		defer func() { tr.stats.ShrinkSeconds += time.Since(t0).Seconds() }()
	}
	var sv []int
	for i, a := range tr.alpha {
		if a > 1e-12 {
			sv = append(sv, i)
		}
	}
	for i := 0; i < tr.n; i++ {
		if tr.active[i] {
			continue
		}
		var g float64
		for _, j := range sv {
			g += tr.alpha[j] * tr.y[j] * tr.kern(tr.x[i], tr.x[j])
		}
		tr.errs[i] = g - tr.b - tr.y[i]
		tr.active[i] = true
	}
	tr.nActive = tr.n
}

func (c Config) maxPasses() int {
	if c.MaxPasses <= 0 {
		return 2
	}
	return c.MaxPasses
}

// examine applies the KKT check to example i2 and, if violated, picks a
// partner i1 by the second-choice heuristic and attempts a step.
func (tr *trainer) examine(i2 int, rng *rand.Rand) int {
	y2 := tr.y[i2]
	a2 := tr.alpha[i2]
	e2 := tr.errs[i2]
	r2 := e2 * y2
	tol, c := tr.cfg.Tol, tr.cfg.C

	if (r2 < -tol && a2 < c) || (r2 > tol && a2 > 0) {
		// Heuristic 1: maximize |E1 - E2| over active non-bound alphas.
		best, bestGap := -1, -1.0
		for i := 0; i < tr.n; i++ {
			if tr.active[i] && tr.alpha[i] > 0 && tr.alpha[i] < c {
				gap := math.Abs(tr.errs[i] - e2)
				if gap > bestGap {
					bestGap, best = gap, i
				}
			}
		}
		if best >= 0 && tr.takeStep(best, i2) {
			return 1
		}
		// Heuristic 2: loop over active non-bound from a random start.
		start := rng.Intn(tr.n)
		for k := 0; k < tr.n; k++ {
			i1 := (start + k) % tr.n
			if tr.active[i1] && tr.alpha[i1] > 0 && tr.alpha[i1] < c {
				if tr.takeStep(i1, i2) {
					return 1
				}
			}
		}
		// Heuristic 3: loop over the whole active set.
		start = rng.Intn(tr.n)
		for k := 0; k < tr.n; k++ {
			i1 := (start + k) % tr.n
			if tr.active[i1] && tr.takeStep(i1, i2) {
				return 1
			}
		}
	}
	return 0
}

// takeStep jointly optimizes alpha[i1], alpha[i2]. Returns true when a
// meaningful update happened.
func (tr *trainer) takeStep(i1, i2 int) bool {
	if i1 == i2 {
		return false
	}
	a1, a2 := tr.alpha[i1], tr.alpha[i2]
	y1, y2 := tr.y[i1], tr.y[i2]
	e1, e2 := tr.errs[i1], tr.errs[i2]
	s := y1 * y2
	c := tr.cfg.C

	var lo, hi float64
	if s < 0 {
		lo = math.Max(0, a2-a1)
		hi = math.Min(c, c+a2-a1)
	} else {
		lo = math.Max(0, a1+a2-c)
		hi = math.Min(c, a1+a2)
	}
	if lo >= hi {
		return false
	}

	// Only the scalar K(i1,i2) is needed to evaluate the step; full
	// kernel rows are fetched after the step is accepted, so the many
	// rejected takeStep attempts of the second-choice heuristics cost
	// one kernel evaluation instead of a whole row.
	k11 := tr.kdiag[i1]
	k22 := tr.kdiag[i2]
	k12 := tr.kernAt(i1, i2)
	eta := k11 + k22 - 2*k12

	var a2new float64
	if eta > 0 {
		a2new = a2 + y2*(e1-e2)/eta
		if a2new < lo {
			a2new = lo
		} else if a2new > hi {
			a2new = hi
		}
	} else {
		// Degenerate curvature: evaluate the objective at both clip
		// ends and move to the better one.
		f1 := y1*e1 - a1*k11 - s*a2*k12
		f2 := y2*e2 - a2*k22 - s*a1*k12
		l1 := a1 + s*(a2-lo)
		h1 := a1 + s*(a2-hi)
		objLo := l1*f1 + lo*f2 + 0.5*l1*l1*k11 + 0.5*lo*lo*k22 + s*lo*l1*k12
		objHi := h1*f1 + hi*f2 + 0.5*h1*h1*k11 + 0.5*hi*hi*k22 + s*hi*h1*k12
		switch {
		case objLo < objHi-tr.cfg.Eps:
			a2new = lo
		case objLo > objHi+tr.cfg.Eps:
			a2new = hi
		default:
			a2new = a2
		}
	}
	if math.Abs(a2new-a2) < tr.cfg.Eps*(a2new+a2+tr.cfg.Eps) {
		return false
	}
	a1new := a1 + s*(a2-a2new)
	if a1new < 0 {
		a2new += s * a1new
		a1new = 0
	} else if a1new > c {
		a2new += s * (a1new - c)
		a1new = c
	}

	// Threshold update (Platt eq. 20-22).
	b1 := e1 + y1*(a1new-a1)*k11 + y2*(a2new-a2)*k12 + tr.b
	b2 := e2 + y1*(a1new-a1)*k12 + y2*(a2new-a2)*k22 + tr.b
	var bnew float64
	switch {
	case a1new > 0 && a1new < c:
		bnew = b1
	case a2new > 0 && a2new < c:
		bnew = b2
	default:
		bnew = (b1 + b2) / 2
	}
	deltaB := bnew - tr.b
	tr.b = bnew

	d1 := y1 * (a1new - a1)
	d2 := y2 * (a2new - a2)
	tr.alpha[i1] = a1new
	tr.alpha[i2] = a2new
	if tr.stats != nil {
		tr.stats.Steps++
	}
	// The incremental update is exact — row values are deterministic
	// whether cached or recomputed — so no per-step re-derivation of
	// E_{i1}, E_{i2} is needed. Shrunk examples are skipped; their
	// errors are rebuilt from scratch on unshrink.
	row1 := tr.kRow(i1)
	row2 := tr.kRow(i2)
	for i := 0; i < tr.n; i++ {
		if tr.active[i] {
			tr.errs[i] += d1*row1[i] + d2*row2[i] - deltaB
		}
	}
	return true
}

// kernAt returns the single kernel value K(i, j), served from an
// already-cached row when one exists but never materializing a new
// row.
func (tr *trainer) kernAt(i, j int) float64 {
	if tr.kfull != nil {
		if tr.kfull[i] != nil {
			return tr.kfull[i][j]
		}
		if tr.kfull[j] != nil {
			return tr.kfull[j][i]
		}
	} else if tr.lru != nil {
		if row, ok := tr.lru.Get(i); ok {
			return row[j]
		}
		if row, ok := tr.lru.Get(j); ok {
			return row[i]
		}
	}
	if tr.stats != nil {
		tr.stats.ScalarEvals++
	}
	return tr.kern(tr.x[i], tr.x[j])
}
