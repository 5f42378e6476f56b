package svm

import (
	"errors"
	"fmt"
	"math"
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
	// Tol is the stopping tolerance: the solve ends when the maximal
	// KKT violation m(α) − M(α) falls below it (see trainer.solve).
	Tol float64
	// MaxIter is a hard ceiling on pair updates, a safety valve against
	// pathological data; a fit that hits it returns its current point
	// and says so in SolveStats.Capped. 0 means max(20000, 200·rows).
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
		Kernel: RBF,
		C:      10,
		Gamma:  0, // 1/dim at train time
		Tol:    1e-3,
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

	// trainMax is max |Decision| over the rows the model was fitted on,
	// read off the solver's final gradient; 0 when unknown (a model
	// rebuilt from state, or one whose alphas were pruned after the
	// solve).
	trainMax float64
}

// MaxTrainDecision returns the largest |Decision(row)| over the training
// rows, to within solver rounding, without scoring them again: the
// solver already holds every training decision value when it stops. ok
// is false when the model does not know it.
func (m *Model) MaxTrainDecision() (v float64, ok bool) {
	return m.trainMax, m.trainMax > 0
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

	b      float64 // threshold of the fit, u(x) = Σ αᵢyᵢK(xᵢ,x) − b; seeding does not use it
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
// rows implicitly start at α = 0) and the solver starts from that
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
// plain increments and the timers wrap whole kernel rows, so passing
// nil (what Solve does) keeps the loop free of clock calls.
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
		// Seeding computes kernel rows; those are the kernel phase's.
		stats.InitSeconds = time.Since(tInit).Seconds() - stats.KernelSeconds
	}
	tr.solve()

	pruned := 0
	if cfg.PruneTol > 0 {
		pruned = pruneAlpha(tr.alpha, y, cfg.PruneTol, cfg.C)
		if stats != nil {
			stats.Pruned = pruned
		}
	}

	// The trainer's threshold follows u(x) = Σ αᵢyᵢK(xᵢ,x) − b; the
	// model stores it negated so Decision can add it.
	m := buildModel(cfg, gamma, scaler, xs, y, tr.alpha, -tr.b)
	if pruned == 0 {
		m.trainMax = tr.maxDecision()
	}
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

// trainer holds the solver's working state.
type trainer struct {
	cfg   Config
	gamma float64
	x     [][]float64
	y     []float64
	n     int

	alpha []float64
	// grad is the threshold-free gradient F_i = Σ_j α_j y_j K_ij − y_i,
	// maintained incrementally; the decision value of training row i is
	// F_i + y_i − b.
	grad []float64
	b    float64 // threshold, u(x) = Σ αᵢyᵢK(xᵢ,x) − b; solve sets it
	// active lists, ascending, the rows the pair loop still looks at:
	// shrink parks the rest, whose gradient entries then go stale until
	// unshrink rebuilds them.
	active []int

	kern  func(a, b []float64) float64
	kdiag []float64
	// Kernel rows are computed on demand through kRow and kept: all of
	// them in kfull when n ≤ kernelCacheLimit, else the lru's most
	// recently used.
	kfull [][]float64
	lru   *rowLRU

	// stats, when non-nil, accumulates the per-phase accounting of
	// SolveDetailed. Every touch is nil-guarded so the plain Solve path
	// pays only untaken branches.
	stats *SolveStats
}

// kernelCacheLimit bounds the n for which kernel rows are kept for the
// whole solve (n=3000 → at most ~72 MB of float64, and only the rows
// the solve touches are ever materialized).
const kernelCacheLimit = 3000

// tau replaces a non-positive pair curvature K_ii + K_jj − 2K_ij
// (duplicate rows, rounding), as in libsvm.
const tau = 1e-12

func newTrainer(cfg Config, gamma float64, x [][]float64, y []float64) *trainer {
	n := len(x)
	tr := &trainer{
		cfg:   cfg,
		gamma: gamma,
		x:     x,
		y:     y,
		n:     n,
		alpha: make([]float64, n),
		grad:  make([]float64, n),
		kern:  kernelFunc(cfg.Kernel, gamma),
		kdiag: make([]float64, n),
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
	tr.active = make([]int, n)
	for i := 0; i < n; i++ {
		tr.active[i] = i
		tr.grad[i] = -y[i] // α = 0
		tr.kdiag[i] = tr.kern(x[i], x[i])
	}
	return tr
}

// initWarm seeds the dual variables from a previous fit. The seed is
// clipped to the box [0, C], rebalanced so Σ αᵢyᵢ = 0 holds exactly
// (rows may have been evicted or relabeled since the seed was taken),
// and the gradient is rebuilt from the seeded support vectors.
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
	// Pair updates preserve the equality constraint but never restore it.
	rebalance(tr.alpha, tr.y)

	// This O(n·|SV|) pass is the whole cost of warm-starting, and the
	// kernel rows it computes stay cached for the solve, which picks its
	// pairs among these same support vectors.
	tr.rebuildGrad(tr.active)
}

// rebuildGrad recomputes F_k = Σ_j α_j y_j K(j, k) − y_k for the listed
// rows from the support vectors' kernel rows.
func (tr *trainer) rebuildGrad(rows []int) {
	for _, k := range rows {
		tr.grad[k] = -tr.y[k]
	}
	for j, a := range tr.alpha {
		if a == 0 {
			continue
		}
		cj, row := a*tr.y[j], tr.kRow(j)
		for _, k := range rows {
			tr.grad[k] += cj * row[k]
		}
	}
}

// rebalance restores the dual equality Σ αᵢyᵢ = 0 by scaling down
// whichever class carries the excess, which keeps every variable inside
// the box.
func rebalance(alpha, y []float64) {
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
	heavy, f := 0.0, 1.0
	switch s := pos - neg; {
	case s > 0 && pos > 0:
		heavy, f = 1, (pos-s)/pos
	case s < 0 && neg > 0:
		heavy, f = -1, (neg+s)/neg
	}
	if heavy == 0 {
		return
	}
	for i := range alpha {
		if y[i] == heavy {
			alpha[i] *= f
		}
	}
}

// pruneAlpha zeroes dual variables at or below tol (Config.PruneTol)
// so buildModel drops their support vectors, then repairs the dual
// equality the same way initWarm does for re-aligned seeds, so the
// pruned solution stays a feasible (slightly perturbed) dual point and
// can still seed the next warm fit. Variables at the box bound C are
// never pruned regardless of tol: they are the misfit examples, not
// numerical dust. Returns how many support vectors (α > the 1e-12
// retention threshold) were dropped.
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
	if pruned > 0 {
		rebalance(alpha, y)
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

// shrinkEvery is how many pair updates pass between two shrink passes.
// libsvm waits min(n, 1000), longer than a whole warm refit of the
// 1500-row window takes (~700 updates); at 50 the pair loop's three
// O(active) passes run over about a seventh of the rows.
const shrinkEvery = 50

// solve is libsvm's decomposition loop (Fan, Chen & Lin 2005). With
//
//	I_up  = {i : yᵢ=+1, αᵢ<C  or  yᵢ=−1, αᵢ>0}   (yᵢαᵢ can grow)
//	I_low = {i : yᵢ=+1, αᵢ>0  or  yᵢ=−1, αᵢ<C}   (yᵢαᵢ can fall)
//	m(α) = max over I_up of −Fᵢ,   M(α) = min over I_low of −Fᵢ
//
// α is optimal iff m(α) ≤ M(α). Each iteration takes i attaining m(α),
// the j in I_low with the largest second-order gain against i, and
// solves the two-variable problem exactly inside the box; it stops
// when m(α) − M(α) < Tol over all rows, and the threshold is the
// midpoint of the final (m, M), within Tol/2 of every free support
// vector's −Fᵢ. MaxIter is the only other way out. No randomness, no
// map iteration: ties go to the lower index.
//
// Along the way shrink parks rows that cannot be picked. The first time
// the loop would stop with rows parked it brings them back with exact
// gradients instead and carries on over all rows, with no further
// shrinking, so what it finally stops on was checked on every row.
func (tr *trainer) solve() {
	maxIter := tr.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = max(20000, 200*tr.n)
	}
	iters, gap, capped := 0, 0.0, false
	shrinking := true
	for {
		i, up, low := tr.maxViolator()
		gap, tr.b = up-low, -(up+low)/2
		// No violating pair at all (gap ≤ 0) is optimal whatever Tol says.
		if done := gap < tr.cfg.Tol || !(gap > 0); done || iters == maxIter {
			if len(tr.active) == tr.n {
				capped = !done
				break
			}
			tr.unshrink()
			shrinking = false
			continue
		}
		if shrinking && iters%shrinkEvery == shrinkEvery-1 {
			tr.shrink(up, low)
		}
		rowI := tr.kRow(i)
		tr.step(i, tr.partner(i, rowI), rowI)
		iters++
	}
	if tr.stats != nil {
		tr.stats.Iters, tr.stats.Gap, tr.stats.Capped = iters, gap, capped
	}
}

// shrink parks the rows no pair can include while the violation band
// [M, m] only narrows: a row at a bound is in just one of I_up and
// I_low, and one that can only rise (only fall) is picked only while
// its −F is at least M (at most m).
func (tr *trainer) shrink(m, M float64) {
	keep := tr.active[:0]
	for _, k := range tr.active {
		up, low := tr.inUpLow(k)
		if v := -tr.grad[k]; (!low && v < M) || (!up && v > m) {
			continue
		}
		keep = append(keep, k)
	}
	tr.active = keep
}

// unshrink makes every row active again, rebuilding the parked rows'
// gradient entries — from cached kernel rows, short of LRU eviction,
// since a row's α only ever left 0 through kRow.
func (tr *trainer) unshrink() {
	parked := make([]int, 0, tr.n-len(tr.active))
	next := 0
	for k := 0; k < tr.n; k++ {
		if next < len(tr.active) && tr.active[next] == k {
			next++
		} else {
			parked = append(parked, k)
		}
	}
	if tr.stats != nil {
		tr.stats.Shrunk = len(parked)
	}
	tr.rebuildGrad(parked)
	tr.active = tr.active[:tr.n]
	for k := range tr.active {
		tr.active[k] = k
	}
}

// inUpLow reports whether k is in I_up and in I_low.
func (tr *trainer) inUpLow(k int) (up, low bool) {
	up, low = tr.alpha[k] < tr.cfg.C, tr.alpha[k] > 0
	if tr.y[k] < 0 {
		up, low = low, up
	}
	return up, low
}

// maxViolator returns m(α) with the index attaining it, and M(α).
func (tr *trainer) maxViolator() (i int, m, M float64) {
	i, m, M = -1, math.Inf(-1), math.Inf(1)
	for _, k := range tr.active {
		f := tr.grad[k]
		up, low := tr.inUpLow(k)
		if up && -f > m {
			i, m = k, -f
		}
		if low && -f < M {
			M = -f
		}
	}
	return i, m, M
}

// partner picks, among the j in I_low that violate against i, the one
// whose pair step decreases the dual objective most to second order:
// maximal (Fⱼ−Fᵢ)² / (Kᵢᵢ+Kⱼⱼ−2Kᵢⱼ), from row i alone (WSS2). With
// m(α) > M(α) and i attaining m(α) there is always one.
func (tr *trainer) partner(i int, rowI []float64) int {
	j, best := -1, 0.0
	fi, kii := tr.grad[i], tr.kdiag[i]
	for _, k := range tr.active {
		f := tr.grad[k]
		d := f - fi
		if _, low := tr.inUpLow(k); !low || !(d > 0) {
			continue
		}
		a := kii + tr.kdiag[k] - 2*rowI[k]
		if a <= 0 {
			a = tau
		}
		if g := d * d / a; g > best {
			j, best = k, g
		}
	}
	return j
}

// step solves the pair (i, j) exactly: yᵢαᵢ rises and yⱼαⱼ falls by the
// same t, the unconstrained minimizer clipped to the box. A clipped
// variable is set to 0 or C itself, never to a neighbour of it, so
// bound support vectors stay recognizable; Σ αᵢyᵢ is preserved to
// rounding.
func (tr *trainer) step(i, j int, rowI []float64) {
	c := tr.cfg.C
	yi, yj := tr.y[i], tr.y[j]
	ai, aj := tr.alpha[i], tr.alpha[j]
	a := tr.kdiag[i] + tr.kdiag[j] - 2*rowI[j]
	if a <= 0 {
		a = tau
	}
	t := (tr.grad[j] - tr.grad[i]) / a

	// The bound each variable moves toward, and the room before it.
	bi, bj := c, 0.0
	if yi < 0 {
		bi = 0
	}
	if yj < 0 {
		bj = c
	}
	ri, rj := math.Abs(bi-ai), math.Abs(bj-aj)
	switch {
	case t < ri && t < rj:
		ai, aj = clamp(ai+yi*t, c), clamp(aj-yj*t, c)
	case ri < rj:
		ai, aj = bi, clamp(aj-yj*ri, c)
	case rj < ri:
		ai, aj = clamp(ai+yi*rj, c), bj
	default:
		ai, aj = bi, bj
	}

	di, dj := yi*(ai-tr.alpha[i]), yj*(aj-tr.alpha[j])
	tr.alpha[i], tr.alpha[j] = ai, aj
	rowJ := tr.kRow(j)
	for _, k := range tr.active {
		tr.grad[k] += di*rowI[k] + dj*rowJ[k]
	}
}

// clamp guards the box against the last-bit rounding of a+t.
func clamp(a, c float64) float64 {
	return math.Min(c, math.Max(0, a))
}

// maxDecision returns max |F_i + y_i − b| over the training rows: the
// largest absolute decision value, which the final gradient already
// holds.
func (tr *trainer) maxDecision() float64 {
	var m float64
	for i, f := range tr.grad {
		m = math.Max(m, math.Abs(f+tr.y[i]-tr.b))
	}
	return m
}
