// Package learner abstracts the supervised binary learner behind
// ExBox's Admittance Classifier. The paper notes the learning
// technique "is not central to the concept of ExBox and can be
// implemented as a separate module that can be refined as needed";
// this package is that module boundary: SVM (the paper's choice) and
// a CART decision tree both satisfy Learner, and the classifier takes
// whichever it is configured with.
package learner

import (
	"errors"
	"math/rand"
	"sync"

	"exbox/internal/dtree"
	"exbox/internal/svm"
)

// Predictor is a trained binary classifier. Decision returns a signed
// score: >= 0 means the positive (+1, admissible) class, and the
// magnitude orders confidence.
type Predictor interface {
	Decision(row []float64) float64
}

// FastPredictor is a Predictor that additionally exposes the
// zero-allocation scoring entry points of the svm inference fast path.
// Callers own dst and scratch; implementations must not retain either
// beyond the call. The classifier's Decide/DecideBatch hot paths use
// this interface when the trained model provides it and fall back to
// plain Decision otherwise (e.g. the decision-tree ablation).
type FastPredictor interface {
	Predictor
	// Dim is the feature dimension; scratch for DecisionInto must be at
	// least this long.
	Dim() int
	// BatchScratch returns the scratch length DecisionBatch needs to
	// score n rows without allocating.
	BatchScratch(n int) int
	// DecisionInto is Decision with caller-provided scratch.
	DecisionInto(dst, row []float64) float64
	// DecisionBatch scores every row into dst (grown when too small),
	// using scratch as workspace, and returns the scores.
	DecisionBatch(dst []float64, rows [][]float64, scratch []float64) []float64
}

// ApproxPredictor is a FastPredictor that additionally carries a
// budget-constrained approximate scoring tier (the svm RFF
// linearization). HasApprox reports whether the tier was actually
// built for this model — a model trained with the tier disabled, or
// whose tier construction failed, answers false and callers must stay
// on the exact path. DecisionApprox scores one raw row through the
// tier without allocating; its sign can disagree with Decision, which
// is why the classifier oracle-gates it (see classifier/health.go).
type ApproxPredictor interface {
	FastPredictor
	HasApprox() bool
	DecisionApprox(row []float64) float64
}

// The svm model is the fast path the classifier relies on.
var (
	_ FastPredictor   = (*svm.Model)(nil)
	_ ApproxPredictor = (*svm.Model)(nil)
)

// Learner trains Predictors from labeled rows (labels in {-1, +1}).
//
// keys and stats are both optional. keys, when non-nil, carries one
// stable key per row and asks a learner that keeps solver state (the
// WarmSVM) to seed this fit from the previous one: rows whose key was
// seen in the previous fit inherit their dual variables, everything
// else starts cold. The returned bool reports whether a seed was
// actually used (false on the first fit, after too much churn, when
// keys is nil, or for a learner with nothing to seed). Nil keys is a
// cold fit that leaves any kept solver state untouched — what bootstrap
// cross-validation asks for, since fold fits must not pollute the seed.
// stats, when non-nil, is overwritten with the solver's accounting
// (seeding/kernel time, cache hits, pair updates, final violation,
// warm-vs-cold); learners without a solver (the decision tree) leave it
// untouched, its Rows still zero.
type Learner interface {
	Train(x [][]float64, y []float64, keys []string, stats *svm.SolveStats) (Predictor, bool, error)
	Name() string
}

// ErrOneClass is returned by Train when the labels contain a single
// class, making the problem unlearnable for now.
var ErrOneClass = errors.New("learner: training data contains a single class")

// SVM adapts internal/svm to the Learner interface.
type SVM struct {
	Config svm.Config
}

// Name implements Learner.
func (s SVM) Name() string { return "svm-" + s.Config.Kernel.String() }

// Train implements Learner: always a cold fit, keys are ignored.
func (s SVM) Train(x [][]float64, y []float64, _ []string, stats *svm.SolveStats) (Predictor, bool, error) {
	m, _, err := svm.SolveDetailed(s.Config, x, y, nil, stats)
	if errors.Is(err, svm.ErrOneClass) {
		return nil, false, ErrOneClass
	}
	if err != nil {
		return nil, false, err
	}
	return m, false, nil
}

// WarmSVM is the SVM learner that warm-starts: each keyed Train keeps
// the fit's solver state (dual variables, threshold, frozen feature
// standardization) keyed by the caller's per-row keys, and the next
// keyed Train seeds from it. A WarmSVM is stateful and must be created
// per classifier (NewWarmSVM); it is safe for concurrent use, though
// callers normally serialize fits anyway.
type WarmSVM struct {
	Config svm.Config

	mu     sync.Mutex
	state  *svm.WarmState
	keys   []string  // key per position of state.Alpha
	labels []float64 // label per position, to drop seeds whose label flipped
}

// NewWarmSVM returns a warm-starting SVM learner with no seed yet.
func NewWarmSVM(cfg svm.Config) *WarmSVM { return &WarmSVM{Config: cfg} }

// Name implements Learner. It matches SVM's name: the learning
// technique is the same, only the solver's starting point differs.
func (s *WarmSVM) Name() string { return "svm-" + s.Config.Kernel.String() }

// Train implements Learner. Nil keys is SVM's cold fit, warm state
// untouched.
func (s *WarmSVM) Train(x [][]float64, y []float64, keys []string, stats *svm.SolveStats) (Predictor, bool, error) {
	if keys == nil {
		return SVM{Config: s.Config}.Train(x, y, nil, stats)
	}
	if len(keys) != len(x) || len(y) != len(x) {
		return nil, false, errors.New("learner: rows/labels/keys length mismatch")
	}
	s.mu.Lock()
	seed := s.remapLocked(keys, y)
	s.mu.Unlock()

	m, next, err := svm.SolveDetailed(s.Config, x, y, seed, stats)
	if errors.Is(err, svm.ErrOneClass) {
		return nil, false, ErrOneClass
	}
	if err != nil {
		return nil, false, err
	}
	warmed := len(x) > 0 && seed.Usable(len(x), len(x[0]))
	s.mu.Lock()
	s.state = next
	s.keys = append(s.keys[:0], keys...)
	s.labels = append(s.labels[:0], y...)
	s.mu.Unlock()
	return m, warmed, nil
}

// remapLocked aligns the stored dual state to a new row order: rows
// whose key survived (with the same label) keep their alpha, new and
// relabeled rows start at zero. Returns nil when there is no state or
// no overlap, which makes the solver fall back to a cold fit.
func (s *WarmSVM) remapLocked(keys []string, y []float64) *svm.WarmState {
	if s.state == nil || len(s.keys) == 0 {
		return nil
	}
	type prev struct {
		alpha, label float64
	}
	old := make(map[string]prev, len(s.keys))
	for i, k := range s.keys {
		if i < len(s.state.Alpha) && i < len(s.labels) {
			old[k] = prev{alpha: s.state.Alpha[i], label: s.labels[i]}
		}
	}
	alpha := make([]float64, len(keys))
	hits := 0
	for i, k := range keys {
		if p, ok := old[k]; ok && p.label == y[i] {
			alpha[i] = p.alpha
			hits++
		}
	}
	if hits == 0 {
		return nil
	}
	return s.state.Remap(alpha)
}

// Tree adapts internal/dtree to the Learner interface.
type Tree struct {
	Config dtree.Config
}

// Name implements Learner.
func (t Tree) Name() string { return "dtree" }

// Train implements Learner; the tree has no solver state to seed and
// no solver phases to account, so keys and stats are ignored.
func (t Tree) Train(x [][]float64, y []float64, _ []string, _ *svm.SolveStats) (Predictor, bool, error) {
	m, err := dtree.Train(t.Config, x, y)
	if errors.Is(err, dtree.ErrOneClass) {
		return nil, false, ErrOneClass
	}
	if err != nil {
		return nil, false, err
	}
	return m, false, nil
}

// CrossValidate estimates generalization accuracy of the learner by
// n-fold cross validation, mirroring svm.CrossValidate but for any
// Learner. Folds are stratified (svm.StratifiedFolds) so a minority
// class with at least two members appears in every training split;
// folds whose training split still collapses to one class (a
// singleton class) are scored by majority-class prediction.
func CrossValidate(l Learner, x [][]float64, y []float64, folds int, rng *rand.Rand) (float64, error) {
	if folds < 2 {
		return 0, errors.New("learner: cross validation needs at least 2 folds")
	}
	if len(x) != len(y) {
		return 0, errors.New("learner: rows/labels mismatch")
	}
	if len(x) < folds {
		return 0, errors.New("learner: fewer samples than folds")
	}
	fold := svm.StratifiedFolds(y, folds, rng)

	var correct, total int
	for f := 0; f < folds; f++ {
		var trainX, testX [][]float64
		var trainY, testY []float64
		for i := range x {
			if fold[i] == f {
				testX = append(testX, x[i])
				testY = append(testY, y[i])
			} else {
				trainX = append(trainX, x[i])
				trainY = append(trainY, y[i])
			}
		}
		p, _, err := l.Train(trainX, trainY, nil, nil)
		if errors.Is(err, ErrOneClass) {
			cls := 1.0
			if len(trainY) > 0 {
				cls = trainY[0]
			}
			for _, yt := range testY {
				if yt == cls {
					correct++
				}
				total++
			}
			continue
		}
		if err != nil {
			return 0, err
		}
		for i, row := range testX {
			pred := -1.0
			if p.Decision(row) >= 0 {
				pred = 1
			}
			if pred == testY[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0, errors.New("learner: empty folds")
	}
	return float64(correct) / float64(total), nil
}
