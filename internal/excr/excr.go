// Package excr defines the domain model for the Experiential Capacity
// Region (ExCR) introduced by the ExBox paper: application classes,
// SNR levels, traffic matrices <a_{1,1} … a_{k,r}>, flow arrivals, and
// labeled training samples for the Admittance Classifier.
//
// A traffic matrix counts the active flows per (application class, SNR
// level). The ExCR is the set of traffic matrices for which the
// network can satisfy every flow's QoE requirement simultaneously.
package excr

import (
	"fmt"
	"strconv"
	"strings"
)

// AppClass identifies one of the paper's application classes. The
// evaluation uses three (web browsing, video streaming, video
// conferencing); the Space abstraction keeps the rest of the code
// generic in the number of classes.
type AppClass int

// The three application classes used throughout the paper's
// evaluation.
const (
	Web AppClass = iota
	Streaming
	Conferencing
	NumAppClasses = 3
)

// String implements fmt.Stringer.
func (c AppClass) String() string {
	switch c {
	case Web:
		return "web"
	case Streaming:
		return "streaming"
	case Conferencing:
		return "conferencing"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// SNRLevel is a discretized wireless channel quality bin. The paper
// found two levels (low/high) sufficient; Space keeps r general.
type SNRLevel int

// The two SNR bins used in the paper's mixed-SNR experiments.
const (
	SNRLow SNRLevel = iota
	SNRHigh
	NumSNRLevels = 2
)

// String implements fmt.Stringer.
func (l SNRLevel) String() string {
	switch l {
	case SNRLow:
		return "low"
	case SNRHigh:
		return "high"
	default:
		return fmt.Sprintf("snr%d", int(l))
	}
}

// LevelForSNR bins a link SNR in dB into an SNRLevel using a single
// threshold, matching the paper's two-level split (≈23 dB low,
// ≈53 dB high in the ns-3 study; we split at 35 dB).
func LevelForSNR(db float64) SNRLevel {
	if db < 35 {
		return SNRLow
	}
	return SNRHigh
}

// Space fixes the dimensionality of the traffic-matrix universe:
// k application classes × r SNR levels.
type Space struct {
	Classes int // k
	Levels  int // r
}

// DefaultSpace is the paper's evaluation space: 3 application classes
// and a single (high) SNR level for the testbed experiments.
// Mixed-SNR simulations use MixedSNRSpace.
var DefaultSpace = Space{Classes: NumAppClasses, Levels: 1}

// MixedSNRSpace is the 3-class, 2-SNR-level space of Section 6.3.
var MixedSNRSpace = Space{Classes: NumAppClasses, Levels: 2}

// Dim returns k·r, the number of cells in a traffic matrix.
func (s Space) Dim() int { return s.Classes * s.Levels }

// Valid reports whether the space has at least one class and level.
func (s Space) Valid() bool { return s.Classes > 0 && s.Levels > 0 }

// CellIndex maps (class, level) to the flat class-major cell index —
// the position the cell occupies in Counts and in the Features vector.
// Batched scorers use it to dedup per-cell work. It panics when the
// coordinates fall outside the space.
func (s Space) CellIndex(c AppClass, l SNRLevel) int { return s.index(c, l) }

// index maps (class, level) to the flat cell index.
func (s Space) index(c AppClass, l SNRLevel) int {
	if int(c) < 0 || int(c) >= s.Classes || int(l) < 0 || int(l) >= s.Levels {
		panic(fmt.Sprintf("excr: (%v,%v) outside space %dx%d", c, l, s.Classes, s.Levels))
	}
	return int(c)*s.Levels + int(l)
}

// Matrix is a traffic matrix: the number of active flows per
// (application class, SNR level) cell. The zero value is unusable;
// construct with NewMatrix.
type Matrix struct {
	space  Space
	counts []int
}

// NewMatrix returns the all-zero traffic matrix over the space.
func NewMatrix(s Space) Matrix {
	if !s.Valid() {
		panic("excr: NewMatrix with invalid space")
	}
	return Matrix{space: s, counts: make([]int, s.Dim())}
}

// Space returns the matrix's space.
func (m Matrix) Space() Space { return m.space }

// Get returns the flow count in cell (c, l).
func (m Matrix) Get(c AppClass, l SNRLevel) int { return m.counts[m.space.index(c, l)] }

// Set returns a copy of m with cell (c, l) set to n (n >= 0).
func (m Matrix) Set(c AppClass, l SNRLevel, n int) Matrix {
	if n < 0 {
		panic("excr: negative flow count")
	}
	out := m.Clone()
	out.counts[m.space.index(c, l)] = n
	return out
}

// Inc returns a copy of m with one more flow in cell (c, l).
func (m Matrix) Inc(c AppClass, l SNRLevel) Matrix {
	out := m.Clone()
	out.counts[m.space.index(c, l)]++
	return out
}

// Dec returns a copy of m with one fewer flow in cell (c, l).
// It panics if the cell is already empty.
func (m Matrix) Dec(c AppClass, l SNRLevel) Matrix {
	i := m.space.index(c, l)
	if m.counts[i] == 0 {
		panic(fmt.Sprintf("excr: Dec on empty cell (%v,%v)", c, l))
	}
	out := m.Clone()
	out.counts[i]--
	return out
}

// Total returns the total number of active flows.
func (m Matrix) Total() int {
	var t int
	for _, c := range m.counts {
		t += c
	}
	return t
}

// ClassTotal returns the number of active flows of class c across all
// SNR levels.
func (m Matrix) ClassTotal(c AppClass) int {
	var t int
	for l := 0; l < m.space.Levels; l++ {
		t += m.counts[m.space.index(c, SNRLevel(l))]
	}
	return t
}

// LevelTotal returns the number of active flows at SNR level l across
// all classes.
func (m Matrix) LevelTotal(l SNRLevel) int {
	var t int
	for c := 0; c < m.space.Classes; c++ {
		t += m.counts[m.space.index(AppClass(c), l)]
	}
	return t
}

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	out := Matrix{space: m.space, counts: make([]int, len(m.counts))}
	copy(out.counts, m.counts)
	return out
}

// Equal reports whether two matrices have the same space and counts.
func (m Matrix) Equal(o Matrix) bool {
	if m.space != o.space || len(m.counts) != len(o.counts) {
		return false
	}
	for i, v := range m.counts {
		if v != o.counts[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for use in dedup maps (the online
// learning phase replaces the observed QoE of repeated matrices).
func (m Matrix) Key() string {
	var b strings.Builder
	b.Grow(4 * len(m.counts)) // one allocation for typical 3-digit counts
	for i, v := range m.counts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// AppendKey appends the Key encoding to dst and returns it,
// byte-identical to Key. Callers that build map-lookup keys in a
// reusable buffer (the classifier's sample keys) use it to keep the
// steady-state observation path allocation-free.
func (m Matrix) AppendKey(dst []byte) []byte {
	for i, v := range m.counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// Counts returns a copy of the flat cell counts in class-major order.
func (m Matrix) Counts() []int {
	out := make([]int, len(m.counts))
	copy(out, m.counts)
	return out
}

// MatrixFromCounts builds a matrix over s from flat class-major cell
// counts, the inverse of Counts. The slice is copied. It panics on a
// length mismatch or a negative count, mirroring Set.
func MatrixFromCounts(s Space, counts []int) Matrix {
	if len(counts) != s.Dim() {
		panic(fmt.Sprintf("excr: %d counts for space %dx%d", len(counts), s.Classes, s.Levels))
	}
	m := NewMatrix(s)
	for i, v := range counts {
		if v < 0 {
			panic("excr: negative flow count")
		}
		m.counts[i] = v
	}
	return m
}

// String renders the matrix as <a11,…,akr>.
func (m Matrix) String() string { return "<" + m.Key() + ">" }

// Dominates reports whether m has at least as many flows as o in every
// cell. If m is achievable and dominates o, then o is achievable too
// (monotonicity of the capacity region); tests and the region sanity
// checker rely on this.
func (m Matrix) Dominates(o Matrix) bool {
	if m.space != o.space {
		return false
	}
	for i, v := range m.counts {
		if v < o.counts[i] {
			return false
		}
	}
	return true
}

// Arrival describes a new flow of class Class at SNR level Level
// arriving while the network carries the flows in Matrix — the X_m
// tuple of the paper.
type Arrival struct {
	Matrix Matrix
	Class  AppClass
	Level  SNRLevel
}

// After returns the traffic matrix that results from admitting the
// arrival.
func (a Arrival) After() Matrix { return a.Matrix.Inc(a.Class, a.Level) }

// Features encodes the arrival for the SVM exactly as the paper does:
// the k·r current cell counts followed by the numeric class and SNR
// level of the new flow.
func (a Arrival) Features() []float64 {
	return a.FeaturesInto(nil)
}

// FeaturesInto encodes the arrival into dst, reusing it when its
// capacity suffices and allocating otherwise. The returned slice has
// length FeatureDim(space) and the same layout as Features. Hot paths
// hold a scratch slice and pass it here so per-arrival feature
// extraction is allocation-free.
func (a Arrival) FeaturesInto(dst []float64) []float64 {
	dim := a.Matrix.space.Dim()
	if cap(dst) < dim+2 {
		dst = make([]float64, dim+2)
	}
	dst = dst[:dim+2]
	for i, v := range a.Matrix.counts {
		dst[i] = float64(v)
	}
	dst[dim] = float64(a.Class)
	dst[dim+1] = float64(a.Level)
	return dst
}

// FeatureDim returns the length of the Features vector for space s.
func FeatureDim(s Space) int { return s.Dim() + 2 }

// Sample is a labeled training tuple (X_m, Y_m): Label is +1 when
// admitting the arrival keeps every flow's QoE acceptable, −1 when it
// would push some flow below its QoE threshold.
type Sample struct {
	Arrival Arrival
	Label   float64
}

// Region is the Experiential Capacity Region over a space, defined by
// an achievability predicate (ground truth from a simulator or
// testbed, or a learned classifier's view).
type Region struct {
	Space      Space
	Achievable func(Matrix) bool
}

// Slice evaluates achievability over a 2-D slice of the region,
// varying class a on the rows (0..maxA) and class b on the columns
// (0..maxB) with every other cell zero and all flows at level l.
// The result is indexed [countA][countB]. This powers the Figure 2
// heatmaps and cmd/excr.
func (r Region) Slice(a, b AppClass, l SNRLevel, maxA, maxB int) [][]bool {
	out := make([][]bool, maxA+1)
	for i := range out {
		out[i] = make([]bool, maxB+1)
		for j := range out[i] {
			m := NewMatrix(r.Space).Set(a, l, i).Set(b, l, j)
			out[i][j] = r.Achievable(m)
		}
	}
	return out
}
