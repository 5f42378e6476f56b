package svm

import (
	"fmt"
	"math"

	"exbox/internal/mathx"
)

// This file is the inference fast path: the representation a trained
// Model keeps for scoring, built once at construction, and the
// zero-allocation Decision / DecisionInto / DecisionBatch entry points
// every steady-state ExBox workflow (admission, network selection,
// re-evaluation) runs on.
//
// The layout follows the liblinear/libsvm playbook: collapse whatever
// can be precomputed into contiguous memory so a decision is fused
// arithmetic over flat slices, never pointer chasing or per-call
// closure construction.
//
//   - Linear kernel: the feature standardization is folded into the
//     collapsed weight vector at construction, so a decision is one
//     dot product over the *raw* feature row:
//
//       f(x) = Σ_j w_j·(x_j−μ_j)/σ_j + b = Σ_j (w_j/σ_j)·x_j + b′
//       with b′ = b − Σ_j w_j·μ_j/σ_j.
//
//   - RBF kernel: the support vectors are standardized once and stored
//     in a single row-major slab (stride dim) with their squared norms
//     precomputed, so a decision standardizes the sample z once and
//     evaluates K(z,sv) = exp(−γ·(‖z‖²+‖sv‖²−2·z·sv)) streaming over
//     the slab — one pass of fused dot products over contiguous
//     memory.
//
// Scratch ownership: DecisionInto and DecisionBatch borrow the
// caller's scratch for the duration of the call only; the model never
// retains dst or scratch, so callers may pool and reuse them freely
// across calls and models. The returned slice of DecisionBatch aliases
// dst (or its reallocation) and is owned by the caller.

// buildModel assembles the inference representation from a solved
// dual: support vectors with alpha above the retention threshold are
// packed into the slab (RBF) or collapsed into scaler-folded weights
// (linear). xs holds the standardized training rows.
func buildModel(cfg Config, gamma float64, scaler *Scaler, xs [][]float64, y, alpha []float64, b float64) *Model {
	dim := 0
	if len(xs) > 0 {
		dim = len(xs[0])
	}
	m := &Model{cfg: cfg, gamma: gamma, scaler: scaler, dim: dim, b: b}
	var svIdx []int
	for i, a := range alpha {
		if a > 1e-12 {
			svIdx = append(svIdx, i)
			m.svCoef = append(m.svCoef, a*y[i])
		}
	}
	switch cfg.Kernel {
	case Linear:
		// Collapse the support vectors into one weight vector in
		// standardized space, then fold the standardization into it so
		// Decision works on raw rows.
		w := make([]float64, dim)
		for k, i := range svIdx {
			mathx.AXPY(m.svCoef[k], xs[i], w)
		}
		m.wLinear = w
		m.wFold = make([]float64, dim)
		m.bFold = b
		for j, wj := range w {
			m.wFold[j] = wj / scaler.Std[j]
			m.bFold -= wj * scaler.Mean[j] / scaler.Std[j]
		}
	default: // RBF
		m.svSlab = make([]float64, len(svIdx)*dim)
		m.svNorm = make([]float64, len(svIdx))
		for k, i := range svIdx {
			row := m.svSlab[k*dim : (k+1)*dim]
			copy(row, xs[i])
			m.svNorm[k] = mathx.Dot(row, row)
		}
		// The RFF tier fits its readout against this model's own exact
		// decisions on the training rows.
		if cfg.RFF && len(m.svCoef) > 0 {
			m.rff = buildRFF(cfg, m, xs)
		}
	}
	return m
}

// NumSV returns the number of support vectors retained by the model.
func (m *Model) NumSV() int { return len(m.svCoef) }

// Dim returns the feature dimension the model was trained on; scratch
// passed to DecisionInto must be at least this long.
func (m *Model) Dim() int { return m.dim }

// BatchScratch returns the scratch length DecisionBatch needs to score
// n rows without allocating: one standardized row, whatever n.
func (m *Model) BatchScratch(n int) int { return m.dim }

// Decision returns the signed distance-like score f(x) of the sample:
// positive inside the admissible half-space, negative outside. ExBox's
// network selection uses the magnitude as "how far inside the capacity
// region" a candidate placement sits.
//
// For the linear kernel this is allocation-free (the scaler is folded
// into the weights); for RBF it allocates one scratch row per call —
// steady-state callers should hold scratch and use DecisionInto.
func (m *Model) Decision(row []float64) float64 {
	if m.wFold != nil {
		return mathx.Dot(m.wFold, row) + m.bFold
	}
	return m.DecisionInto(make([]float64, m.dim), row)
}

// DecisionInto is Decision with caller-provided scratch: dst must have
// length at least Dim() and holds the standardized sample during the
// call. The model does not retain dst. With adequate scratch the call
// performs no allocation.
func (m *Model) DecisionInto(dst, row []float64) float64 {
	if m.wFold != nil {
		return mathx.Dot(m.wFold, row) + m.bFold
	}
	if len(row) != m.dim {
		panic(fmt.Sprintf("svm: row dim %d, model dim %d", len(row), m.dim))
	}
	if len(dst) < m.dim {
		panic(fmt.Sprintf("svm: scratch len %d, need %d", len(dst), m.dim))
	}
	z := dst[:m.dim]
	var zn float64
	for j, v := range row {
		zj := (v - m.scaler.Mean[j]) / m.scaler.Std[j]
		z[j] = zj
		zn += zj * zj
	}
	return m.rbfOver(z, zn)
}

// rbfOver evaluates the RBF decision for one standardized sample z
// with squared norm zn, streaming once over the support-vector slab.
func (m *Model) rbfOver(z []float64, zn float64) float64 {
	s := m.b
	g := m.gamma
	for i, c := range m.svCoef {
		sv := m.svSlab[i*m.dim : (i+1)*m.dim]
		var dot float64
		for j, zj := range z {
			dot += zj * sv[j]
		}
		s += c * math.Exp(-g*(zn+m.svNorm[i]-2*dot))
	}
	return s
}

// DecisionBatch scores every row through DecisionInto, writing the
// decisions into dst (reallocated when too small) and using scratch as
// the standardized-sample workspace. Pass dst with capacity len(rows)
// and scratch with length BatchScratch(len(rows)) to make the call
// allocation-free. Each row walks the slab on its own — the slab of a
// realistic model is cache-resident and the walk is exp-bound, so one
// tight single-row loop per row beats an interleaved pass — which
// makes a batch bit-equal to the same rows scored one at a time.
// Returns the scores, aliased to dst when it was large enough.
func (m *Model) DecisionBatch(dst []float64, rows [][]float64, scratch []float64) []float64 {
	n := len(rows)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if len(scratch) < m.dim {
		scratch = make([]float64, m.dim)
	}
	for r, row := range rows {
		dst[r] = m.DecisionInto(scratch, row)
	}
	return dst
}

// Predict returns +1 or -1 for the sample.
func (m *Model) Predict(row []float64) float64 {
	if m.Decision(row) >= 0 {
		return 1
	}
	return -1
}

// decisionScalar is the pre-refactor prediction path — standardize a
// copy of the row, construct the kernel closure, walk the support
// vectors one at a time — kept verbatim as the oracle the equivalence
// tests pin the fast path against.
func (m *Model) decisionScalar(row []float64) float64 {
	z := m.scaler.Transform(row)
	if m.wLinear != nil {
		var s float64
		for j, v := range z {
			s += m.wLinear[j] * v
		}
		return s + m.b
	}
	k := kernelFunc(m.cfg.Kernel, m.gamma)
	var s float64
	for i, c := range m.svCoef {
		s += c * k(m.svSlab[i*m.dim:(i+1)*m.dim], z)
	}
	return s + m.b
}
