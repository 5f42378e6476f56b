package svm

import (
	"errors"
	"fmt"

	"exbox/internal/mathx"
)

// This file is the serialization boundary of a trained Model: plain
// exported structs that carry the complete inference representation —
// the folded weights, the standardized support-vector slab, the RFF
// tier's readout, the warm-start solver state — so a snapshot codec
// (internal/snapshot) can persist a fit and a warm-booted process can
// restore it with bit-identical decisions.
//
// Derived fields are serialized verbatim, never recomputed on import:
// wFold/bFold, the slab, the RFF projection are all the result of
// floating-point folding at build time, and re-deriving them from the
// dual variables would reproduce the same values only up to rounding.
// Storing the built representation is what makes a restored model's
// Decision bit-equal to the one that was saved.
//
// ModelFromState validates every structural invariant the inference
// fast path relies on (slab stride, scaler length, finite values), so
// a decoded-from-disk state can never panic the decision paths: a
// corrupt snapshot fails here with an error and the caller cold-starts.

// RFFState is the serializable form of the random-Fourier-feature
// inference tier. All weights are in raw (unstandardized) feature
// space, exactly as the built tier holds them.
type RFFState struct {
	NumFreq int // frequency pairs (D/2)
	Dim     int
	WProj   []float64 // NumFreq×Dim, row-major
	Phase   []float64 // NumFreq
	WCos    []float64 // NumFreq
	WSin    []float64 // NumFreq
	WLin    []float64 // Dim
	Bias    float64
}

// ModelState is the complete serializable state of a trained Model.
// State/ModelFromState round-trip it; all slices are private copies.
type ModelState struct {
	Config     Config
	Gamma      float64
	Dim        int
	ScalerMean []float64
	ScalerStd  []float64
	SVCoef     []float64
	B          float64

	// Linear kernel representation (empty for RBF).
	WLinear []float64
	WFold   []float64
	BFold   float64

	// RBF kernel representation (empty for Linear).
	SVSlab []float64 // len(SVCoef)×Dim, row-major
	SVNorm []float64 // len(SVCoef)

	// RFF is the optional approximate tier, nil when absent.
	RFF *RFFState
}

// State exports the model's full inference representation for
// serialization. Every slice is a fresh copy; mutating the result
// never touches the (immutable) model.
func (m *Model) State() ModelState {
	st := ModelState{
		Config: m.cfg,
		Gamma:  m.gamma,
		Dim:    m.dim,
		B:      m.b,
		BFold:  m.bFold,
	}
	if m.scaler != nil {
		st.ScalerMean = append([]float64(nil), m.scaler.Mean...)
		st.ScalerStd = append([]float64(nil), m.scaler.Std...)
	}
	st.SVCoef = append([]float64(nil), m.svCoef...)
	st.WLinear = append([]float64(nil), m.wLinear...)
	st.WFold = append([]float64(nil), m.wFold...)
	st.SVSlab = append([]float64(nil), m.svSlab...)
	st.SVNorm = append([]float64(nil), m.svNorm...)
	if m.rff != nil {
		st.RFF = &RFFState{
			NumFreq: m.rff.nf,
			Dim:     m.rff.dim,
			WProj:   append([]float64(nil), m.rff.wProj...),
			Phase:   append([]float64(nil), m.rff.phase...),
			WCos:    append([]float64(nil), m.rff.wCos...),
			WSin:    append([]float64(nil), m.rff.wSin...),
			WLin:    append([]float64(nil), m.rff.wLin...),
			Bias:    m.rff.bias,
		}
	}
	return st
}

// errBadState prefixes ModelFromState validation failures.
func errBadState(format string, args ...interface{}) error {
	return fmt.Errorf("svm: invalid model state: "+format, args...)
}

// ModelFromState rebuilds a Model from an exported state, validating
// every invariant the inference paths depend on. The rebuilt model's
// Decision/DecisionInto/DecisionBatch/DecisionRFF are bit-equal to the
// exported model's (the folded representations are restored verbatim).
// The input slices are copied; the caller may reuse them.
func ModelFromState(st ModelState) (*Model, error) {
	dim := st.Dim
	if dim < 1 {
		return nil, errBadState("dim %d", dim)
	}
	if st.Config.Kernel != Linear && st.Config.Kernel != RBF {
		return nil, errBadState("unknown kernel %d", st.Config.Kernel)
	}
	if !(st.Gamma > 0) || !mathx.AllFinite([]float64{st.Gamma, st.B, st.BFold}) {
		return nil, errBadState("non-finite or non-positive gamma/threshold")
	}
	if len(st.ScalerMean) != dim || len(st.ScalerStd) != dim {
		return nil, errBadState("scaler len %d/%d, dim %d", len(st.ScalerMean), len(st.ScalerStd), dim)
	}
	for _, sd := range st.ScalerStd {
		if !(sd > 0) { // rejects 0, negatives, NaN
			return nil, errBadState("scaler std %v", sd)
		}
	}
	for _, s := range [][]float64{st.ScalerMean, st.ScalerStd, st.SVCoef, st.WLinear, st.WFold, st.SVSlab, st.SVNorm} {
		if !mathx.AllFinite(s) {
			return nil, errBadState("non-finite weights")
		}
	}
	nsv := len(st.SVCoef)
	switch st.Config.Kernel {
	case Linear:
		if len(st.WLinear) != dim || len(st.WFold) != dim {
			return nil, errBadState("linear weights len %d/%d, dim %d", len(st.WLinear), len(st.WFold), dim)
		}
		if len(st.SVSlab) != 0 || len(st.SVNorm) != 0 || st.RFF != nil {
			return nil, errBadState("linear model carries RBF state")
		}
	case RBF:
		if len(st.WLinear) != 0 || len(st.WFold) != 0 {
			return nil, errBadState("RBF model carries linear weights")
		}
		if len(st.SVSlab) != nsv*dim {
			return nil, errBadState("slab len %d, want %d×%d", len(st.SVSlab), nsv, dim)
		}
		if len(st.SVNorm) != nsv {
			return nil, errBadState("norms len %d, want %d", len(st.SVNorm), nsv)
		}
	}
	if r := st.RFF; r != nil {
		switch {
		case r.NumFreq < 1 || r.Dim != dim:
			return nil, errBadState("rff shape %d×%d, dim %d", r.NumFreq, r.Dim, dim)
		case len(r.WProj) != r.NumFreq*dim,
			len(r.Phase) != r.NumFreq, len(r.WCos) != r.NumFreq, len(r.WSin) != r.NumFreq,
			len(r.WLin) != dim:
			return nil, errBadState("rff slice lengths inconsistent with %d×%d", r.NumFreq, dim)
		}
		for _, s := range [][]float64{r.WProj, r.Phase, r.WCos, r.WSin, r.WLin, {r.Bias}} {
			if !mathx.AllFinite(s) {
				return nil, errBadState("non-finite rff weights")
			}
		}
	}

	m := &Model{
		cfg:   st.Config,
		gamma: st.Gamma,
		dim:   dim,
		b:     st.B,
		bFold: st.BFold,
		scaler: &Scaler{
			Mean: append([]float64(nil), st.ScalerMean...),
			Std:  append([]float64(nil), st.ScalerStd...),
		},
		svCoef: append([]float64(nil), st.SVCoef...),
	}
	if st.Config.Kernel == Linear {
		m.wLinear = append([]float64(nil), st.WLinear...)
		m.wFold = append([]float64(nil), st.WFold...)
	} else {
		m.svSlab = append([]float64(nil), st.SVSlab...)
		m.svNorm = append([]float64(nil), st.SVNorm...)
	}
	if r := st.RFF; r != nil {
		m.rff = &rffModel{
			nf:    r.NumFreq,
			dim:   r.Dim,
			wProj: append([]float64(nil), r.WProj...),
			phase: append([]float64(nil), r.Phase...),
			wCos:  append([]float64(nil), r.WCos...),
			wSin:  append([]float64(nil), r.WSin...),
			wLin:  append([]float64(nil), r.WLin...),
			bias:  r.Bias,
		}
	}
	return m, nil
}

// WarmStateData is the serializable form of a WarmState: the dual
// variables plus the frozen standardization and its reuse accounting.
type WarmStateData struct {
	Alpha      []float64
	B          float64
	ScalerMean []float64
	ScalerStd  []float64
	N          int // training rows when the scaler was fitted
	Age        int // consecutive warm reuses of the frozen scaler
}

// Data exports the warm state for serialization (slices are copies).
func (w *WarmState) Data() WarmStateData {
	d := WarmStateData{
		Alpha: append([]float64(nil), w.Alpha...),
		B:     w.b,
		N:     w.n,
		Age:   w.age,
	}
	if w.scaler != nil {
		d.ScalerMean = append([]float64(nil), w.scaler.Mean...)
		d.ScalerStd = append([]float64(nil), w.scaler.Std...)
	}
	return d
}

// WarmStateFromData rebuilds a WarmState, validating it well enough
// that Solve's Usable gate and initWarm cannot be tripped up by a
// corrupt snapshot.
func WarmStateFromData(d WarmStateData) (*WarmState, error) {
	if len(d.ScalerMean) != len(d.ScalerStd) {
		return nil, errors.New("svm: invalid warm state: scaler length mismatch")
	}
	if !mathx.AllFinite(d.Alpha) || !mathx.AllFinite(d.ScalerMean) || !mathx.AllFinite(d.ScalerStd) ||
		!mathx.AllFinite([]float64{d.B}) {
		return nil, errors.New("svm: invalid warm state: non-finite values")
	}
	for _, sd := range d.ScalerStd {
		if !(sd > 0) {
			return nil, errors.New("svm: invalid warm state: non-positive scaler std")
		}
	}
	if d.N < 0 || d.Age < 0 {
		return nil, errors.New("svm: invalid warm state: negative counters")
	}
	w := &WarmState{
		Alpha: append([]float64(nil), d.Alpha...),
		b:     d.B,
		n:     d.N,
		age:   d.Age,
	}
	if len(d.ScalerMean) > 0 {
		w.scaler = &Scaler{
			Mean: append([]float64(nil), d.ScalerMean...),
			Std:  append([]float64(nil), d.ScalerStd...),
		}
	}
	return w, nil
}
