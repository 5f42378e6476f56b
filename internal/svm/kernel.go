// Package svm implements the support-vector-machine learner at the
// heart of ExBox's Admittance Classifier: a from-scratch soft-margin
// binary SVM trained by sequential minimal optimization the way libsvm
// runs it (maximal-violating pair, second-order working-set selection;
// see trainer.solve), with linear and Gaussian (RBF) kernels, feature
// standardization, and n-fold cross-validation.
//
// The paper uses an off-the-shelf SVM library; this package plays that
// role with stdlib-only Go. Problem sizes in ExBox are small (tens to
// a few thousand training tuples, dimension k·r+2), so kernel rows are
// computed on demand and kept for the solve, which keeps the
// training-latency benchmarks of Section 5.3 meaningful.
package svm

import (
	"fmt"
	"math"

	"exbox/internal/mathx"
)

// KernelKind selects the kernel function used by the SVM.
type KernelKind int

const (
	// Linear is the inner-product kernel K(a,b) = a·b.
	Linear KernelKind = iota
	// RBF is the Gaussian kernel K(a,b) = exp(-gamma·|a-b|²).
	RBF
)

// String implements fmt.Stringer.
func (k KernelKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case RBF:
		return "rbf"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// kernelFunc returns the kernel evaluation function for the kind, with
// gamma applied for RBF.
func kernelFunc(kind KernelKind, gamma float64) func(a, b []float64) float64 {
	switch kind {
	case Linear:
		return mathx.Dot
	case RBF:
		return func(a, b []float64) float64 {
			return math.Exp(-gamma * mathx.SqDist(a, b))
		}
	default:
		panic(fmt.Sprintf("svm: unknown kernel %v", kind))
	}
}
