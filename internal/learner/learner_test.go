package learner

import (
	"errors"
	"testing"

	"exbox/internal/dtree"
	"exbox/internal/mathx"
	"exbox/internal/svm"
)

// lineData labels points by the sign of x0 + x1.
func lineData(n int, seed int64) (x [][]float64, y []float64) {
	rng := mathx.NewRand(seed)
	for len(x) < n {
		p := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		s := p[0] + p[1]
		if s > -0.3 && s < 0.3 {
			continue
		}
		x = append(x, p)
		if s > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	return x, y
}

func learners() []Learner {
	return []Learner{
		SVM{Config: svm.DefaultConfig()},
		Tree{Config: dtree.DefaultConfig()},
	}
}

func TestBothLearnersFitLine(t *testing.T) {
	x, y := lineData(300, 1)
	for _, l := range learners() {
		p, _, err := l.Train(x, y, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		correct := 0
		for i := range x {
			pred := -1.0
			if p.Decision(x[i]) >= 0 {
				pred = 1
			}
			if pred == y[i] {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(x)); acc < 0.95 {
			t.Fatalf("%s: training accuracy %v", l.Name(), acc)
		}
	}
}

func TestOneClassMapped(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 1, 1}
	for _, l := range learners() {
		_, _, err := l.Train(x, y, nil, nil)
		if !errors.Is(err, ErrOneClass) {
			t.Fatalf("%s: err = %v, want learner.ErrOneClass", l.Name(), err)
		}
	}
}

func TestNames(t *testing.T) {
	if (SVM{Config: svm.DefaultConfig()}).Name() != "svm-rbf" {
		t.Fatal("SVM name wrong")
	}
	if (Tree{}).Name() != "dtree" {
		t.Fatal("Tree name wrong")
	}
}

func TestCrossValidate(t *testing.T) {
	x, y := lineData(150, 2)
	rng := mathx.NewRand(3)
	for _, l := range learners() {
		acc, err := CrossValidate(l, x, y, 5, rng)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if acc < 0.9 {
			t.Fatalf("%s: cv accuracy %v", l.Name(), acc)
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	l := Tree{}
	x, y := lineData(10, 4)
	rng := mathx.NewRand(5)
	if _, err := CrossValidate(l, x, y, 1, rng); err == nil {
		t.Fatal("folds < 2 should error")
	}
	if _, err := CrossValidate(l, x, y[:5], 2, rng); err == nil {
		t.Fatal("mismatch should error")
	}
	if _, err := CrossValidate(l, x[:2], y[:2], 5, rng); err == nil {
		t.Fatal("too few samples should error")
	}
}

func TestCrossValidateOneClassFolds(t *testing.T) {
	// Mostly one class: majority fallback must keep CV defined.
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {100}}
	y := []float64{1, 1, 1, 1, 1, -1}
	rng := mathx.NewRand(6)
	acc, err := CrossValidate(Tree{}, x, y, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("cv accuracy %v out of range", acc)
	}
}
