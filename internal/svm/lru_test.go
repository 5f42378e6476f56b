package svm

import (
	"testing"

	"exbox/internal/mathx"
)

func TestRowLRUBasics(t *testing.T) {
	c := newRowLRU(2)
	r1, r2, r3 := []float64{1}, []float64{2}, []float64{3}
	c.Put(1, r1)
	c.Put(2, r2)
	if row, ok := c.Get(1); !ok || &row[0] != &r1[0] {
		t.Fatal("row 1 should be cached")
	}
	// 1 was just used, so inserting 3 must evict 2 (the LRU), not 1.
	c.Put(3, r3)
	if _, ok := c.Get(2); ok {
		t.Fatal("row 2 should have been evicted as least recently used")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("row 1 (recently used) must survive the eviction")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("row 3 was just inserted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestCachedRowsMatchUncached is what lets the solver update its
// gradient incrementally from whatever kRow returns: kernel rows served
// through the LRU cache must agree bitwise with freshly computed ones,
// whether they were cached, evicted and recomputed, or never cached at
// all.
func TestCachedRowsMatchUncached(t *testing.T) {
	x, y := ringData(64, 31)
	cfg := DefaultConfig()
	gamma := 1.0 / float64(len(x[0]))
	scaler := FitScaler(x)
	xs := scaler.TransformAll(x)

	// One trainer on the full-matrix path, one forced onto a tiny LRU
	// so rows are constantly evicted and recomputed.
	full := newTrainer(cfg, gamma, xs, y)
	lru := newTrainer(cfg, gamma, xs, y)
	lru.kfull = nil
	lru.lru = newRowLRU(3)

	rng := mathx.NewRand(32)
	for step := 0; step < 500; step++ {
		i := rng.Intn(len(xs))
		a, b := full.kRow(i), lru.kRow(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d col %d: cached %v != uncached %v", i, j, b[j], a[j])
			}
		}
	}
	if lru.lru.Len() > 3 {
		t.Fatalf("lru grew past its capacity: %d", lru.lru.Len())
	}
}

// TestSolveSameThroughLRU runs one problem on the keep-every-row path
// and on a 3-row LRU that evicts nearly every row before its next use,
// including the support-vector rows unshrink rebuilds gradients from:
// both must land on the same duals bit for bit.
func TestSolveSameThroughLRU(t *testing.T) {
	x, y := overlapData(300, 4, 33)
	cfg := DefaultConfig()
	xs := FitScaler(x).TransformAll(x)
	var stats SolveStats
	full := newTrainer(cfg, 0.25, xs, y)
	full.stats = &stats
	lru := newTrainer(cfg, 0.25, xs, y)
	lru.kfull = nil
	lru.lru = newRowLRU(3)
	full.solve()
	lru.solve()
	if stats.Shrunk == 0 || stats.Capped {
		t.Fatalf("want a converged solve that parked rows, got %+v", stats)
	}
	for i := range full.alpha {
		if full.alpha[i] != lru.alpha[i] {
			t.Fatalf("alpha[%d]: %v with every row kept, %v through the LRU", i, full.alpha[i], lru.alpha[i])
		}
	}
	if full.b != lru.b {
		t.Fatalf("threshold: %v with every row kept, %v through the LRU", full.b, lru.b)
	}
}
