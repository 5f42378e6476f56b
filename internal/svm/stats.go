package svm

// SolveStats reports how one Solve call spent its effort, split the
// way the solver actually works: seeding (scaler + kdiag + warm error
// rebuild), kernel-row computation, and shrinking bookkeeping. The
// classifier's model-health layer records one of these per retrain so
// an operator can see where a slow refit went and whether the kernel
// cache is earning its memory.
//
// Counters are exact; the phase timings are wall-clock and only
// meaningful relative to each other (TotalSeconds includes solver time
// not attributed to a phase).
type SolveStats struct {
	// Warm reports whether the fit was seeded from a usable WarmState.
	Warm bool `json:"warm"`
	// Rows is the training-set size.
	Rows int `json:"rows"`
	// Iters is the number of examine steps the SMO loop ran.
	Iters int `json:"iters"`
	// Steps is the number of accepted takeStep updates.
	Steps int `json:"steps"`
	// KernelRows counts full kernel rows computed (cache misses plus
	// first touches); CacheHits/CacheMisses split the row lookups.
	KernelRows  int `json:"kernel_rows"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// ScalarEvals counts single kernel evaluations served outside any
	// cached row (the kernAt fallback on rejected steps).
	ScalarEvals int `json:"scalar_evals"`
	// Shrunk is how many examples working-set shrinking dropped;
	// Unshrinks is how many global restore-and-recheck passes ran.
	Shrunk    int `json:"shrunk"`
	Unshrinks int `json:"unshrinks"`
	// Pruned is how many support vectors post-solve reduced-set
	// selection dropped (Config.PruneTol; 0 when pruning is off).
	Pruned int `json:"pruned"`

	// Phase wall-clock split, in seconds.
	InitSeconds   float64 `json:"init_seconds"`
	KernelSeconds float64 `json:"kernel_seconds"`
	ShrinkSeconds float64 `json:"shrink_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`
}

// CacheHitRate returns the fraction of kernel-row lookups served from
// cache (full matrix or LRU), or 0 when there were none.
func (s *SolveStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}
