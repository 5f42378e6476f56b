package svm

// SolveStats reports how one Solve call spent its effort and how it
// ended: seeding (scaler + kdiag + the warm gradient sums), kernel-row
// computation, and the pair loop's iteration count and final violation.
// The classifier's model-health layer records one of these per retrain
// so an operator can see where a slow refit went, whether the kernel
// cache is earning its memory, and whether the fit converged.
//
// Counters are exact; the phase timings are wall-clock and only
// meaningful relative to each other (TotalSeconds includes solver time
// not attributed to a phase).
type SolveStats struct {
	// Warm reports whether the fit was seeded from a usable WarmState.
	Warm bool `json:"warm"`
	// Rows is the training-set size.
	Rows int `json:"rows"`
	// Iters is the number of pair updates the solve made; every
	// iteration moves two dual variables.
	Iters int `json:"iters"`
	// Gap is the maximal KKT violation m(α) − M(α) the solve ended on:
	// below Config.Tol for a converged fit. Capped reports that it ended
	// on Config.MaxIter instead, so the model is the solver's current
	// point, not an optimum.
	Gap    float64 `json:"gap"`
	Capped bool    `json:"capped"`
	// KernelRows counts full kernel rows computed (cache misses plus
	// first touches); CacheHits/CacheMisses split the row lookups.
	KernelRows  int `json:"kernel_rows"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Shrunk is how many rows shrinking had parked, out of Rows, when
	// the pair loop first converged (or hit MaxIter) and restored them.
	Shrunk int `json:"shrunk"`
	// Pruned is how many support vectors post-solve reduced-set
	// selection dropped (Config.PruneTol; 0 when pruning is off).
	Pruned int `json:"pruned"`

	// Phase wall-clock split, in seconds. The phases are disjoint:
	// kernel rows computed while seeding count as kernel time.
	InitSeconds   float64 `json:"init_seconds"`
	KernelSeconds float64 `json:"kernel_seconds"`
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
