package exboxcore

import (
	"fmt"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/obs/trace"
)

// This file is the middlebox's burst datapath: the batched Observe and
// Admit primitives the ingest ring drains into, and that single-arrival
// Admit/Observe call with a burst of one. A burst of n is pinned by
// tests to n bursts of one with the matrix advanced by the caller —
// same decisions bit for bit, same audit-ring records (modulo
// timestamps), same counter totals — while paying per-burst instead of
// per-packet for the registry lookup, the training-lock handshake, the
// clock reads, and the model-snapshot loads.

// ObserveBatch feeds a burst of labeled tuples to one cell's
// classifier under a single training-lock hold, then kicks the
// background retrainer once (when the cell defers retraining, crossing
// a batch boundary kicks the cell's worker instead of fitting inline;
// the classifier preserves per-sample phase transitions and the
// retrain latch absorbs the collapsed kicks).
//
// traces[i], when non-nil, receives the observe span for samples[i] —
// the ground-truth label fed back for the flow, closing the loop
// between what the classifier predicted and what the flow experienced.
// traces may be nil (no tracing) and must otherwise have len(samples)
// entries. Spans are stamped after the batched observe completes, so
// their timestamps are per-burst rather than per-sample — the span
// order within each flow's own timeline is unchanged.
func (mb *Middlebox) ObserveBatch(id CellID, samples []excr.Sample, traces []*trace.FlowTrace) error {
	if len(samples) == 0 {
		return nil
	}
	cell, ok := mb.cell(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCell, id)
	}
	cell.Classifier.ObserveBatch(samples)
	cell.kickRetrain()
	if traces != nil {
		now := time.Now().UnixNano()
		for i, ft := range traces {
			if ft == nil {
				continue
			}
			note := "label -1"
			if samples[i].Label == 1 {
				note = "label +1"
			}
			ft.Add(trace.Span{Kind: trace.KindObserve, UnixNanos: now, Note: note})
		}
	}
	return nil
}

// BurstCandidate is one admission candidate of an ingest burst, in
// packet order: the flow's traffic class and its SNR level already
// collapsed into the middlebox space (the gateway's level() rule), plus
// the flow's trace when it is sampled.
type BurstCandidate struct {
	Class excr.AppClass
	Level excr.SNRLevel
	Trace *trace.FlowTrace
}

// BurstScratch is caller-owned workspace for AdmitBurst: the
// classifier scratch plus the cascade's count, arrival and decision
// buffers. One per worker, grown on demand, reused across bursts. Must
// not be shared concurrently.
type BurstScratch struct {
	clf      classifier.Scratch
	counts   []int                 // running matrix counts across the burst
	cum      []int                 // assumed cumulative counts within a pass
	arrivals []excr.Arrival        // one pass's arrivals
	dec      []classifier.Decision // one pass's speculative decisions
	final    []classifier.Decision // committed decisions, packet order
	finalArr []excr.Arrival        // the arrival each commit was scored on
	bad      []bool                // committed Bad marks, packet order
}

// AdmitBurst runs admission control for a burst of sequential
// candidates from ONE cell's ingest path, reproducing the per-packet
// matrix dynamics: candidate k's decision conditions on base plus
// every earlier candidate in the burst that was admitted (and is
// inside the space — the same rule TrackAdmitted applies). base is the
// admitted-traffic matrix at burst start; the caller applies
// TrackAdmitted for the admitted outcomes afterwards. This is the
// admission primitive: single-arrival Admit is a burst of one, which
// runs one pass and none of the speculation below.
//
// The sequential dependency is resolved without falling back to scalar
// scoring by an adaptive-assumption cascade: each pass scores the
// whole uncommitted window in one PeekBatch under the running
// assumption (every window candidate admits, or every one rejects),
// then commits the longest prefix whose decisions matched the
// assumption PLUS the first breaker — the breaker's own input matrix
// depended only on the (confirmed) prefix, so its decision is valid
// too. The assumption flips to the breaker's verdict and the window
// shrinks. Every pass commits at least one candidate, so a burst of n
// costs at most n batch passes — the worst case (a strictly
// alternating admit/reject sequence) degrades to per-packet cost, and
// a verdict-homogeneous burst, the common case, costs one pass.
//
// Telemetry is recorded once per candidate in packet order after the
// cascade converges: classifier counters/margins/health via
// RecordDecision, the audit-ring record against the matrix the
// committed decision was actually scored on, the 1-in-16-sampled
// latency histogram (observing the burst's per-decision average), and
// the decision span on traced candidates. Speculative passes record
// nothing. An untraced, unsampled burst reads the clock once (the
// audit stamp) and allocates only the assumed matrices of candidates
// after the first, so a burst of one is allocation-free. A nil bs
// allocates locally.
func (mb *Middlebox) AdmitBurst(id CellID, base excr.Matrix, cands []BurstCandidate, dst []Outcome, bs *BurstScratch) ([]Outcome, error) {
	cell, ok := mb.cell(id)
	if !ok {
		return dst, fmt.Errorf("%w: %q", ErrUnknownCell, id)
	}
	n := len(cands)
	if cap(dst) < n {
		dst = make([]Outcome, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst, nil
	}
	if bs == nil {
		bs = &BurstScratch{}
	}
	// The burst is clocked when the 1-in-N latency sample fires (keyed
	// off the audit ring's sequence, which advances once per admission)
	// or a candidate is traced, whose decision span carries the
	// per-decision share.
	traced := false
	for _, c := range cands {
		if c.Trace != nil {
			traced = true
			break
		}
	}
	sampled := mb.obs != nil && mb.obs.ring.Seq()&mb.obs.latMask == 0
	var startOff time.Duration
	if sampled || traced {
		startOff = time.Since(epoch)
	}
	space := mb.Space
	dim := space.Dim()
	if cap(bs.counts) < dim {
		bs.counts = make([]int, dim)
		bs.cum = make([]int, dim)
	}
	counts, cum := bs.counts[:dim], bs.cum[:dim]
	base.CopyCounts(counts)
	if cap(bs.final) < n {
		bs.final = make([]classifier.Decision, n)
		bs.finalArr = make([]excr.Arrival, n)
		bs.bad = make([]bool, n)
	}
	final, finalArr, bad := bs.final[:n], bs.finalArr[:n], bs.bad[:n]

	// inSpace mirrors ShardedTable.tracked for a candidate about to be
	// admitted: only in-space (class, level) cells contribute to the
	// matrix. Levels are already collapsed by the caller.
	inSpace := func(c BurstCandidate) bool {
		return int(c.Class) >= 0 && int(c.Class) < space.Classes &&
			int(c.Level) >= 0 && int(c.Level) < space.Levels
	}

	committed := 0
	asm := true // assume-admit first: bootstrap and healthy cells mostly admit
	for committed < n {
		m := n - committed
		if cap(bs.arrivals) < m {
			bs.arrivals = make([]excr.Arrival, n)
		}
		arrivals := bs.arrivals[:m]
		if asm {
			// Assume every window candidate admits: candidate k sees
			// base + committed admits + assumed admits of 0..k-1 — for
			// the burst's first candidate that is base itself, uncopied.
			copy(cum, counts)
			for k := 0; k < m; k++ {
				c := cands[committed+k]
				mat := base
				if committed+k > 0 {
					mat = excr.MatrixFromCounts(space, cum)
				}
				arrivals[k] = excr.Arrival{Matrix: mat, Class: c.Class, Level: c.Level}
				if inSpace(c) {
					cum[space.CellIndex(c.Class, c.Level)]++
				}
			}
		} else {
			// Assume every window candidate rejects: the matrix never
			// moves, so the whole window shares one snapshot.
			mat := excr.MatrixFromCounts(space, counts)
			for k := 0; k < m; k++ {
				c := cands[committed+k]
				arrivals[k] = excr.Arrival{Matrix: mat, Class: c.Class, Level: c.Level}
			}
		}
		bs.dec = cell.Classifier.PeekBatch(bs.dec[:0], arrivals, &bs.clf)
		// Commit the matching prefix plus the first breaker; the
		// breaker flips the assumption for the next pass.
		commitEnd := m
		nextAsm := asm
		for k := 0; k < m; k++ {
			if bs.dec[k].Admit != asm {
				commitEnd = k + 1
				nextAsm = bs.dec[k].Admit
				break
			}
		}
		for k := 0; k < commitEnd; k++ {
			g := committed + k
			final[g] = bs.dec[k]
			finalArr[g] = arrivals[k]
			bad[g] = bs.clf.Bad(k)
			if bs.dec[k].Admit && inSpace(cands[g]) {
				counts[space.CellIndex(cands[g].Class, cands[g].Level)]++
			}
		}
		committed += commitEnd
		asm = nextAsm
	}

	var endOff, perDec time.Duration
	if mb.obs != nil || traced {
		endOff = time.Since(epoch)
	}
	if sampled {
		mb.obs.admitSeconds.Observe((endOff - startOff).Seconds() / float64(n))
	}
	if traced {
		perDec = (endOff - startOff) / time.Duration(n)
	}
	nowNanos := epochNanos + int64(endOff)
	for g := 0; g < n; g++ {
		d := final[g]
		out := Outcome{Cell: id, Decision: d, Verdict: mb.verdict(d)}
		dst[g] = out
		cell.Classifier.RecordDecision(d, bad[g])
		mb.recordOutcome(cell, finalArr[g], out, endOff)
		if ft := cands[g].Trace; ft != nil {
			ft.Add(DecisionSpan(nowNanos, perDec.Nanoseconds(), out))
		}
	}
	return dst, nil
}
