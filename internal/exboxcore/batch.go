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
// per-packet for the registry lookup, the training-lock handshake and
// the clock reads.

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
// classifier scratch, and the arrival each candidate was decided on
// with its decision (the outcomes and audit records need them after
// the classifier returns). One per worker, grown on demand, reused
// across bursts. Must not be shared concurrently.
type BurstScratch struct {
	clf      classifier.Scratch
	arrivals []excr.Arrival
	dec      []classifier.Decision
}

// AdmitBurst runs admission control for a burst of sequential
// candidates from ONE cell's ingest path, reproducing the per-packet
// matrix dynamics: candidate k's decision conditions on base plus
// every earlier candidate in the burst that was admitted (and is
// inside the space — the same rule TrackAdmitted applies). base is the
// admitted-traffic matrix at burst start; the caller applies
// TrackAdmitted for the admitted outcomes afterwards. This is the
// admission primitive: single-arrival Admit is a burst of one.
//
// The decisions are one classifier.DecideBurst: one model snapshot for
// the whole burst, each distinct (class, level) scored once per
// stretch of candidates between two in-space admits, and the
// classifier's counters, margin and health sample recorded for every
// candidate. Middlebox telemetry follows in a second pass so the whole
// burst shares one end-of-burst clock read: the audit-ring record
// against the matrix the candidate was decided on (its key string
// built once per distinct matrix), the 1-in-N-sampled latency
// histogram (one observation of the burst's per-decision average for
// every decision whose audit sequence number is a multiple of N), and
// the decision span on traced candidates. An untraced, unsampled burst
// reads the clock once (the audit stamp) and allocates one matrix per
// in-space admit that is not the burst's last candidate, so a burst of
// one is allocation-free. A nil bs allocates locally.
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
	// The burst is clocked when a candidate is traced (its decision span
	// carries the per-decision share) or the 1-in-N latency sample fires:
	// decisions are numbered by the audit ring's sequence, the burst
	// covers [seq, seq+n), and first is the distance from seq to the next
	// multiple of N (n when uninstrumented: never sampled).
	traced := false
	for _, c := range cands {
		if c.Trace != nil {
			traced = true
			break
		}
	}
	first := uint64(n)
	if mb.obs != nil {
		first = -mb.obs.ring.Seq() & mb.obs.latMask
	}
	sampled := first < uint64(n)
	var startOff time.Duration
	if sampled || traced {
		startOff = time.Since(epoch)
	}
	if cap(bs.arrivals) < n {
		bs.arrivals = make([]excr.Arrival, n)
	}
	arrivals := bs.arrivals[:n]
	for g, c := range cands {
		arrivals[g] = excr.Arrival{Class: c.Class, Level: c.Level}
	}
	bs.dec = cell.Classifier.DecideBurst(bs.dec, arrivals, base, &bs.clf)
	for g, d := range bs.dec {
		dst[g] = Outcome{Cell: id, Decision: d, Verdict: mb.verdict(d)}
	}

	var endOff, perDec time.Duration
	if mb.obs != nil || traced {
		endOff = time.Since(epoch)
	}
	if sampled {
		avg := (endOff - startOff).Seconds() / float64(n)
		for k := first; k < uint64(n); k += mb.obs.latMask + 1 {
			mb.obs.admitSeconds.Observe(avg)
		}
	}
	if traced {
		perDec = (endOff - startOff) / time.Duration(n)
	}
	nowNanos := epochNanos + int64(endOff)
	var key string // audit key of the current matrix, built once per distinct matrix
	for g, out := range dst {
		if mb.obs != nil && (g == 0 || !arrivals[g].Matrix.Equal(arrivals[g-1].Matrix)) {
			key = arrivals[g].Matrix.Key()
		}
		mb.recordOutcome(cell, arrivals[g], key, out, endOff)
		if ft := cands[g].Trace; ft != nil {
			ft.Add(DecisionSpan(nowNanos, perDec.Nanoseconds(), out))
		}
	}
	return dst, nil
}
