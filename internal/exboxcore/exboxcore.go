// Package exboxcore assembles ExBox itself: the experience-management
// middlebox that sits at the WiFi controller or LTE PDN gateway,
// maintains one Admittance Classifier per cell, and uses them for the
// three QoE-management workflows of Section 4:
//
//   - Admission control: classify each arriving flow against its
//     cell's learned capacity region; inadmissible flows are
//     discontinued or deprioritized according to the administrator's
//     policy.
//   - Network selection: when several cells could carry a flow (e.g.
//     hybrid WiFi+LTE), admit it to the cell whose classifier places
//     the post-admission state deepest inside its capacity region
//     (largest SVM margin).
//   - Dynamics: periodically re-evaluate admitted flows against the
//     current traffic matrix; flows whose re-classification turns
//     negative are handed back for offload or discontinuation.
package exboxcore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/metrics"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
	"exbox/internal/obs/trace"
	"exbox/internal/qoe"
)

// Policy is what the middlebox does with an inadmissible flow
// (Section 4.2): drop it at the gateway or push it into a low-priority
// access category (802.11e-style).
type Policy int

const (
	// Discontinue drops inadmissible flows at the gateway.
	Discontinue Policy = iota
	// Deprioritize admits inadmissible flows into a best-effort,
	// low-priority class instead of dropping them.
	Deprioritize
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Discontinue {
		return "discontinue"
	}
	return "deprioritize"
}

// CellID names one access device (WiFi AP or LTE eNodeB).
type CellID string

// Cell is the middlebox's per-access-device state: a dedicated
// Admittance Classifier learning that cell's ExCR. Per-cell
// serialization lives inside the classifier (its training lock);
// cells never contend with each other.
type Cell struct {
	ID         CellID
	Classifier *classifier.AdmittanceClassifier

	// retrain is the coalescing latch for the background retrainer:
	// capacity 1, non-blocking sends. A burst of observations crossing
	// several batch boundaries collapses into one pending signal, so
	// the worker runs one fit over everything seen, not one per batch.
	// Nil unless the cell's classifier was configured with
	// DeferRetrain.
	retrain  chan struct{}
	stop     chan struct{}
	stopOnce sync.Once

	// Per-cell verdict counters, nil on an uninstrumented middlebox.
	admitN, rejectN, lowpriN *obs.Counter

	// SLO accounting: the burn-rate tracker (nil when SLO accounting
	// is off) and its counters/gauges (nil-safe when uninstrumented).
	slo                *sloTracker
	sloGoodN, sloBadN  *obs.Counter
	sloBreachN         *obs.Counter
	sloFastG, sloSlowG *obs.GaugeFloat

	// flightCell is this cell's interned index in the flight
	// recorder's cell table (0 when no recorder is wired).
	flightCell uint16

	// Snapshot-persistence accounting. The atomics count saves, loads,
	// rejected (corrupt/skewed) files and save failures whether or not
	// the middlebox is instrumented — /debug/health reads them directly;
	// instrumentCellLocked additionally exposes them as
	// clf_snapshot_{saves,loads,rejects}_total. snapMu guards the
	// last-saved watermark that lets an idle periodic sweep skip writes.
	snapSaves, snapLoads, snapRejects, snapSaveErrs atomic.Uint64
	snapMu                                          sync.Mutex
	snapSavedOnce                                   bool
	snapSavedSeq                                    uint64
	snapSavedObs                                    int

	// wired marks which registry this cell's metrics are registered in,
	// making Instrument idempotent per cell: re-instrumenting against
	// the same registry is a no-op, while a fresh (restarted) registry
	// re-wires everything.
	wired *obs.Registry
}

// kickRetrain signals the background retrainer if deferred work is
// pending; the capacity-1 latch coalesces repeated kicks.
func (c *Cell) kickRetrain() {
	if c.retrain == nil || !c.Classifier.RetrainPending() {
		return
	}
	select {
	case c.retrain <- struct{}{}:
	default:
	}
}

// retrainLoop is the cell's background worker: it waits on the latch
// and performs the deferred SVM fits off the admission path. With
// snapshot persistence enabled, each coalesced refit is followed by a
// snapshot write, so the on-disk state tracks every published fit —
// the ISSUE's "save on retrain-coalesce" hook.
func (mb *Middlebox) retrainLoop(c *Cell) {
	defer mb.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.retrain:
			t0 := time.Now()
			_ = c.Classifier.Maintain()
			if mb.flight != nil {
				mb.flight.Record(flightrec.Record{
					Kind:  flightrec.KindRetrain,
					Cell:  c.flightCell,
					Model: c.Classifier.ModelVersion(),
					Value: time.Since(t0).Seconds(),
				})
			}
			if dir := mb.snapshotDir(); dir != "" {
				// Save errors are counted (snapSaveErrs, surfaced by
				// /debug/health); a full disk must not stop retraining.
				_, _ = mb.saveCell(c, dir)
			}
		}
	}
}

// Verdict is the middlebox's disposition for one flow.
type Verdict int

const (
	// Admit carries the flow normally.
	Admit Verdict = iota
	// Reject drops the flow at the gateway.
	Reject
	// LowPriority admits the flow into the best-effort class.
	LowPriority
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case Reject:
		return "reject"
	default:
		return "low-priority"
	}
}

// Outcome reports one admission decision with its classifier detail.
type Outcome struct {
	Cell     CellID
	Verdict  Verdict
	Decision classifier.Decision
}

// Middlebox is the ExBox gateway component. It is safe for concurrent
// use: Admit (and the workflows built on it) is a lock-free read of
// each cell's atomically published model snapshot, Observe serializes
// only on the owning cell's training lock, and the cell registry is
// guarded by a read-write lock so lookups never contend with each
// other. Register cells with classifier.Config.DeferRetrain to move
// the batch SVM fits onto a per-cell background worker; such a
// middlebox should be Closed when done.
type Middlebox struct {
	Space     excr.Space
	Policy    Policy
	Estimator *qoe.Estimator // optional: network-side QoE estimation

	mu      sync.RWMutex // guards cells, order and snapDir
	cells   map[CellID]*Cell
	order   []CellID
	snapDir string         // retrain-hook snapshot directory, "" = off
	wg      sync.WaitGroup // per-cell retrain workers

	// obs is the telemetry hookup, nil when not instrumented. Set once
	// by Instrument before traffic; the hot path reads it without
	// synchronization.
	obs *mbObs

	// tracer is the flow-lifecycle tracer (nil when tracing is off).
	// Set once by InstrumentTracing before traffic; callers that thread
	// their own *trace.FlowTrace through BurstCandidate.Trace & co.
	// don't need it, but it lets the middlebox report sampling state and
	// promote flows on behalf of callers that only hold the middlebox.
	tracer *trace.Tracer

	// flight is the flight recorder (nil when not wired). Set once by
	// InstrumentFlightRecorder before traffic; independent of obs so a
	// middlebox can journal events without carrying the audit ring's
	// per-decision allocation. The hot path reads it without
	// synchronization; one enqueue is a by-value lock-free ring publish.
	flight *flightrec.Recorder

	// sloCfg enables per-cell SLO burn-rate accounting (nil = off).
	// Set once by EnableSLO before traffic.
	sloCfg *SLOConfig
}

// epoch/epochNanos turn one cheap monotonic read (time.Since) into a
// wall-clock stamp for audit records and decision spans: on the
// admission path a full time.Now() costs roughly twice a monotonic
// read.
var (
	epoch      = time.Now()
	epochNanos = epoch.UnixNano()
)

// mbObs bundles the middlebox-level metrics: the decision audit ring,
// the admission-latency histogram, and the workflow counters.
type mbObs struct {
	reg          *obs.Registry
	ring         *obs.AuditRing
	admitSeconds *obs.Histogram

	// latMask is the admission-latency sampling mask: a decision is
	// sampled when its audit sequence number &latMask == 0, i.e. 1 in
	// latMask+1 (default 15 → 1-in-16), and a burst is timed when it
	// holds such a decision. Power-of-two-minus-one by construction
	// (SetAdmitLatencySampling); set before traffic, read without
	// synchronization on the hot path.
	latMask uint64

	selections      *obs.Counter
	selectionAdmits *obs.Counter
	reevalCalls     *obs.Counter
	reevalFlows     *obs.Counter
	reevalEvicted   *obs.Counter
}

// New returns an empty middlebox for the given traffic-matrix space.
func New(space excr.Space, policy Policy) *Middlebox {
	if !space.Valid() {
		panic("exboxcore: invalid space")
	}
	return &Middlebox{Space: space, Policy: policy, cells: make(map[CellID]*Cell)}
}

// Instrument attaches the middlebox to a metric registry: it creates
// the decision audit ring (the last auditSize admissions; <= 0
// defaults to 256), the admission-latency histogram and the workflow
// counters, and wires per-cell verdict counters plus the full
// classifier.Metrics set (and model-health monitoring) for every cell
// — cells already registered and cells added later alike. Call it
// before the middlebox sees traffic; the admission path reads the
// hookup without synchronization, and every update it makes is a lone
// atomic operation (plus the audit ring's one record allocation), so
// instrumentation adds no locks.
//
// Instrument is idempotent per (cell, registry): calling it again with
// the same registry — say, after AddCell, to pick up the new cell —
// re-wires only cells not yet wired to it and keeps the existing audit
// ring, so counters are never double-registered and the ring's history
// survives. A different registry (a restart with fresh telemetry)
// re-wires everything and gets a fresh ring.
func (mb *Middlebox) Instrument(reg *obs.Registry, auditSize int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.obs == nil || mb.obs.reg != reg {
		ring := obs.NewAuditRing(auditSize)
		reg.SetRing(ring)
		mb.obs = &mbObs{
			reg:     reg,
			ring:    ring,
			latMask: 15,
			// 100ns .. ~1.7s: admission is a lock-free model read, so the
			// low end of the range is where the mass should sit.
			admitSeconds:    reg.Histogram("exbox_admit_seconds", obs.ExpBuckets(1e-7, 4, 12)),
			selections:      reg.Counter("exbox_select_total"),
			selectionAdmits: reg.Counter("exbox_select_admitted_total"),
			reevalCalls:     reg.Counter("exbox_reevaluate_total"),
			reevalFlows:     reg.Counter("exbox_reevaluate_flows_total"),
			reevalEvicted:   reg.Counter("exbox_reevaluate_evicted_total"),
		}
		// The effective sampling rate is exported so timeline consumers
		// can de-bias the sampled latency series.
		reg.Gauge("exbox_admit_latency_sample_rate").Set(int64(mb.obs.latMask + 1))
	}
	for _, id := range mb.order {
		mb.instrumentCellLocked(mb.cells[id])
	}
}

// SetAdmitLatencySampling sets the admission-latency sampling rate to
// 1-in-n, rounding n up to a power of two (n <= 1 means every
// decision), and returns the effective n — also exported as the
// exbox_admit_latency_sample_rate gauge. Call after Instrument and
// before the middlebox sees traffic: the hot path reads the mask
// without synchronization. A no-op (returning 0) when the middlebox is
// not instrumented, since sampling keys off the audit ring's sequence.
func (mb *Middlebox) SetAdmitLatencySampling(n int) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.obs == nil {
		return 0
	}
	if n < 1 {
		n = 1
	}
	eff := 1
	for eff < n {
		eff <<= 1
	}
	mb.obs.latMask = uint64(eff - 1)
	mb.obs.reg.Gauge("exbox_admit_latency_sample_rate").Set(int64(eff))
	return eff
}

// InstrumentFlightRecorder attaches the flight recorder: every
// admission verdict (and, via the health/retrain/snapshot hooks, every
// notable lifecycle event) is journaled as one fixed-width record. The
// enqueue is a single lock-free by-value ring publish — no locks, no
// allocations — so it rides the zero-allocation admission path, and it
// is independent of Instrument: a middlebox can journal without
// carrying the audit ring. Call before traffic; cell names are
// interned into the recorder's table here. A nil recorder detaches.
func (mb *Middlebox) InstrumentFlightRecorder(fr *flightrec.Recorder) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.flight = fr
	for _, id := range mb.order {
		mb.cells[id].flightCell = fr.CellIndex(string(id))
	}
}

// FlightRecorder returns the attached flight recorder, or nil.
func (mb *Middlebox) FlightRecorder() *flightrec.Recorder {
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	return mb.flight
}

// InstrumentTracing attaches the flow-lifecycle tracer. Like
// Instrument, call it before the middlebox sees traffic. A nil tracer
// turns tracing off.
func (mb *Middlebox) InstrumentTracing(tr *trace.Tracer) {
	mb.mu.Lock()
	mb.tracer = tr
	mb.mu.Unlock()
}

// Tracer returns the attached flow-lifecycle tracer, or nil.
func (mb *Middlebox) Tracer() *trace.Tracer {
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	return mb.tracer
}

// metricName folds a cell ID into a valid metric-name fragment; the
// rule lives in obs.SanitizeName so timeline consumers can apply the
// same mapping.
func metricName(id string) string {
	return obs.SanitizeName(id)
}

// instrumentCellLocked wires one cell's verdict counters, its
// classifier metrics and its model-health monitor into the attached
// registry, at most once per registry. Caller holds mu and has checked
// mb.obs != nil.
func (mb *Middlebox) instrumentCellLocked(c *Cell) {
	reg := mb.obs.reg
	if c.wired == reg {
		return
	}
	p := "exbox_cell_" + metricName(string(c.ID)) + "_"
	c.admitN = reg.Counter(p + "admit_total")
	c.rejectN = reg.Counter(p + "reject_total")
	c.lowpriN = reg.Counter(p + "lowpriority_total")
	admits := reg.Counter(p + "clf_admit_total")
	rejects := reg.Counter(p + "clf_reject_total")
	// Total decisions are derived so Decide pays one verdict counter,
	// not two.
	reg.GaugeFunc(p+"clf_decisions_total", func() float64 {
		return float64(admits.Value() + rejects.Value())
	})
	c.Classifier.SetMetrics(classifier.Metrics{
		BootstrapDecisions: reg.Counter(p + "clf_bootstrap_decisions_total"),
		Admits:             admits,
		Rejects:            rejects,
		Margin:             reg.HistogramNoSum(p+"clf_margin", obs.SignedExpBuckets(0.01, 4, 8)),
		Observations:       reg.Counter(p + "clf_observations_total"),
		Replacements:       reg.Counter(p + "clf_replacements_total"),
		Evictions:          reg.Counter(p + "clf_evictions_total"),
		TrainingSize:       reg.Gauge(p + "clf_training_size"),
		Fits:               reg.Counter(p + "clf_fits_total"),
		WarmFits:           reg.Counter(p + "clf_warm_fits_total"),
		FitErrors:          reg.Counter(p + "clf_fit_errors_total"),
		CappedFits:         reg.Counter(p + "clf_fits_capped_total"),
		FitSeconds:         reg.Histogram(p+"clf_fit_seconds", obs.ExpBuckets(1e-5, 4, 12)),
		CVChecks:           reg.Counter(p + "clf_cv_checks_total"),
		CVScore:            reg.GaugeFloat(p + "clf_cv_score"),
		Graduations:        reg.Counter(p + "clf_graduations_total"),
		KernelCacheHits:    reg.Counter(p + "clf_kernel_cache_hits_total"),
		KernelCacheMisses:  reg.Counter(p + "clf_kernel_cache_misses_total"),
		// Bad features are a middlebox-wide anomaly (corrupt observation
		// or a poisoned model), not a per-cell rate: one shared counter.
		BadFeatures:   reg.Counter("exbox_bad_features_total"),
		RFFDemotions:  reg.Counter(p + "clf_rff_demotions_total"),
		RFFPromotions: reg.Counter(p + "clf_rff_promotions_total"),
	})
	// Snapshot persistence counts on the cell's own atomics (health
	// reads them even uninstrumented); the registry view is derived.
	reg.GaugeFunc(p+"clf_snapshot_saves_total", func() float64 { return float64(c.snapSaves.Load()) })
	reg.GaugeFunc(p+"clf_snapshot_loads_total", func() float64 { return float64(c.snapLoads.Load()) })
	reg.GaugeFunc(p+"clf_snapshot_rejects_total", func() float64 { return float64(c.snapRejects.Load()) })
	// An instrumented cell is a production cell: turn on model-health
	// monitoring (first EnableHealth call wins, so a custom config set
	// before Instrument is kept).
	c.Classifier.EnableHealth(classifier.DefaultHealthConfig())
	if c.slo != nil {
		mb.wireSLOLocked(c)
	}
	c.wired = reg
}

// AuditRing returns the decision audit ring, or nil when the
// middlebox is not instrumented.
func (mb *Middlebox) AuditRing() *obs.AuditRing {
	if mb.obs == nil {
		return nil
	}
	return mb.obs.ring
}

// AddCell registers an access device and creates its Admittance
// Classifier with the given configuration. With cfg.DeferRetrain the
// cell gets a background retrain worker, stopped by Close. On an
// instrumented middlebox the cell's metrics are wired immediately.
func (mb *Middlebox) AddCell(id CellID, cfg classifier.Config) (*Cell, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if _, dup := mb.cells[id]; dup {
		return nil, fmt.Errorf("exboxcore: cell %q already registered", id)
	}
	c := &Cell{ID: id, Classifier: classifier.New(mb.Space, cfg)}
	if mb.flight != nil {
		c.flightCell = mb.flight.CellIndex(string(id))
	}
	if mb.sloCfg != nil {
		c.slo = newSLOTracker(*mb.sloCfg)
	}
	if mb.obs != nil {
		mb.instrumentCellLocked(c)
	}
	if cfg.DeferRetrain {
		c.retrain = make(chan struct{}, 1)
		c.stop = make(chan struct{})
		mb.wg.Add(1)
		go mb.retrainLoop(c)
	}
	mb.cells[id] = c
	mb.order = append(mb.order, id)
	return c, nil
}

// Close stops the per-cell background retrain workers. It is only
// needed when cells were registered with DeferRetrain; on a fully
// synchronous middlebox it is a no-op. Safe to call more than once.
func (mb *Middlebox) Close() {
	mb.mu.RLock()
	for _, c := range mb.cells {
		if c.stop != nil {
			c.stopOnce.Do(func() { close(c.stop) })
		}
	}
	mb.mu.RUnlock()
	mb.wg.Wait()
}

// Cell returns the registered cell, or nil.
func (mb *Middlebox) Cell(id CellID) *Cell {
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	return mb.cells[id]
}

// Cells returns the registered cells in registration order.
func (mb *Middlebox) Cells() []*Cell {
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	out := make([]*Cell, 0, len(mb.order))
	for _, id := range mb.order {
		out = append(out, mb.cells[id])
	}
	return out
}

// cell is the read-locked registry lookup behind every workflow.
func (mb *Middlebox) cell(id CellID) (*Cell, bool) {
	mb.mu.RLock()
	c, ok := mb.cells[id]
	mb.mu.RUnlock()
	return c, ok
}

// ErrUnknownCell is returned for operations on unregistered cells.
var ErrUnknownCell = errors.New("exboxcore: unknown cell")

// burstPool backs single-arrival Admit, so callers that don't hold
// their own BurstScratch still hit the zero-allocation path.
var burstPool = sync.Pool{New: func() any { return new(BurstScratch) }}

// Admit runs admission control for an arrival on one cell and applies
// the policy to the classifier's answer. It is AdmitBurst of one
// candidate on a pooled BurstScratch: the decision is a lock-free read
// of the cell's published model, so concurrent admissions scale with
// GOMAXPROCS, and the steady state allocates nothing beyond the audit
// ring's record.
func (mb *Middlebox) Admit(id CellID, a excr.Arrival) (Outcome, error) {
	bs := burstPool.Get().(*BurstScratch)
	var one [1]Outcome
	dst, err := mb.AdmitBurst(id, a.Matrix, []BurstCandidate{{Class: a.Class, Level: a.Level}}, one[:0], bs)
	burstPool.Put(bs)
	if err != nil {
		return Outcome{}, err
	}
	return dst[0], nil
}

// DecisionSpan builds the trace span for one admission outcome. It is
// exported so callers that promote a flow's trace after the fact (a
// rejection that head sampling skipped) can backfill the decision span
// they already hold the Outcome for.
func DecisionSpan(unixNanos, durNanos int64, out Outcome) trace.Span {
	return trace.Span{
		Kind:      trace.KindDecision,
		UnixNanos: unixNanos,
		DurNanos:  durNanos,
		Verdict:   out.Verdict.String(),
		Margin:    out.Decision.Margin,
		Depth:     out.Decision.Depth,
		Model:     out.Decision.Model,
		Bootstrap: out.Decision.Bootstrap,
	}
}

// verdict applies the middlebox policy to a classifier decision.
func (mb *Middlebox) verdict(d classifier.Decision) Verdict {
	if d.Admit {
		return Admit
	}
	if mb.Policy == Deprioritize {
		return LowPriority
	}
	return Reject
}

// recordOutcome is the one place an Outcome reaches the middlebox's
// per-decision telemetry: the cell's verdict counter, the audit-ring
// record, and — when a flight recorder is wired — the journal record
// carrying the audit ring's sequence, so exlog can replay verdicts
// bit-for-bit against the audit trail. key is a.Matrix.Key() for the
// audit record, which callers build only when instrumented and share
// across outcomes decided on one matrix. endOff is the monotonic offset
// from epoch for the timestamp. On an uninstrumented middlebox only the
// journal enqueue remains (the recorder stamps the record itself),
// which keeps that configuration allocation-free.
func (mb *Middlebox) recordOutcome(cell *Cell, a excr.Arrival, key string, out Outcome, endOff time.Duration) {
	if mb.obs == nil {
		if mb.flight != nil {
			mb.recordFlight(cell, a, out, 0, 0)
		}
		return
	}
	switch out.Verdict {
	case Admit:
		cell.admitN.Inc()
	case Reject:
		cell.rejectN.Inc()
	default:
		cell.lowpriN.Inc()
	}
	stamp := epochNanos + int64(endOff)
	seq := mb.obs.ring.Record(obs.DecisionRecord{
		UnixNanos: stamp,
		Cell:      string(out.Cell),
		Class:     int(a.Class),
		Level:     int(a.Level),
		Matrix:    key,
		Margin:    out.Decision.Margin,
		Depth:     out.Decision.Depth,
		Verdict:   out.Verdict.String(),
		Bootstrap: out.Decision.Bootstrap,
		Model:     out.Decision.Model,
	})
	if mb.flight != nil {
		mb.recordFlight(cell, a, out, stamp, seq)
	}
}

// recordFlight journals one admission decision: a single by-value
// lock-free ring publish, zero allocations. Caller has checked
// mb.flight != nil; stamp 0 lets the recorder stamp the record.
func (mb *Middlebox) recordFlight(cell *Cell, a excr.Arrival, out Outcome, stamp int64, seq uint64) {
	var flags uint8
	if out.Decision.Bootstrap {
		flags |= flightrec.FlagBootstrap
	}
	mb.flight.Record(flightrec.Record{
		UnixNanos: stamp,
		Seq:       seq,
		Model:     out.Decision.Model,
		Value:     out.Decision.Margin,
		Aux:       out.Decision.Depth,
		Cell:      cell.flightCell,
		Class:     int8(a.Class),
		Level:     int8(a.Level),
		Kind:      flightrec.KindAdmission,
		Verdict:   uint8(out.Verdict),
		Flags:     flags,
	})
}

// Observe feeds a ground-truth labeled tuple to one cell's classifier:
// ObserveBatch of one, untraced.
func (mb *Middlebox) Observe(id CellID, s excr.Sample) error {
	return mb.ObserveBatch(id, []excr.Sample{s}, nil)
}

// Candidate pairs a cell with the arrival as that cell would see it
// (each cell carries its own current traffic matrix).
type Candidate struct {
	Cell    CellID
	Arrival excr.Arrival
}

// SelectNetwork implements Section 4.1: classify the flow against
// every candidate cell; among the cells that admit it, pick the one
// whose post-admission state sits deepest inside the capacity region.
// Depth (the margin normalized per cell) is compared rather than the
// raw margin, because raw SVM decision values are not on a common
// scale across independently trained cells. Bootstrap-phase cells
// admit with depth 0, so a trained cell that admits wins over a
// bootstrapping one.
//
// The boolean result is false when no candidate admits the flow; the
// returned Outcome is then the least-bad candidate under the policy.
//
// Candidates are grouped by cell and each group is scored with one
// DecideBatch call, so every candidate of a cell sees one consistent
// model snapshot. Per-candidate telemetry (verdict counters,
// audit-ring records) is preserved; the 1-in-16 admission latency
// sample is not taken here, as selection has its own counters. s is
// optional caller-owned classifier workspace (nil uses the
// classifier's pool); ft, when non-nil, receives one Select span
// summarizing the fan-out — how many candidates, which cell won, or
// that none admitted.
func (mb *Middlebox) SelectNetwork(cands []Candidate, s *classifier.Scratch, ft *trace.FlowTrace) (Outcome, bool, error) {
	if len(cands) == 0 {
		return Outcome{}, false, errors.New("exboxcore: no candidates")
	}
	var t0 time.Time
	if ft != nil {
		t0 = time.Now()
	}
	if mb.obs != nil {
		mb.obs.selections.Inc()
	}
	// Deterministic evaluation order; equal cells end up adjacent, so
	// groups are contiguous runs.
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cell < sorted[j].Cell })

	var best Outcome
	var bestOK bool
	var arrivals []excr.Arrival
	var decisions []classifier.Decision
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Cell == sorted[i].Cell {
			j++
		}
		cell, ok := mb.cell(sorted[i].Cell)
		if !ok {
			return Outcome{}, false, fmt.Errorf("%w: %q", ErrUnknownCell, sorted[i].Cell)
		}
		arrivals = arrivals[:0]
		for _, cand := range sorted[i:j] {
			arrivals = append(arrivals, cand.Arrival)
		}
		decisions = cell.Classifier.DecideBatch(decisions[:0], arrivals, s)
		var endOff time.Duration
		if mb.obs != nil {
			endOff = time.Since(epoch)
		}
		for k, d := range decisions {
			out := Outcome{Cell: sorted[i].Cell, Decision: d, Verdict: mb.verdict(d)}
			var key string
			if mb.obs != nil {
				key = arrivals[k].Matrix.Key()
			}
			mb.recordOutcome(cell, arrivals[k], key, out, endOff)
			admits := out.Verdict == Admit
			switch {
			case admits && (!bestOK || out.Decision.Depth > best.Decision.Depth):
				best, bestOK = out, true
			case !bestOK && (best.Cell == "" || out.Decision.Depth > best.Decision.Depth):
				best = out
			}
		}
		i = j
	}
	if bestOK && mb.obs != nil {
		mb.obs.selectionAdmits.Inc()
	}
	if ft != nil {
		now := time.Now()
		sp := trace.Span{
			Kind:      trace.KindSelect,
			UnixNanos: now.UnixNano(),
			DurNanos:  now.Sub(t0).Nanoseconds(),
			Margin:    best.Decision.Margin,
			Depth:     best.Decision.Depth,
			Model:     best.Decision.Model,
			Note:      fmt.Sprintf("%d candidates", len(cands)),
		}
		if bestOK {
			sp.Verdict = "cell:" + string(best.Cell)
		} else {
			sp.Verdict = "no-admitting-cell"
		}
		ft.Add(sp)
	}
	return best, bestOK, nil
}

// ActiveFlow describes one admitted flow for re-evaluation.
type ActiveFlow struct {
	ID    int
	Class excr.AppClass
	Level excr.SNRLevel
	// Trace, when non-nil, receives the re-evaluation verdict as a
	// span: a coalesced Monitor "keep" per sweep streak, or a
	// Reevaluate "evict" when the classification flips. Untraced flows
	// leave it nil and pay one branch.
	Trace *trace.FlowTrace
}

// ReevaluateWith implements Section 4.3: for each admitted flow, rebuild
// the X tuple it would present if it arrived now (the current matrix
// minus the flow itself) and reclassify. Flows whose classification
// turned negative are returned for offload or discontinuation.
//
// current must be the cell's present traffic matrix including all the
// given flows.
//
// Flows sharing a matrix cell present the exact same re-arrival tuple
// (current minus one flow of that class and level), so the sweep
// classifies each distinct (class, level) once — at most Space.Dim()
// decisions however many flows are active — and the whole set is
// scored with one DecideBatch call against a single model snapshot,
// giving every flow in the sweep a consistent view of the boundary. s
// is optional caller-owned classifier workspace (nil uses the
// classifier's pool).
func (mb *Middlebox) ReevaluateWith(id CellID, current excr.Matrix, active []ActiveFlow, s *classifier.Scratch) ([]ActiveFlow, error) {
	cell, ok := mb.cell(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCell, id)
	}
	// Validate and group up front: group[cellIndex] is the slot in
	// arrivals covering that (class, level), -1 when no active flow
	// maps there.
	group := make([]int, mb.Space.Dim())
	for i := range group {
		group[i] = -1
	}
	var arrivals []excr.Arrival
	for _, f := range active {
		lvl := f.Level
		if mb.Space.Levels == 1 {
			lvl = 0
		}
		if current.Get(f.Class, lvl) == 0 {
			return nil, fmt.Errorf("exboxcore: flow %d (%v,%v) not present in matrix %v", f.ID, f.Class, lvl, current)
		}
		if idx := mb.Space.CellIndex(f.Class, lvl); group[idx] < 0 {
			group[idx] = len(arrivals)
			arrivals = append(arrivals, excr.Arrival{Matrix: current.Dec(f.Class, lvl), Class: f.Class, Level: lvl})
		}
	}
	decisions := cell.Classifier.DecideBatch(nil, arrivals, s)
	var evict []ActiveFlow
	var nowNanos int64 // one clock read per sweep, only if anything is traced
	for _, f := range active {
		lvl := f.Level
		if mb.Space.Levels == 1 {
			lvl = 0
		}
		d := decisions[group[mb.Space.CellIndex(f.Class, lvl)]]
		if !d.Admit {
			evict = append(evict, f)
		}
		if f.Trace != nil {
			if nowNanos == 0 {
				nowNanos = time.Now().UnixNano()
			}
			sp := trace.Span{UnixNanos: nowNanos, Margin: d.Margin, Depth: d.Depth, Model: d.Model}
			if d.Admit {
				sp.Kind, sp.Verdict = trace.KindMonitor, "keep"
				f.Trace.AddCoalesced(sp)
			} else {
				sp.Kind, sp.Verdict = trace.KindReevaluate, "evict"
				f.Trace.Add(sp)
			}
		}
	}
	if mb.obs != nil {
		mb.obs.reevalCalls.Inc()
		mb.obs.reevalFlows.Add(int64(len(active)))
		mb.obs.reevalEvicted.Add(int64(len(evict)))
	}
	// SLO accounting: every monitored flow that stays inside the
	// capacity region is a good QoE tick, every eviction a bad one —
	// the sliding-window substrate the burn-rate alert reads.
	if cell.slo != nil && len(active) > 0 {
		good := len(active) - len(evict)
		if nowNanos == 0 {
			nowNanos = time.Now().UnixNano()
		}
		cell.slo.add(nowNanos, good, len(evict))
		cell.sloGoodN.Add(int64(good))
		cell.sloBadN.Add(int64(len(evict)))
	}
	return evict, nil
}

// EstimateQoE exposes the network-side QoE estimate for a flow when an
// estimator is configured.
func (mb *Middlebox) EstimateQoE(class excr.AppClass, q metrics.QoS) (float64, error) {
	if mb.Estimator == nil {
		return 0, errors.New("exboxcore: no QoE estimator configured")
	}
	return mb.Estimator.Estimate(class, q)
}
