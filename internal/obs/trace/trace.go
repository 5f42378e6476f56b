// Package trace is the flow-lifecycle tracing layer: per-flow spans
// from arrival through classification, admission decision, monitor
// verdicts and re-evaluation to expiry, collected into a lock-free
// bounded ring and exported as JSON on /debug/traces.
//
// Sampling is head-based and allocation-conscious: whether a flow is
// traced is decided once, at arrival, by hashing its trace ID — a pure
// function, no state, no allocation — so the untraced hot path pays a
// single branch. Flows that become interesting only later (a rejected
// admission, a re-evaluation flip) are promoted into the ring
// after the fact with their arrival span backfilled, so the traces an
// operator actually needs are always captured regardless of the
// sampling rate.
//
// A FlowTrace is published into the ring when it starts, so in-flight
// traces are visible to scrapes; spans are appended under a per-trace
// mutex that only sampled flows ever touch. Span storage belongs to
// the ring slot, not to the trace: a starting trace takes over the
// fixed-capacity span array of the trace it pushes out of the ring, so
// the tracer owns ring-size arrays however many flows still hold a
// *FlowTrace. An evicted trace can no longer be scraped; it counts any
// further span as dropped. Appends never grow the array, and periodic
// spans (monitor verdicts) coalesce into their predecessor instead of
// accumulating, so a long-lived flow's trace stays bounded.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ID identifies one flow across its trace spans. The gateway derives
// it from the flow key, so both directions of a flow share an ID.
type ID uint64

// IDFromString hashes a flow key (FNV-64a) into a trace ID.
func IDFromString(s string) ID {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return ID(h)
}

// SpanKind names one phase of the flow lifecycle.
type SpanKind uint8

// The lifecycle phases a span can cover, in their natural order.
const (
	// KindArrival marks the flow's first packet.
	KindArrival SpanKind = iota
	// KindClassify is traffic classification from the head packets.
	KindClassify
	// KindDecision is the admission decision (margin, model version).
	KindDecision
	// KindSelect is a network-selection evaluation across cells.
	KindSelect
	// KindMonitor is a periodic re-evaluation that kept the flow;
	// consecutive keeps coalesce into one span with a count.
	KindMonitor
	// KindReevaluate is a re-evaluation verdict that flipped the flow
	// to evicted (Section 4.3 dynamics).
	KindReevaluate
	// KindObserve is the ground-truth feedback sample fed back for
	// online learning when the flow ends.
	KindObserve
	// KindExpiry marks the flow leaving the table.
	KindExpiry
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindClassify:
		return "classify"
	case KindDecision:
		return "decision"
	case KindSelect:
		return "select"
	case KindMonitor:
		return "monitor"
	case KindReevaluate:
		return "reevaluate"
	case KindObserve:
		return "observe"
	case KindExpiry:
		return "expiry"
	default:
		return fmt.Sprintf("kind%d", uint8(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the name form MarshalJSON writes, so exported
// traces round-trip (test harnesses re-read /debug/traces).
func (k *SpanKind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for c := KindArrival; c <= KindExpiry; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("trace: unknown span kind %q", s)
}

// Span is one event or phase in a flow's lifecycle. Numeric fields
// carry the classifier detail the span kind calls for (margin, depth
// and model version on decisions and re-evaluations); unused fields
// stay zero and are elided from the JSON.
type Span struct {
	Kind      SpanKind `json:"kind"`
	UnixNanos int64    `json:"unix_nanos"`
	DurNanos  int64    `json:"dur_nanos,omitempty"`
	// Count is how many consecutive identical events this span stands
	// for (see FlowTrace.AddCoalesced); 0 and 1 both mean one.
	Count     int     `json:"count,omitempty"`
	Verdict   string  `json:"verdict,omitempty"`
	Margin    float64 `json:"margin,omitempty"`
	Depth     float64 `json:"depth,omitempty"`
	Model     uint64  `json:"model,omitempty"`
	Bootstrap bool    `json:"bootstrap,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// maxSpans caps the spans kept per trace. The storage is allocated
// once per ring slot and handed from trace to trace (Tracer.Start);
// later spans are counted as dropped rather than grown into.
// Coalescing keeps ordinary lifecycles far below the cap.
const maxSpans = 24

// FlowTrace accumulates one flow's spans. It is created by a Tracer
// (Start or Promote) and already published: scrapes may read it while
// the flow is still live, so appends and snapshots synchronize on an
// internal mutex that only traced flows ever touch. All methods are
// nil-safe, so untraced flows (a nil *FlowTrace) cost one branch.
type FlowTrace struct {
	id     ID
	cell   string
	reason string

	mu      sync.Mutex
	class   int
	level   int
	spans   []Span // the ring slot's array; nil once evicted from the ring
	dropped int
	verdict string // latest decision / re-evaluation verdict
	done    bool
}

// Add appends one span, dropping it (and counting the drop) when the
// trace is at capacity or has been evicted from the ring.
func (ft *FlowTrace) Add(s Span) {
	if ft == nil {
		return
	}
	ft.mu.Lock()
	ft.addLocked(s)
	ft.mu.Unlock()
}

// AddCoalesced appends one span, merging it into the previous span
// when that span has the same kind and verdict: the predecessor's
// count and timestamp advance instead of a new span accumulating.
// Periodic monitor verdicts use this so a long-lived flow's trace
// stays one span per verdict streak, not one per tick.
func (ft *FlowTrace) AddCoalesced(s Span) {
	if ft == nil {
		return
	}
	ft.mu.Lock()
	if n := len(ft.spans); n > 0 {
		last := &ft.spans[n-1]
		if last.Kind == s.Kind && last.Verdict == s.Verdict {
			if last.Count == 0 {
				last.Count = 1
			}
			last.Count++
			last.DurNanos = s.UnixNanos - last.UnixNanos
			last.Margin = s.Margin
			last.Depth = s.Depth
			last.Model = s.Model
			ft.mu.Unlock()
			return
		}
	}
	ft.addLocked(s)
	ft.mu.Unlock()
}

// addLocked is the append core. Caller holds mu.
func (ft *FlowTrace) addLocked(s Span) {
	if s.Verdict != "" && (s.Kind == KindDecision || s.Kind == KindReevaluate) {
		ft.verdict = s.Verdict
	}
	if len(ft.spans) >= cap(ft.spans) {
		ft.dropped++
		return
	}
	ft.spans = append(ft.spans, s)
}

// SetClass records the flow's application class once traffic
// classification resolves it (traces start before the class is known).
func (ft *FlowTrace) SetClass(class int) {
	if ft == nil {
		return
	}
	ft.mu.Lock()
	ft.class = class
	ft.mu.Unlock()
}

// Close marks the trace complete: the flow's lifecycle ended and no
// further spans are expected.
func (ft *FlowTrace) Close() {
	if ft == nil {
		return
	}
	ft.mu.Lock()
	ft.done = true
	ft.mu.Unlock()
}

// View is the immutable JSON form of one trace.
type View struct {
	ID       string `json:"id"`
	Cell     string `json:"cell"`
	Class    int    `json:"class"`
	Level    int    `json:"level"`
	Reason   string `json:"reason"`
	Verdict  string `json:"verdict,omitempty"`
	Complete bool   `json:"complete"`
	Dropped  int    `json:"dropped,omitempty"`
	Spans    []Span `json:"spans"`
}

// View snapshots the trace.
func (ft *FlowTrace) View() View {
	v, _ := ft.view()
	return v
}

// view is View plus whether the trace still owns its spans; a scrape
// that loaded the pointer just before its eviction skips it.
func (ft *FlowTrace) view() (View, bool) {
	ft.mu.Lock()
	v := View{
		ID:       fmt.Sprintf("%016x", uint64(ft.id)),
		Cell:     ft.cell,
		Class:    ft.class,
		Level:    ft.level,
		Reason:   ft.reason,
		Verdict:  ft.verdict,
		Complete: ft.done,
		Dropped:  ft.dropped,
		Spans:    append([]Span(nil), ft.spans...),
	}
	resident := ft.spans != nil
	ft.mu.Unlock()
	return v, resident
}

// Tracer owns the sampling decision, the bounded ring of published
// traces and their span arrays. Writers claim a slot with one atomic
// increment and publish with one atomic pointer swap; readers snapshot
// without blocking the ring. All methods are nil-safe.
type Tracer struct {
	slots      []atomic.Pointer[FlowTrace]
	seq        atomic.Uint64
	sampleMask uint64
	rate       int

	started  atomic.Int64
	promoted atomic.Int64
}

// New returns a tracer keeping the last capacity traces (<= 0
// defaults to 256, rounded up to a power of two) and head-sampling
// one flow in sampleEvery by trace-ID hash (<= 1 samples every flow;
// rounded up to a power of two so the decision is mask arithmetic).
func New(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	rate := 1
	for rate < sampleEvery {
		rate <<= 1
	}
	return &Tracer{
		slots:      make([]atomic.Pointer[FlowTrace], size),
		sampleMask: uint64(rate - 1),
		rate:       rate,
	}
}

// mix is the splitmix64 finalizer: it decorrelates the sampling
// decision from structure in the raw IDs.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleEvery returns the head-sampling rate (1 = every flow).
func (tr *Tracer) SampleEvery() int {
	if tr == nil {
		return 0
	}
	return tr.rate
}

// Sampled reports the head-sampling decision for a flow: stateless,
// deterministic, allocation-free. Nil tracers sample nothing.
func (tr *Tracer) Sampled(id ID) bool {
	return tr != nil && mix(uint64(id))&tr.sampleMask == 0
}

// Start creates a trace for a head-sampled flow and publishes it into
// the ring immediately, so in-flight traces are scrape-visible. The
// class may be -1 until classification resolves it (SetClass).
//
// The new trace takes over the span array of the trace it pushes out
// of its slot, so a start allocates the trace header only once the
// ring has wrapped. The slot is swapped, not loaded and stored: two
// starts landing on one slot then see different predecessors and
// cannot adopt the same array. The new trace's mutex is held from
// before the swap until the array is in place, so whoever evicts it
// next — or scrapes it — waits for the hand-over instead of finding a
// trace without storage; locks are only ever taken newer-then-older,
// so the waits cannot form a cycle.
func (tr *Tracer) Start(id ID, cell string, class, level int, reason string) *FlowTrace {
	if tr == nil {
		return nil
	}
	ft := &FlowTrace{id: id, cell: cell, class: class, level: level, reason: reason}
	tr.started.Add(1)
	seq := tr.seq.Add(1)
	ft.mu.Lock()
	if old := tr.slots[(seq-1)&uint64(len(tr.slots)-1)].Swap(ft); old != nil {
		old.mu.Lock()
		spans := old.spans
		old.spans = nil
		old.mu.Unlock()
		// Spans hold strings (verdict, note); don't pin the old flow's.
		// Everything past len is still zero from the previous hand-over.
		clear(spans)
		ft.spans = spans[:0]
	} else {
		ft.spans = make([]Span, 0, maxSpans)
	}
	ft.mu.Unlock()
	return ft
}

// Promote creates an always-sampled trace for a flow whose lifecycle
// became interesting after head sampling skipped it — a rejected
// admission or a re-evaluation flip — backfilling the arrival span
// from the flow's recorded first-seen time so the exported trace is
// still complete.
func (tr *Tracer) Promote(id ID, cell string, class, level int, reason string, arrivalNanos int64) *FlowTrace {
	if tr == nil {
		return nil
	}
	ft := tr.Start(id, cell, class, level, reason)
	tr.promoted.Add(1)
	ft.Add(Span{Kind: KindArrival, UnixNanos: arrivalNanos, Note: "backfilled"})
	return ft
}

// Started returns how many traces were ever started (including
// promotions); Promoted counts just the promotions.
func (tr *Tracer) Started() int64 {
	if tr == nil {
		return 0
	}
	return tr.started.Load()
}

// Promoted returns how many traces were promoted after head sampling
// had skipped them.
func (tr *Tracer) Promoted() int64 {
	if tr == nil {
		return 0
	}
	return tr.promoted.Load()
}

// Snapshot returns views of the ring's traces, oldest-started first.
// Like the audit ring, the cut is best-effort under concurrent
// writers.
func (tr *Tracer) Snapshot() []View {
	if tr == nil {
		return nil
	}
	seq := tr.seq.Load()
	out := make([]View, 0, len(tr.slots))
	// Walk from the oldest live slot forward so views come out in
	// start order.
	n := uint64(len(tr.slots))
	start := uint64(0)
	if seq > n {
		start = seq - n
	}
	for s := start; s < start+n; s++ {
		if p := tr.slots[s&(n-1)].Load(); p != nil {
			if v, resident := p.view(); resident {
				out = append(out, v)
			}
		}
	}
	return out
}
