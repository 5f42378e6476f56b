package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// Spans recorded by the benchmark around its calls into each layer's
// exported functions. They are kept in memory and written out when the run
// ends. A nil *tracer records nothing, so the untraced run executes the
// same code.

// span is one timed call. Parent is the index of the enclosing span or -1;
// Req groups the spans of one request (one burst, one arrival).
type span struct {
	Parent int32
	Layer  int32
	Req    int32
	Start  int64 // clock reading at begin
	End    int64
}

// tracer belongs to one goroutine. Its clock is monotonic nanoseconds for
// a timing pass, or the process's cumulative heap allocation count for an
// allocation pass; self-"time" arithmetic is the same for both.
type tracer struct {
	clock   func() int64
	layers  []string
	spans   []span
	open    []int32 // stack of spans begun and not ended
	req     int32
	dropped int // spans not recorded because the buffer was full
}

// newTracer preallocates room for max spans; a full buffer drops further
// spans and counts them instead of growing while something is being timed.
func newTracer(max int, clock func() int64) *tracer {
	return &tracer{clock: clock, spans: make([]span, 0, max), open: make([]int32, 0, 8)}
}

func nanoClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// allocClock counts heap objects allocated by the process so far (tiny
// allocations included), without stopping the world.
func allocClock() func() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	return func() int64 {
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
}

// layer interns a layer name and returns its id for begin.
func (t *tracer) layer(name string) int32 {
	if t == nil {
		return 0
	}
	for i, l := range t.layers {
		if l == name {
			return int32(i)
		}
	}
	t.layers = append(t.layers, name)
	return int32(len(t.layers) - 1)
}

// begin opens a span of the given layer under the innermost open span.
// The returned handle goes to end; -1 means the span was dropped.
func (t *tracer) begin(layer int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Parent: parent, Layer: layer, Req: t.req})
	t.open = append(t.open, id)
	t.spans[id].Start = t.clock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.clock()
	t.open = t.open[:len(t.open)-1]
}

// layerTotals is the per-layer roll-up of a trace.
type layerTotals struct {
	Count int64 `json:"count"`
	Total int64 `json:"total"` // sum of span durations
	Self  int64 `json:"self"`  // Total minus the time covered by child spans
}

// selfTimes computes, for every layer, the number of spans, their summed
// duration, and their summed self time: a span's duration minus the
// durations of its direct children (children never overlap — one
// goroutine, strictly nested).
func selfTimes(layers []string, spans []span) map[string]layerTotals {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	out := make(map[string]layerTotals, len(layers))
	for i, s := range spans {
		lt := out[layers[s.Layer]]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += self[i]
		out[layers[s.Layer]] = lt
	}
	return out
}

func (t *tracer) totals() map[string]layerTotals {
	if t == nil {
		return nil
	}
	return selfTimes(t.layers, t.spans)
}

// traceFile is the on-disk form of a traced run: out/trace-<workload>.json.
// Each span is [id, parent, request, layer index, start ns, duration ns].
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Threads  []traceThread          `json:"threads"`
	Totals   map[string]layerTotals `json:"totals"`
}

type traceThread struct {
	Layers  []string   `json:"layers"`
	Dropped int        `json:"dropped"`
	Spans   [][6]int64 `json:"spans"`
}

// writeTrace writes the spans of every tracer of a run, with the roll-up
// summed over tracers, and returns the roll-up.
func writeTrace(workload string, seed int64, tracers ...*tracer) (map[string]layerTotals, error) {
	tf := traceFile{Workload: workload, Seed: seed, Totals: map[string]layerTotals{}}
	for _, t := range tracers {
		th := traceThread{Layers: t.layers, Dropped: t.dropped, Spans: make([][6]int64, len(t.spans))}
		for i, s := range t.spans {
			th.Spans[i] = [6]int64{int64(i), int64(s.Parent), int64(s.Req), int64(s.Layer), s.Start, s.End - s.Start}
		}
		tf.Threads = append(tf.Threads, th)
		for name, lt := range t.totals() {
			sum := tf.Totals[name]
			sum.Count += lt.Count
			sum.Total += lt.Total
			sum.Self += lt.Self
			tf.Totals[name] = sum
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return tf.Totals, os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), raw, 0o644)
}
