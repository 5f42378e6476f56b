// Package tsdb is the gateway's in-process metric history: a
// fixed-memory windowed time-series store over the obs registry. A
// background ticker samples every registered counter, gauge and
// histogram (via Registry.Sample) into one power-of-two ring of
// (unixNanos, value) points per metric, so "what did this series do
// over the last 15 minutes" is answerable from inside the process —
// the substrate /debug/timeline serves as JSON and post-mortems
// correlate against the flight recorder's event journal.
//
// Semantics follow the metric kind: counters (and histogram _count
// fan-outs) are cumulative totals, so the store records the
// per-interval delta — the rate shape an operator actually reads —
// with counter resets (a value below the previous sample, e.g. after
// a registry swap) treated as a restart from zero. Gauges and
// quantile estimates are levels, recorded as-is. Memory is fixed at
// ring-size × series-count; nothing on the datapath ever touches the
// store — ticks run on one background goroutine and take the store's
// write lock off the hot path.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"exbox/internal/obs"
)

// Kind says how a series' points were derived from the underlying
// metric.
type Kind uint8

const (
	// KindGauge points are sampled levels.
	KindGauge Kind = iota
	// KindDelta points are per-interval increases of a cumulative
	// counter.
	KindDelta
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindDelta {
		return "delta"
	}
	return "gauge"
}

// Point is one sample: a wall-clock stamp and a value. It marshals as
// the compact JSON pair [unixNanos, value] (see MarshalJSON).
type Point struct {
	UnixNanos int64
	Value     float64
}

// series is one metric's ring of points plus the delta state for
// cumulative sources.
type series struct {
	name   string
	kind   Kind
	points []Point // power-of-two ring
	n      uint64  // total points ever written
	last   float64 // previous raw cumulative value (KindDelta)
	primed bool    // last is valid (first sample only primes)
}

func (s *series) push(p Point) {
	s.points[s.n&uint64(len(s.points)-1)] = p
	s.n++
}

// snapshot returns the ring's points oldest-first, filtered to
// UnixNanos >= sinceNanos.
func (s *series) snapshot(sinceNanos int64) []Point {
	out := make([]Point, 0, len(s.points))
	start := uint64(0)
	if s.n > uint64(len(s.points)) {
		start = s.n - uint64(len(s.points))
	}
	for i := start; i < s.n; i++ {
		p := s.points[i&uint64(len(s.points)-1)]
		if p.UnixNanos >= sinceNanos {
			out = append(out, p)
		}
	}
	return out
}

// Sampler is the slice of obs.Registry the store ticks against; it is
// an interface so tests can feed synthetic samples without a registry.
type Sampler interface {
	Sample(fn func(name string, cumulative bool, v float64))
}

// Config sizes the store.
type Config struct {
	// Resolution is the sampling interval (default 1s).
	Resolution time.Duration
	// Retention is the window each series keeps (default 15m). The
	// per-series ring is sized to the next power of two covering
	// Retention/Resolution points.
	Retention time.Duration
}

func (c Config) withDefaults() Config {
	if c.Resolution <= 0 {
		c.Resolution = time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.Retention < c.Resolution {
		c.Retention = c.Resolution
	}
	return c
}

// DB is the windowed time-series store. Construct with New; safe for
// concurrent use (one ticking goroutine, any number of readers).
type DB struct {
	cfg      Config
	src      Sampler
	ringSize int

	mu     sync.RWMutex
	series map[string]*series
}

// New returns a store sampling src on the given config.
func New(src Sampler, cfg Config) *DB {
	cfg = cfg.withDefaults()
	points := int(cfg.Retention / cfg.Resolution)
	if points < 1 {
		points = 1
	}
	size := 1
	for size < points {
		size <<= 1
	}
	return &DB{cfg: cfg, src: src, ringSize: size, series: make(map[string]*series)}
}

// Resolution returns the effective sampling interval.
func (db *DB) Resolution() time.Duration { return db.cfg.Resolution }

// Retention returns the effective retention window.
func (db *DB) Retention() time.Duration { return db.cfg.Retention }

// Run ticks the store every Resolution until done is closed. Run the
// usual way:
//
//	go db.Run(done)
func (db *DB) Run(done <-chan struct{}) {
	t := time.NewTicker(db.cfg.Resolution)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			db.tick(now.UnixNano())
		}
	}
}

// tick takes one sample of every metric, stamped nowNanos. Exported
// behavior is driven through Run; tests call tick directly with
// synthetic clocks.
func (db *DB) tick(nowNanos int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.src.Sample(func(name string, cumulative bool, v float64) {
		s := db.series[name]
		if s == nil {
			kind := KindGauge
			if cumulative {
				kind = KindDelta
			}
			s = &series{name: name, kind: kind, points: make([]Point, db.ringSize)}
			db.series[name] = s
		}
		if s.kind == KindDelta {
			if !s.primed {
				// First sighting primes the baseline; emitting the whole
				// running total as one "delta" would spike every new
				// series' first point.
				s.last, s.primed = v, true
				return
			}
			d := v - s.last
			if d < 0 {
				// Counter reset (restarted registry / wrapped source):
				// the new total is the increase since the reset.
				d = v
			}
			s.last = v
			s.push(Point{UnixNanos: nowNanos, Value: d})
			return
		}
		s.push(Point{UnixNanos: nowNanos, Value: v})
	})
}

// SeriesDump is one series as Query returns it and /debug/timeline
// carries it.
type SeriesDump struct {
	Name              string  `json:"name"`
	Kind              string  `json:"kind"`
	ResolutionSeconds float64 `json:"resolution_seconds"`
	Points            []Point `json:"points"`
}

// Query returns the stored series sorted by name, points oldest-first
// and filtered to stamps >= sinceNanos (pass 0 for everything).
// metricSub, when non-empty, keeps only series whose name contains it;
// cell, when non-empty, keeps only that cell's series — names
// containing "_cell_<sanitized id>_" per the obs naming convention.
// Series left with no points after filtering are dropped.
func (db *DB) Query(metricSub, cell string, sinceNanos int64) []SeriesDump {
	var cellTag string
	if cell != "" {
		cellTag = "_cell_" + obs.SanitizeName(cell) + "_"
	}
	db.mu.RLock()
	matched := make([]*series, 0, len(db.series))
	for name, s := range db.series {
		if metricSub != "" && !strings.Contains(name, metricSub) {
			continue
		}
		if cellTag != "" && !strings.Contains(name, cellTag) {
			continue
		}
		matched = append(matched, s)
	}
	out := make([]SeriesDump, 0, len(matched))
	for _, s := range matched {
		pts := s.snapshot(sinceNanos)
		if len(pts) == 0 {
			continue
		}
		out = append(out, SeriesDump{
			Name:              s.name,
			Kind:              s.kind.String(),
			ResolutionSeconds: db.cfg.Resolution.Seconds(),
			Points:            pts,
		})
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
