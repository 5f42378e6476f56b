package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"exbox/internal/obs"
)

// fakeSampler feeds tick synthetic samples: a map snapshot per call so
// tests drive exact values and cumulative-vs-level semantics.
type fakeSampler struct {
	mu      sync.Mutex
	kind    map[string]bool // cumulative?
	vals    map[string]float64
	dropped map[string]bool
}

func newFakeSampler() *fakeSampler {
	return &fakeSampler{kind: map[string]bool{}, vals: map[string]float64{}, dropped: map[string]bool{}}
}

func (f *fakeSampler) set(name string, cumulative bool, v float64) {
	f.mu.Lock()
	f.kind[name], f.vals[name] = cumulative, v
	f.mu.Unlock()
}

func (f *fakeSampler) Sample(fn func(name string, cumulative bool, v float64)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, v := range f.vals {
		if !f.dropped[name] {
			fn(name, f.kind[name], v)
		}
	}
}

const sec = int64(time.Second)

// TestDeltaSemantics pins the counter rules: the first sighting primes
// the baseline and emits nothing, later ticks emit per-interval
// increases, and a reset (value below the previous sample) is treated
// as a restart — the new total IS the delta.
func TestDeltaSemantics(t *testing.T) {
	src := newFakeSampler()
	db := New(src, Config{Resolution: time.Second, Retention: time.Minute})

	src.set("c_total", true, 100)
	db.tick(1 * sec) // primes only
	src.set("c_total", true, 107)
	db.tick(2 * sec) // delta 7
	src.set("c_total", true, 107)
	db.tick(3 * sec) // delta 0
	src.set("c_total", true, 3)
	db.tick(4 * sec) // reset: delta = new total

	out := db.Query("c_total", "", 0)
	if len(out) != 1 {
		t.Fatalf("series: got %d, want 1", len(out))
	}
	if out[0].Kind != "delta" {
		t.Fatalf("kind: got %q, want delta", out[0].Kind)
	}
	want := []Point{{2 * sec, 7}, {3 * sec, 0}, {4 * sec, 3}}
	if !reflect.DeepEqual(out[0].Points, want) {
		t.Fatalf("points: got %v, want %v", out[0].Points, want)
	}
}

// TestGaugeSemantics pins that levels are recorded as-is from the
// first tick, including decreases.
func TestGaugeSemantics(t *testing.T) {
	src := newFakeSampler()
	db := New(src, Config{Resolution: time.Second, Retention: time.Minute})
	for i, v := range []float64{5, 9, 2} {
		src.set("depth", false, v)
		db.tick(int64(i+1) * sec)
	}
	out := db.Query("depth", "", 0)
	want := []Point{{1 * sec, 5}, {2 * sec, 9}, {3 * sec, 2}}
	if len(out) != 1 || !reflect.DeepEqual(out[0].Points, want) {
		t.Fatalf("points: got %+v, want %v", out, want)
	}
}

// TestRingWraparound overfills a small ring and checks the snapshot
// keeps exactly the newest ringSize points, oldest-first.
func TestRingWraparound(t *testing.T) {
	src := newFakeSampler()
	// 4s retention at 1s resolution → ring of 4 points.
	db := New(src, Config{Resolution: time.Second, Retention: 4 * time.Second})
	if db.ringSize != 4 {
		t.Fatalf("ring size: got %d, want 4", db.ringSize)
	}
	for i := 1; i <= 11; i++ {
		src.set("g", false, float64(i))
		db.tick(int64(i) * sec)
	}
	out := db.Query("g", "", 0)
	want := []Point{{8 * sec, 8}, {9 * sec, 9}, {10 * sec, 10}, {11 * sec, 11}}
	if len(out) != 1 || !reflect.DeepEqual(out[0].Points, want) {
		t.Fatalf("wrapped points: got %+v, want %v", out, want)
	}
	// since filter trims from the same wrapped window.
	out = db.Query("g", "", 10*sec)
	want = []Point{{10 * sec, 10}, {11 * sec, 11}}
	if len(out) != 1 || !reflect.DeepEqual(out[0].Points, want) {
		t.Fatalf("since-filtered points: got %+v, want %v", out, want)
	}
	// A since filter past the newest point drops the series entirely.
	if out := db.Query("g", "", 12*sec); len(out) != 0 {
		t.Fatalf("future since: got %+v, want empty", out)
	}
}

// TestQueryFilters exercises the metric substring and cell filters
// against the obs naming convention.
func TestQueryFilters(t *testing.T) {
	src := newFakeSampler()
	db := New(src, Config{})
	src.set("exbox_cell_ap0_admit_total", true, 1)
	src.set("exbox_cell_ap0_reject_total", true, 1)
	src.set("exbox_cell_ap_1_admit_total", true, 1)
	src.set("exbox_gw_forwarded_packets_total", true, 1)
	db.tick(1 * sec)
	for name, v := range map[string]float64{
		"exbox_cell_ap0_admit_total":       5,
		"exbox_cell_ap0_reject_total":      6,
		"exbox_cell_ap_1_admit_total":      7,
		"exbox_gw_forwarded_packets_total": 8,
	} {
		src.set(name, true, v)
	}
	db.tick(2 * sec)

	if out := db.Query("", "", 0); len(out) != 4 {
		t.Fatalf("unfiltered: got %d series, want 4", len(out))
	}
	out := db.Query("admit_total", "", 0)
	if len(out) != 2 {
		t.Fatalf("metric filter: got %d series, want 2", len(out))
	}
	// Sorted by name.
	if out[0].Name > out[1].Name {
		t.Fatalf("unsorted output: %q before %q", out[0].Name, out[1].Name)
	}
	// Cell filter goes through SanitizeName: "ap/1" → ap_1.
	out = db.Query("", "ap/1", 0)
	if len(out) != 1 || out[0].Name != "exbox_cell_ap_1_admit_total" {
		t.Fatalf("cell filter: got %+v", out)
	}
	if out := db.Query("reject", "ap/1", 0); len(out) != 0 {
		t.Fatalf("composed filters: got %+v, want empty", out)
	}
}

// TestPointJSON pins the compact pair form both ways and the
// non-finite clamp.
func TestPointJSON(t *testing.T) {
	b, err := json.Marshal(Point{UnixNanos: 42, Value: 1.5})
	if err != nil || string(b) != "[42,1.5]" {
		t.Fatalf("marshal: %s, %v", b, err)
	}
	var p Point
	if err := json.Unmarshal([]byte("[42,1.5]"), &p); err != nil || p != (Point{42, 1.5}) {
		t.Fatalf("unmarshal: %+v, %v", p, err)
	}
	if b, _ := json.Marshal(Point{1, math.NaN()}); string(b) != "[1,0]" {
		t.Fatalf("NaN clamp: %s", b)
	}
	if b, _ := json.Marshal(Point{1, math.Inf(-1)}); string(b) != "[1,0]" {
		t.Fatalf("Inf clamp: %s", b)
	}
}

// TestHandlerAgainstRegistry drives the HTTP path against a real obs
// registry: counters become delta series, gauges stay levels, and the
// JSON round-trips through the documented shape.
func TestHandlerAgainstRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("exbox_cell_ap0_admit_total")
	g := reg.Gauge("exbox_ring_depth")
	db := New(reg, Config{Resolution: time.Second, Retention: time.Minute})

	c.Add(10)
	g.Set(3)
	db.tick(1 * sec)
	c.Add(5)
	g.Set(4)
	db.tick(2 * sec)

	rec := httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?metric=admit_total&cell=ap0", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type: %q", ct)
	}
	var out []SeriesDump
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("json: %v (%.200s)", err, rec.Body.String())
	}
	if len(out) != 1 || out[0].Name != "exbox_cell_ap0_admit_total" || out[0].Kind != "delta" {
		t.Fatalf("got %+v", out)
	}
	if want := []Point{{2 * sec, 5}}; !reflect.DeepEqual(out[0].Points, want) {
		t.Fatalf("points: got %v, want %v", out[0].Points, want)
	}

	// Unfiltered, the endpoint serves the whole store.
	rec = httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("json: %v (%.200s)", err, rec.Body.String())
	}
	if len(out) != 2 { // counter series + gauge series
		t.Fatalf("unfiltered series: got %d, want 2", len(out))
	}
}

// TestConcurrentScrapeUnderLoad races ticks against JSON scrapes — run under -race this is the handler's data-race proof.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("exbox_cell_ap0_admit_total")
	h := reg.Histogram("exbox_admit_seconds", obs.ExpBuckets(1e-6, 2, 10))
	db := New(reg, Config{Resolution: time.Millisecond, Retention: 64 * time.Millisecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the ticker
		defer wg.Done()
		now := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now += sec
			c.Add(3)
			h.Observe(1e-5)
			db.tick(now)
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { // the scrapers
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec := httptest.NewRecorder()
				db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
				if !bytes.HasPrefix(bytes.TrimSpace(rec.Body.Bytes()), []byte("[")) {
					t.Errorf("non-array response: %.80s", rec.Body.String())
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSinceNanos pins the ?since= grammar.
func TestSinceNanos(t *testing.T) {
	now := time.Unix(1000, 0)
	if got := sinceNanos("", now); got != 0 {
		t.Fatalf("empty: %d", got)
	}
	if got := sinceNanos("5m", now); got != now.Add(-5*time.Minute).UnixNano() {
		t.Fatalf("duration: %d", got)
	}
	if got := sinceNanos("900", now); got != 900*sec {
		t.Fatalf("unix seconds: %d", got)
	}
	if got := sinceNanos("bogus", now); got != 0 {
		t.Fatalf("garbage: %d", got)
	}
}
