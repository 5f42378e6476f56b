package trace

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestSampledDeterministicAndRoughFraction(t *testing.T) {
	tr := New(64, 16)
	if tr.SampleEvery() != 16 {
		t.Fatalf("SampleEvery = %d, want 16", tr.SampleEvery())
	}
	hits := 0
	const n = 1 << 14
	for i := 0; i < n; i++ {
		id := ID(mix(uint64(i) * 0x9e3779b97f4a7c15))
		first := tr.Sampled(id)
		if tr.Sampled(id) != first {
			t.Fatalf("sampling decision for %v not deterministic", id)
		}
		if first {
			hits++
		}
	}
	// Head sampling is a hash cut, not a counter: expect ~1/16 within a
	// generous band.
	if lo, hi := n/32, n/8; hits < lo || hits > hi {
		t.Fatalf("sampled %d of %d ids, want within [%d, %d]", hits, n, lo, hi)
	}
	if New(8, 1).Sampled(ID(12345)) != true {
		t.Fatal("sampleEvery=1 must sample every flow")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(ID(1)) {
		t.Fatal("nil tracer must sample nothing")
	}
	if tr.Start(1, "c", 0, 0, "r") != nil || tr.Promote(1, "c", 0, 0, "r", 0) != nil {
		t.Fatal("nil tracer must return nil traces")
	}
	if tr.Snapshot() != nil || tr.Started() != 0 || tr.Promoted() != 0 || tr.SampleEvery() != 0 {
		t.Fatal("nil tracer accessors must be zero")
	}
	var ft *FlowTrace
	ft.Add(Span{})
	ft.AddCoalesced(Span{})
	ft.SetClass(1)
	ft.Close()
}

func TestStartPublishesInFlight(t *testing.T) {
	tr := New(8, 1)
	ft := tr.Start(ID(7), "ap0", -1, 1, "sampled")
	ft.Add(Span{Kind: KindArrival, UnixNanos: 100})
	views := tr.Snapshot()
	if len(views) != 1 {
		t.Fatalf("in-flight trace not visible: %d views", len(views))
	}
	v := views[0]
	if v.Complete {
		t.Fatal("trace should not be complete before Close")
	}
	if v.Cell != "ap0" || v.Class != -1 || v.Level != 1 || v.Reason != "sampled" {
		t.Fatalf("view metadata wrong: %+v", v)
	}
	ft.SetClass(2)
	ft.Add(Span{Kind: KindDecision, UnixNanos: 200, Verdict: "reject", Margin: -0.5, Model: 3})
	ft.Close()
	v = tr.Snapshot()[0]
	if !v.Complete || v.Class != 2 || v.Verdict != "reject" || len(v.Spans) != 2 {
		t.Fatalf("closed view wrong: %+v", v)
	}
}

func TestSnapshotOldestFirstAndRingOverwrite(t *testing.T) {
	tr := New(4, 1)
	for i := 0; i < 6; i++ {
		ft := tr.Start(ID(i), "c", i, 0, "sampled")
		ft.Add(Span{Kind: KindArrival, UnixNanos: int64(i)})
	}
	views := tr.Snapshot()
	if len(views) != 4 {
		t.Fatalf("ring of 4 returned %d views", len(views))
	}
	for i, v := range views {
		if want := 2 + i; v.Class != want {
			t.Fatalf("view %d class = %d, want %d (oldest-started first)", i, v.Class, want)
		}
	}
	if tr.Started() != 6 {
		t.Fatalf("Started = %d, want 6", tr.Started())
	}
}

func TestPromoteBackfillsArrival(t *testing.T) {
	tr := New(8, 1<<20) // sampling rate so high nothing head-samples
	if tr.Sampled(ID(42)) {
		t.Skip("id happens to be head-sampled at 1<<20; pick another")
	}
	ft := tr.Promote(ID(42), "ap0", 1, 0, "rejected", 12345)
	if ft == nil {
		t.Fatal("promotion must always create a trace")
	}
	if tr.Promoted() != 1 || tr.Started() != 1 {
		t.Fatalf("counters: promoted=%d started=%d", tr.Promoted(), tr.Started())
	}
	v := tr.Snapshot()[0]
	if len(v.Spans) != 1 || v.Spans[0].Kind != KindArrival || v.Spans[0].UnixNanos != 12345 || v.Spans[0].Note != "backfilled" {
		t.Fatalf("promoted trace missing backfilled arrival: %+v", v.Spans)
	}
	if v.Reason != "rejected" {
		t.Fatalf("reason = %q", v.Reason)
	}
}

func TestAddCoalesced(t *testing.T) {
	tr := New(8, 1)
	ft := tr.Start(1, "c", 0, 0, "sampled")
	for i := 0; i < 10; i++ {
		ft.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep", UnixNanos: int64(100 + i), Margin: float64(i)})
	}
	ft.Add(Span{Kind: KindReevaluate, Verdict: "evict", UnixNanos: 200})
	v := ft.View()
	if len(v.Spans) != 2 {
		t.Fatalf("coalescing failed: %d spans", len(v.Spans))
	}
	keep := v.Spans[0]
	if keep.Count != 10 || keep.UnixNanos != 100 || keep.DurNanos != 9 || keep.Margin != 9 {
		t.Fatalf("coalesced span wrong: %+v", keep)
	}
	if v.Verdict != "evict" {
		t.Fatalf("verdict should follow the re-evaluation: %q", v.Verdict)
	}
	// A different verdict must not merge.
	ft2 := tr.Start(2, "c", 0, 0, "sampled")
	ft2.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep"})
	ft2.AddCoalesced(Span{Kind: KindMonitor, Verdict: "evict"})
	if got := len(ft2.View().Spans); got != 2 {
		t.Fatalf("distinct verdicts coalesced into %d spans", got)
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	tr := New(8, 1)
	ft := tr.Start(1, "c", 0, 0, "sampled")
	for i := 0; i < maxSpans+5; i++ {
		ft.Add(Span{Kind: KindObserve, UnixNanos: int64(i)})
	}
	v := ft.View()
	if len(v.Spans) != maxSpans {
		t.Fatalf("span storage grew past cap: %d", len(v.Spans))
	}
	if v.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", v.Dropped)
	}
}

func TestViewJSONRoundTrip(t *testing.T) {
	tr := New(8, 1)
	ft := tr.Start(ID(0xabc), "ap0", 2, 1, "sampled")
	ft.Add(Span{Kind: KindDecision, UnixNanos: 10, Verdict: "admit", Margin: 0.5, Depth: 0.2, Model: 7})
	ft.Close()
	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []View
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round trip: %v (%s)", err, b)
	}
	if len(back) != 1 || back[0].Spans[0].Kind != KindDecision || back[0].Spans[0].Model != 7 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back[0].ID != "0000000000000abc" {
		t.Fatalf("hex id = %q", back[0].ID)
	}
}

func TestIDFromString(t *testing.T) {
	a, b := IDFromString("1.2.3.4:80->sink:9/udp"), IDFromString("1.2.3.4:81->sink:9/udp")
	if a == b {
		t.Fatal("distinct keys hashed to the same trace ID")
	}
	if a != IDFromString("1.2.3.4:80->sink:9/udp") {
		t.Fatal("IDFromString not deterministic")
	}
}

// TestConcurrentTracing races writers against snapshotting readers; the
// race detector is the assertion.
func TestConcurrentTracing(t *testing.T) {
	tr := New(32, 1)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, v := range tr.Snapshot() {
					_ = v.Verdict
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				ft := tr.Start(ID(w*1000+i), "c", i%3, 0, "sampled")
				ft.Add(Span{Kind: KindArrival, UnixNanos: int64(i)})
				ft.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep", UnixNanos: int64(i + 1)})
				ft.Close()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tr.Started() != 2000 {
		t.Fatalf("Started = %d, want 2000", tr.Started())
	}
}

// TestSpanStorageBelongsToRing pins the memory contract: span arrays
// are handed from the trace leaving a ring slot to the one entering
// it, so holding every *FlowTrace ever started — as a flow table of
// rejected flows does — retains ring-capacity arrays, not one per
// trace. Evicted traces count further spans as dropped.
func TestSpanStorageBelongsToRing(t *testing.T) {
	const ringCap, n = 256, 10 * 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	tr := New(ringCap, 1)
	held := make([]*FlowTrace, n)
	for i := range held {
		held[i] = tr.Promote(ID(i), "c", 0, 0, "rejected", int64(i))
		held[i].Add(Span{Kind: KindDecision, UnixNanos: int64(i), Verdict: "reject", Model: uint64(i)})
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// One array per trace would be n x 24 x 96 B = 5.9 MB; the ring's
	// share is a tenth of that, plus n trace headers.
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > 2<<20 {
		t.Errorf("HeapInuse grew %d KiB holding %d traces of a %d-slot ring, want < 2 MiB", grew>>10, n, ringCap)
	}

	for i, ft := range held[:n-ringCap] {
		ft.Add(Span{Kind: KindExpiry})
		ft.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep"})
		if v := ft.View(); len(v.Spans) != 0 || v.Dropped != 2 {
			t.Fatalf("evicted trace %d: %d spans, %d dropped; want 0 and 2", i, len(v.Spans), v.Dropped)
		}
	}
	views := tr.Snapshot()
	if len(views) != ringCap {
		t.Fatalf("snapshot holds %d traces, want the %d ring residents", len(views), ringCap)
	}
	for i, v := range views {
		want := uint64(n - ringCap + i)
		if v.ID != fmt.Sprintf("%016x", want) || len(v.Spans) != 2 || v.Dropped != 0 ||
			v.Spans[0].Kind != KindArrival || v.Spans[0].Note != "backfilled" ||
			v.Spans[1].Kind != KindDecision || v.Spans[1].Model != want {
			t.Fatalf("resident %d (want id %x) lost spans: %+v", i, want, v)
		}
	}
	runtime.KeepAlive(held)
}

// TestStartSteadyStateAllocs: once the ring has wrapped, a start
// allocates the trace header and nothing else.
func TestStartSteadyStateAllocs(t *testing.T) {
	tr := New(8, 1)
	for i := 0; i < 8; i++ {
		tr.Start(ID(i), "c", 0, 0, "sampled")
	}
	i := 8
	if got := testing.AllocsPerRun(1000, func() {
		ft := tr.Start(ID(i), "c", 0, 0, "sampled")
		ft.Add(Span{Kind: KindArrival, UnixNanos: int64(i)})
		i++
	}); got != 1 {
		t.Fatalf("steady-state Start allocates %v times, want 1", got)
	}
}

// TestSlotHandOverStress hammers a 2-slot ring from several goroutines
// so starts constantly evict traces that are themselves mid-start or
// mid-append. Every span carries its trace's ID: a scraped trace
// holding a foreign span means two traces shared one array. Run with
// -race -count=10.
func TestSlotHandOverStress(t *testing.T) {
	tr := New(2, 1)
	const writers, perWriter = 4, 400
	held := make([][]*FlowTrace, writers)
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			views := tr.Snapshot()
			if len(views) > 2 {
				t.Errorf("2-slot ring served %d traces", len(views))
			}
			for _, v := range views {
				if len(v.Spans) > maxSpans {
					t.Errorf("trace %s grew to %d spans", v.ID, len(v.Spans))
				}
				for _, sp := range v.Spans {
					// Promote's backfilled arrival is the one unstamped span.
					if sp.Kind != KindArrival && fmt.Sprintf("%016x", sp.Model) != v.ID {
						t.Errorf("trace %s holds a span of trace %016x", v.ID, sp.Model)
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				var ft *FlowTrace
				if i%2 == 0 {
					ft = tr.Start(ID(id), "c", 0, 0, "sampled")
				} else {
					ft = tr.Promote(ID(id), "c", 0, 0, "rejected", 0)
				}
				ft.Add(Span{Kind: KindDecision, Verdict: "reject", Model: id})
				ft.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep", Model: id})
				ft.AddCoalesced(Span{Kind: KindMonitor, Verdict: "keep", Model: id})
				ft.Close()
				held[w] = append(held[w], ft)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	owners := 0
	arrays := map[*Span]bool{}
	for _, hs := range held {
		for _, ft := range hs {
			if ft.spans != nil {
				owners++
				arrays[&ft.spans[:1][0]] = true
			}
		}
	}
	if owners != 2 || len(arrays) != 2 {
		t.Fatalf("%d traces own %d span arrays after the run, want the ring's 2 and 2", owners, len(arrays))
	}
	if got := tr.Started(); got != writers*perWriter {
		t.Fatalf("Started = %d, want %d", got, writers*perWriter)
	}
}
