package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"testing"

	"exbox/internal/flows"
	"exbox/internal/obs/trace"
)

// What a flow costs when rejection is the steady state: these tests
// and BenchmarkIngestChurn drive never-seen clients, one 12-datagram
// train each, into a cell loaded past capacity.

// churnClient is the address of the i-th never-seen client.
func churnClient(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), uint16(20000+i%40000))
}

const churnTrain = 12 // datagrams per flow, two past the head

// churnTrainInto interns client i and writes its train into pkts.
func churnTrainInto(in *interner, pkts []pkt, i int, tm float64) {
	ce := in.get(churnClient(i))
	for p := range pkts {
		pkts[p] = pkt{ce: ce, meta: flows.PacketMeta{Time: tm + float64(p)*1e-4, Bytes: 200 + 97*((p+i)%7), Up: (p+i)%3 == 0}}
	}
}

// TestInternKnownClientAllocs pins the read loop's per-datagram
// client lookup at zero allocations — on the one-entry memo and on
// the map behind it — and the folding of the two spellings of an IPv4
// address onto one entry with the dotted-quad key bench/ rebuilds.
func TestInternKnownClientAllocs(t *testing.T) {
	in := newInterner(burstGateway(t, 4))
	a, b := churnClient(1), churnClient(2)
	ceA, ceB := in.get(a), in.get(b)
	if ceA == ceB || ceA.key.Src != "10.0.0.1" || ceA.key.SrcPort != a.Port() || ceA.key.Dst != "sink" {
		t.Fatalf("interned keys wrong: %+v %+v", ceA.key, ceB.key)
	}
	mapped := netip.AddrPortFrom(netip.AddrFrom16(a.Addr().As16()), a.Port())
	if !mapped.Addr().Is4In6() || in.get(mapped) != ceA {
		t.Fatal("the IPv4-mapped spelling of a client interned a second entry")
	}
	if got := testing.AllocsPerRun(1000, func() {
		if in.get(a) != ceA || in.get(a) != ceA || in.get(b) != ceB {
			t.Fatal("known client re-interned")
		}
	}); got != 0 {
		t.Fatalf("known-client intern path allocates %v times per 3 lookups, want 0", got)
	}
}

// TestChurnHeapPerFlow is the guard behind the rss_mb claim: 5 000
// never-seen clients' trains through processBurst, nearly all
// rejected and therefore promoted into the trace ring, must leave
// less than 1 KiB of live heap per tracked flow. A span array per
// promoted flow alone was 2.3 KiB.
func TestChurnHeapPerFlow(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	gw := tracedBurstGateway(t, 32, trace.New(traceRing, 16))
	overloadCell(gw)
	ws := newWorkerState(64)
	in := newInterner(gw)
	pkts := make([]pkt, churnTrain)
	const nFlows = 5000
	run := func(from, to int) {
		for i := from; i < to; i++ {
			churnTrainInto(in, pkts, i, float64(i)*1e-3)
			gw.processBurst(ws, pkts)
		}
	}
	// Fill the trace ring and warm every scratch before the first reading.
	const warm = 2 * traceRing
	run(0, warm)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(warm, warm+nFlows)
	runtime.GC()
	runtime.ReadMemStats(&after)

	if got := gw.table.Len(); got != warm+nFlows {
		t.Fatalf("table tracks %d flows, want %d", got, warm+nFlows)
	}
	if rej := gw.rejected.Value(); rej < (warm+nFlows)*9/10 {
		t.Fatalf("only %d of %d flows rejected; the workload is not rejection-heavy", rej, warm+nFlows)
	}
	if gw.tracer.Promoted() < nFlows*8/10 {
		t.Fatalf("only %d rejections promoted a trace", gw.tracer.Promoted())
	}
	perFlow := (int64(after.HeapInuse) - int64(before.HeapInuse)) / nFlows
	t.Logf("HeapInuse grew %d B per tracked flow", perFlow)
	if perFlow >= 1024 {
		t.Fatalf("HeapInuse grew %d B per tracked flow, want < 1024", perFlow)
	}
	// /debug/traces still serves complete traces of the latest flows.
	views := gw.tracer.Snapshot()
	if len(views) != traceRing {
		t.Fatalf("trace ring serves %d traces, want %d", len(views), traceRing)
	}
	for _, v := range views {
		if v.Reason == "rejected" && (len(v.Spans) != 2 || v.Spans[0].Note != "backfilled" || v.Spans[1].Kind != trace.KindDecision || v.Verdict != "reject") {
			t.Fatalf("promoted trace incomplete: %+v", v)
		}
	}
	runtime.KeepAlive(in)
}

// TestDecisionLogBudget: however many flows are decided inside one
// sweeper tick, at most decisionLogBudget decision lines reach the
// log; the rest are counted exactly and the count is on the stats
// line.
func TestDecisionLogBudget(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	gw := burstGateway(t, 8)
	overloadCell(gw)
	ws := newWorkerState(64)
	in := newInterner(gw)
	pkts := make([]pkt, churnTrain)
	const nFlows = 1200
	for i := 0; i < nFlows; i++ {
		churnTrainInto(in, pkts, i, float64(i)*1e-3)
		gw.processBurst(ws, pkts)
	}
	decided := gw.admitted.Value() + gw.rejected.Value()
	if decided < 1000 {
		t.Fatalf("only %d decisions; the budget was not exercised", decided)
	}
	if lines := strings.Count(buf.String(), " classified "); lines != decisionLogBudget {
		t.Fatalf("%d decision lines for %d decisions in one tick, want exactly the budget %d", lines, decided, decisionLogBudget)
	}
	if got, want := gw.logSuppressed.Value(), decided-decisionLogBudget; got != want {
		t.Fatalf("suppressed count %d, want %d", got, want)
	}
	if ring := gw.mb.AuditRing(); int64(ring.Len()) != min(decided, 256) {
		t.Fatalf("audit ring holds %d records; suppressing the line must not touch it", ring.Len())
	}
	gw.logStats()
	if want := fmt.Sprintf("log_suppressed=%d", decided-decisionLogBudget); !strings.Contains(buf.String(), "stats: ") || !strings.Contains(buf.String(), want) {
		t.Fatalf("stats line lacks %q:\n%s", want, buf.String()[max(0, buf.Len()-400):])
	}
}

// BenchmarkIngestChurn is the per-flow set-up path: one op is a
// never-seen client's 12-datagram train through intern, the ingest
// ring and processBurst, ending in a rejection (and so a trace
// promotion) — the steady state of an overloaded cell. The table is
// expired on a virtual clock every 1 024 flows, as the sweeper would,
// so it holds a few thousand flows at any iteration count. allocs/op
// is what a flow allocates over its life; the bench gate fails on any
// increase.
func BenchmarkIngestChurn(b *testing.B) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	gw := tracedBurstGateway(b, 32, trace.New(traceRing, 16))
	overloadCell(gw)
	ws := newWorkerState(64)
	in := newInterner(gw)
	r := gw.rings[0]
	train := make([]pkt, churnTrain)
	const tick = 0.01 // virtual seconds between flows: idle expiry (30 s) trails by 3 000 flows
	op := func(i int) {
		churnTrainInto(in, train, i, float64(i)*tick)
		for _, p := range train {
			if pushed, _ := r.TryPushWake(p); !pushed {
				b.Fatal("ingest ring full")
			}
		}
		gw.processBurst(ws, ws.pkts[:r.Drain(ws.pkts)])
		if i%1024 == 1023 {
			gw.table.Expire(float64(i) * tick)
		}
	}
	// Warm past the first expiries so the table, the trace ring and the
	// spare heads are in steady state.
	const warm = 8192
	for i := 0; i < warm; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	b.StopTimer()
	if rej := gw.rejected.Value(); rej < int64(warm+b.N)*9/10 {
		b.Fatalf("only %d of %d flows rejected", rej, warm+b.N)
	}
}
