package main

import (
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"testing"

	"exbox/internal/excr"
	"exbox/internal/flows"
	"exbox/internal/obs"
	"exbox/internal/obs/trace"
)

// burstGateway builds a deterministic gateway for the burst tests: the
// fixed training seed inside newGateway means two calls yield
// bit-identical models, so the per-packet and burst paths can be
// compared across separate instances. No goroutines are spawned — the
// tests drive processBurst directly.
func burstGateway(t testing.TB, shards int) *gateway {
	t.Helper()
	return tracedBurstGateway(t, shards, nil)
}

// tracedBurstGateway is burstGateway with a flow-lifecycle tracer.
func tracedBurstGateway(t testing.TB, shards int, tracer *trace.Tracer) *gateway {
	t.Helper()
	reg := obs.NewRegistry()
	gw, err := newGateway("127.0.0.1:0", excr.DefaultSpace, gatewayOptions{
		shards: shards, workers: 1, burst: 64, ringSize: 1024,
		// Inline fits: with the background retrainer, the model version
		// a decision sees would depend on retrain timing, and two
		// gateway instances would not be bit-comparable.
		syncRetrain: true,
	}, reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	gw.noForwardIO = true
	return gw
}

// overloadCell pre-loads the gateway's traffic matrix past capacity so
// new flows are rejected: 3 web + 6 streaming flows, well outside the
// learned region yet inside the loads the bootstrap trained on (an RBF
// boundary says nothing reliable far beyond them).
func overloadCell(gw *gateway) {
	for i := 0; i < 9; i++ {
		class := excr.Streaming
		if i < 3 {
			class = excr.Web
		}
		gw.table.TrackAdmitted(&flows.Flow{Classified: true, Decided: true, Admitted: true, Class: class})
	}
}

// burstPackets synthesizes a deterministic interleaved packet stream:
// nFlows clients sending perFlow packets each, round-robin, so every
// burst mixes flows at different lifecycle stages (filling heads,
// classification-ready, decided).
func burstPackets(gw *gateway, nFlows, perFlow int) []pkt {
	clients := make([]*clientEntry, nFlows)
	for fl := range clients {
		clients[fl] = internTestClient(gw, fl)
	}
	var out []pkt
	tm := 0.0
	for p := 0; p < perFlow; p++ {
		for fl := 0; fl < nFlows; fl++ {
			tm += 0.0003
			out = append(out, pkt{
				ce:   clients[fl],
				meta: flows.PacketMeta{Time: tm, Bytes: 200 + 97*((p+fl)%7), Up: (p+fl)%3 == 0},
			})
		}
	}
	return out
}

// testClientSrc is the synthetic client address for client number fl,
// in the form the read loop gets it from the socket.
func testClientSrc(fl int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(fl / 200), byte(fl%200 + 1), 7}), uint16(40000+fl))
}

// internTestClient mirrors the read loop's client interning for the
// synthetic client numbered fl.
func internTestClient(gw *gateway, fl int) *clientEntry {
	return newInterner(gw).get(testClientSrc(fl))
}

// flowStateString flattens the table's decided/admitted state into a
// sorted, comparable string.
func flowStateString(gw *gateway) string {
	active := gw.table.Active()
	lines := make([]string, 0, len(active))
	for _, f := range active {
		lines = append(lines, fmt.Sprintf("%v classified=%v class=%v decided=%v admitted=%v pkts=%d",
			f.Key, f.Classified, f.Class, f.Decided, f.Admitted, f.Packets))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestBurstSizeInvariance is the gateway-level determinism check the
// issue asks for: the same packet sequence chopped into bursts of 1
// (the per-packet limit of the pipeline) and bursts of 32 must produce
// bit-identical admission decisions, audit-ring contents, counters and
// flow states. One shard keeps the grouped visit order equal to
// arrival order so the two runs are comparable packet for packet.
func TestBurstSizeInvariance(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	gwA := burstGateway(t, 1)
	gwB := burstGateway(t, 1)
	pktsA := burstPackets(gwA, 48, 14)
	pktsB := burstPackets(gwB, 48, 14)

	wsA := newWorkerState(64)
	for i := range pktsA {
		gwA.processBurst(wsA, pktsA[i:i+1])
	}
	wsB := newWorkerState(64)
	for off := 0; off < len(pktsB); off += 32 {
		end := off + 32
		if end > len(pktsB) {
			end = len(pktsB)
		}
		gwB.processBurst(wsB, pktsB[off:end])
	}

	for _, c := range []struct {
		name string
		a, b *obs.Counter
	}{
		{"admitted", gwA.admitted, gwB.admitted},
		{"rejected", gwA.rejected, gwB.rejected},
		{"forwarded", gwA.forwarded, gwB.forwarded},
		{"dropped", gwA.dropped, gwB.dropped},
	} {
		if c.a.Value() != c.b.Value() {
			t.Errorf("%s diverged: per-packet %d, burst %d", c.name, c.a.Value(), c.b.Value())
		}
	}
	if gwA.admitted.Value() == 0 {
		t.Fatal("workload produced no admissions; the invariance check is vacuous")
	}
	if gwA.rejected.Value() == 0 {
		t.Fatal("workload produced no rejections; no burst held both verdicts")
	}

	ra, rb := gwA.reg.Ring().Snapshot(), gwB.reg.Ring().Snapshot()
	if len(ra) != len(rb) {
		t.Fatalf("audit ring length diverged: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		a, b := ra[i], rb[i]
		a.UnixNanos, b.UnixNanos = 0, 0
		if a != b {
			t.Fatalf("audit record %d diverged:\nper-packet %+v\nburst      %+v", i, ra[i], rb[i])
		}
	}

	if sa, sb := flowStateString(gwA), flowStateString(gwB); sa != sb {
		t.Fatalf("flow states diverged:\nper-packet:\n%s\nburst:\n%s", sa, sb)
	}
}

// TestSilencePathMatchesHeadFill pins the gateway's single decide
// path: a 3-packet flow that goes quiet is classified by the sweep,
// decided through AdmitBurst and applied by applyDecision — so, apart
// from being counted as late-classified, it must leave exactly the
// audit record, verdict counters, flow state and promoted trace that
// the same three packets leave when they fill the head and
// processBurst decides them. The cell is pre-loaded past capacity so
// the verdict is a rejection, which exercises trace promotion.
func TestSilencePathMatchesHeadFill(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	// decide feeds the flow's three packets to a fresh gateway whose
	// flow table keeps headCap packets per flow.
	decide := func(headCap int) *gateway {
		// Head sampling at 1 in 2^20 leaves the flow unsampled: the
		// only way it reaches the trace ring is promotion.
		gw := tracedBurstGateway(t, 1, trace.New(8, 1<<20))
		gw.table = flows.NewShardedTable(1, headCap, 30, excr.DefaultSpace)
		overloadCell(gw)
		gw.processBurst(newWorkerState(64), burstPackets(gw, 1, 3))
		return gw
	}
	head := decide(3) // the third packet fills the head
	quiet := decide(10)
	if n := quiet.admitted.Value() + quiet.rejected.Value(); n != 0 {
		t.Fatalf("flow with an unfilled head was decided %d times before the sweep", n)
	}
	// Past the silence threshold, short of the idle timeout.
	quiet.sweep(classifySilence+1, new(workerState))

	if got := quiet.lateClass.Value(); got != 1 {
		t.Fatalf("exbox_gw_late_classified_total = %d, want 1", got)
	}
	if got := head.lateClass.Value(); got != 0 {
		t.Fatalf("head-filled flow counted as late-classified (%d)", got)
	}
	if head.rejected.Value() != 1 || head.admitted.Value() != 0 {
		t.Fatalf("head-fill verdicts: %d admitted, %d rejected; the overloaded cell should reject",
			head.admitted.Value(), head.rejected.Value())
	}
	for _, name := range []string{
		"exbox_gw_admitted_flows_total", "exbox_gw_rejected_flows_total",
		"exbox_cell_ap0_admit_total", "exbox_cell_ap0_reject_total",
		"exbox_cell_ap0_clf_admit_total", "exbox_cell_ap0_clf_reject_total",
		"exbox_bad_features_total",
	} {
		if h, q := head.reg.Counter(name).Value(), quiet.reg.Counter(name).Value(); h != q {
			t.Errorf("%s: head-fill %d, silence %d", name, h, q)
		}
	}

	rh, rq := head.reg.Ring().Snapshot(), quiet.reg.Ring().Snapshot()
	if len(rh) != 1 || len(rq) != 1 {
		t.Fatalf("audit rings hold %d and %d records, want 1 each", len(rh), len(rq))
	}
	rh[0].UnixNanos, rq[0].UnixNanos = 0, 0
	if rh[0] != rq[0] {
		t.Fatalf("audit record diverged:\nhead-fill %+v\nsilence   %+v", rh[0], rq[0])
	}
	if sh, sq := flowStateString(head), flowStateString(quiet); sh != sq {
		t.Fatalf("flow state diverged:\nhead-fill %ssilence   %s", sh, sq)
	}

	for name, gw := range map[string]*gateway{"head-fill": head, "silence": quiet} {
		if got := gw.tracer.Promoted(); got != 1 {
			t.Fatalf("%s: %d promoted traces, want 1", name, got)
		}
	}
	vh, vq := head.tracer.Snapshot()[0], quiet.tracer.Snapshot()[0]
	if vh.Reason != "rejected" || vh.Reason != vq.Reason || vh.Verdict != vq.Verdict || vh.Class != vq.Class || len(vh.Spans) != len(vq.Spans) {
		t.Fatalf("promoted traces diverged:\nhead-fill %+v\nsilence   %+v", vh, vq)
	}
	for i := range vh.Spans {
		a, b := vh.Spans[i], vq.Spans[i]
		a.UnixNanos, b.UnixNanos = 0, 0
		if a != b {
			t.Fatalf("promoted trace span %d diverged:\nhead-fill %+v\nsilence   %+v", i, a, b)
		}
	}
}

// datagram is one raw ingest event as the benchmarks' producers see
// it: the client address and the packet metadata, nothing derived —
// the work the pipeline does to get from an address to an accounted
// flow is part of what the benchmark measures.
type datagram struct {
	src  netip.AddrPort
	meta flows.PacketMeta
}

// ingestWorkload returns a steady-state round of UDP-shaped traffic:
// nFlows long-lived flows, already past their head and decided during
// warmup, each contributing one train of trainLen back-to-back packets
// per round — the per-flow burstiness real UDP sources (video frames,
// voice packetization) produce on the wire.
func ingestWorkload(tb testing.TB, gw *gateway, nFlows, trainLen int, warm func([]datagram)) []datagram {
	var warmup []datagram
	tm := 0.0
	for p := 0; p < 12; p++ {
		for fl := 0; fl < nFlows; fl++ {
			tm += 0.0003
			warmup = append(warmup, datagram{
				src:  testClientSrc(fl),
				meta: flows.PacketMeta{Time: tm, Bytes: 200 + 97*((p+fl)%7), Up: (p+fl)%3 == 0},
			})
		}
	}
	warm(warmup)
	if gw.admitted.Value()+gw.rejected.Value() == 0 {
		tb.Fatal("warmup decided no flows")
	}
	var round []datagram
	tm = 100.0
	for fl := 0; fl < nFlows; fl++ {
		src := testClientSrc(fl)
		for p := 0; p < trainLen; p++ {
			tm += 0.0001
			round = append(round, datagram{
				src:  src,
				meta: flows.PacketMeta{Time: tm, Bytes: 200 + 97*((p+fl)%7), Up: (p+fl)%3 == 0},
			})
		}
	}
	return round
}

// BenchmarkIngestBurst is the burst-batched datapath: the producer
// interns each datagram's client and publishes into the worker's MPSC
// ring with the production wake protocol (exactly what readLoop does
// after the socket read), the consumer drains bursts and runs
// processBurst. The pre-burst per-packet baseline it replaced (3.4×
// slower on this workload) is frozen in BENCH_pr9.json.
func BenchmarkIngestBurst(b *testing.B) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	gw := burstGateway(b, 32)
	ws := newWorkerState(64)
	in := newInterner(gw)
	round := ingestWorkload(b, gw, 64, 16, func(warmup []datagram) {
		var pkts []pkt
		for _, d := range warmup {
			pkts = append(pkts, pkt{ce: in.get(d.src), meta: d.meta})
		}
		for off := 0; off < len(pkts); off += 64 {
			end := off + 64
			if end > len(pkts) {
				end = len(pkts)
			}
			gw.processBurst(ws, pkts[off:end])
		}
	})
	r, wakeCh := gw.rings[0], gw.wake[0]
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		j := 0
		for i := 0; i < b.N; i++ {
			d := &round[j]
			if j++; j == len(round) {
				j = 0
			}
			p := pkt{ce: in.get(d.src), meta: d.meta}
			for {
				pushed, wake := r.TryPushWake(p)
				if pushed {
					if wake {
						select {
						case wakeCh <- struct{}{}:
						default:
						}
					}
					break
				}
				// Full ring: make sure the consumer is awake, then yield.
				select {
				case wakeCh <- struct{}{}:
				default:
				}
				runtime.Gosched()
			}
		}
	}()
	drained := 0
	for drained < b.N {
		n := r.Drain(ws.pkts)
		if n == 0 {
			<-wakeCh
			continue
		}
		gw.processBurst(ws, ws.pkts[:n])
		drained += n
	}
}
