package main

import (
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/exboxcore"
	"exbox/internal/excr"
	"exbox/internal/flowclass"
	"exbox/internal/flows"
	"exbox/internal/mathx"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	flowtrace "exbox/internal/obs/trace"
	"exbox/internal/ring"
	"exbox/internal/traffic"
)

// The in-process replay behind the daemon workloads' per-layer numbers.
// exboxd's pipeline lives in package main and cannot be called, so the
// traced run rebuilds it from the same exported parts, wired as newGateway
// wires them, and walks the workload's own packet schedule through the
// same call sequence as processBurst and sweep in cmd/exboxd/main.go:
//
//	ring.TryPushWake → ring.Drain → ShardedTable.DoBatch{Observe |
//	ObserveOwned, ReadyToClassify → flowclass.ClassifyFlow} →
//	Middlebox.AdmitBurst → DoBatch{apply}      (per burst)
//	ShardedTable.Expire, Sweep, Middlebox.ReevaluateWith (every 500 ms)
//
// What only exboxd does — socket reads and writes, client interning, the
// per-flow log line, wake-ups — is not replayed; its cost is what remains
// of the daemon's measured CPU per packet once the replayed layers are
// subtracted (exboxd.unattributed_us_per_pkt).

const replayCell = exboxcore.CellID("ap0")

type replayPkt struct {
	ce   *replayClient
	meta flows.PacketMeta
}

type replayClient struct {
	key   flows.Key
	snr   excr.SNRLevel
	shard int32
}

type shadowGateway struct {
	space   excr.Space
	table   *flows.ShardedTable
	fc      *flowclass.Classifier
	mb      *exboxcore.Middlebox
	ftrace  *flowtrace.Tracer
	rings   []*ring.MPSC[replayPkt]
	clients map[uint32]*replayClient
	port    int
	trainMs float64 // flowclass.Train wall time

	// Reusable burst workspace, as exboxd's workerState.
	pkts    []replayPkt
	bsc     flows.BatchScratch
	burst   exboxcore.BurstScratch
	cands   []exboxcore.BurstCandidate
	candIdx []int32
	outs    []exboxcore.Outcome
	sweepSc classifier.Scratch

	admitted, rejected, evicted, expired int
}

// newShadowGateway repeats newGateway's construction: the same seeds, the
// same training calls in the same order, the same instrumentation.
func newShadowGateway(port int) (*shadowGateway, error) {
	space := excr.DefaultSpace
	rng := mathx.NewRand(7)
	t0 := time.Now()
	fc, err := flowclass.Train([]excr.AppClass{excr.Web, excr.Streaming, excr.Conferencing}, 40, 10, rng)
	if err != nil {
		return nil, fmt.Errorf("training flow classifier: %w", err)
	}
	trainMs := float64(time.Since(t0)) / 1e6
	mb := exboxcore.New(space, exboxcore.Discontinue)
	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	cfg.WarmStart = true
	if _, err := mb.AddCell(replayCell, cfg); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ft := flowtrace.New(256, 16)
	mb.Instrument(reg, 256)
	mb.InstrumentTracing(ft)
	mb.SetAdmitLatencySampling(16)
	mb.EnableSLO(exboxcore.SLOConfig{Objective: 0.99, SlowWindow: 15 * time.Minute})
	oracle := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}
	for _, e := range traffic.Arrivals(traffic.Random(rng, 30, 10, 10, space), nil) {
		if err := mb.Observe(replayCell, excr.Sample{Arrival: e.Arrival, Label: oracle.Label(e.Arrival)}); err != nil {
			mb.Close()
			return nil, err
		}
	}
	if mb.Cell(replayCell).Classifier.Bootstrapping() {
		if err := mb.Cell(replayCell).Classifier.ForceOnline(); err != nil {
			mb.Close()
			return nil, err
		}
	}
	table := flows.NewShardedTable(daemonShards, 10, 30, space)
	table.Instrument(reg, "exbox_flows")
	g := &shadowGateway{
		space: space, table: table, fc: fc, mb: mb, ftrace: ft, port: port,
		clients: make(map[uint32]*replayClient),
		trainMs: trainMs,
		pkts:    make([]replayPkt, daemonBurst),
		candIdx: make([]int32, daemonBurst),
	}
	for i := 0; i < daemonWorkers; i++ {
		g.rings = append(g.rings, ring.New[replayPkt](daemonRingSize))
	}
	return g, nil
}

func (g *shadowGateway) close() { g.mb.Close() }

// client interns a schedule client the way exboxd's read loop does.
func (g *shadowGateway) client(sch *schedule, c uint32) *replayClient {
	if ce := g.clients[c]; ce != nil {
		return ce
	}
	a := sch.addr(c)
	key := clientKey(a, g.port)
	h := fnv.New32a()
	h.Write([]byte(net.IP(a[:]).String()))
	snr := excr.SNRHigh
	if h.Sum32()%4 == 0 {
		snr = excr.SNRLow
	}
	ce := &replayClient{key: key, snr: snr, shard: int32(g.table.ShardIndex(key))}
	g.clients[c] = ce
	return ce
}

func (g *shadowGateway) level(snr excr.SNRLevel) excr.SNRLevel {
	if g.space.Levels == 1 {
		return 0
	}
	return snr
}

// flowTraceID is exboxd's traceID: FNV-64a over the key's fields.
func flowTraceID(k flows.Key) flowtrace.ID {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(k.Src)
	mix(k.Dst)
	for _, v := range []uint64{uint64(k.SrcPort), uint64(k.DstPort), uint64(k.Proto)} {
		h ^= v
		h *= prime
	}
	return flowtrace.ID(h)
}

// replayLayers are the span layers of the replay, interned once per tracer.
type replayLayers struct {
	push, drain, visit, classify, admit, apply, expire, sweep, reeval int32
}

func newReplayLayers(t *tracer) replayLayers {
	return replayLayers{
		push:     t.layer("ring.TryPushWake"),
		drain:    t.layer("ring.Drain"),
		visit:    t.layer("flows.DoBatch"),
		classify: t.layer("flowclass.ClassifyFlow"),
		admit:    t.layer("exboxcore.AdmitBurst"),
		apply:    t.layer("flows.DoBatch(apply)"),
		expire:   t.layer("flows.Expire"),
		sweep:    t.layer("flows.Sweep"),
		reeval:   t.layer("exboxcore.ReevaluateWith"),
	}
}

// processBurst is exboxd's processBurst without the forward write and the
// log line.
func (g *shadowGateway) processBurst(pkts []replayPkt, t *tracer, l replayLayers) {
	n := len(pkts)
	g.cands = g.cands[:0]
	candIdx := g.candIdx[:n]
	for i := range candIdx {
		candIdx[i] = -1
	}
	var lastT *flows.Table
	var lastCE *replayClient
	var lastF *flows.Flow
	sp := t.begin(l.visit)
	g.table.DoBatch(&g.bsc, n,
		func(i int) int { return int(pkts[i].ce.shard) },
		func(i int, tb *flows.Table) {
			p := &pkts[i]
			if tb != lastT {
				lastT, lastCE, lastF = tb, nil, nil
			}
			var f *flows.Flow
			if p.ce == lastCE {
				f = lastF
				tb.ObserveOwned(f, p.meta)
			} else {
				f = tb.Observe(p.ce.key, p.meta)
				lastCE, lastF = p.ce, f
			}
			if f.Packets == 1 {
				f.SNR = p.ce.snr
				if id := flowTraceID(f.Key); g.ftrace.Sampled(id) {
					f.Trace = g.ftrace.Start(id, string(replayCell), -1, int(f.SNR), "sampled")
					f.Trace.Add(flowtrace.Span{Kind: flowtrace.KindArrival, UnixNanos: int64(p.meta.Time * 1e9)})
				}
			}
			if f.ReadyToClassify(tb.HeadCap) {
				cs := t.begin(l.classify)
				class, _, err := g.fc.ClassifyFlow(f)
				t.end(cs)
				if err != nil {
					return
				}
				f.Class, f.Classified = class, true
				if f.Trace != nil {
					f.Trace.SetClass(int(class))
				}
				candIdx[i] = int32(len(g.cands))
				g.cands = append(g.cands, exboxcore.BurstCandidate{Class: class, Level: g.level(f.SNR), Trace: f.Trace})
			}
		})
	t.end(sp)
	if len(g.cands) == 0 {
		return
	}
	sp = t.begin(l.admit)
	outs, err := g.mb.AdmitBurst(replayCell, g.table.Matrix(), g.cands, g.outs, &g.burst)
	t.end(sp)
	if err != nil {
		return
	}
	g.outs = outs
	sp = t.begin(l.apply)
	g.table.DoBatch(&g.bsc, n,
		func(i int) int { return int(pkts[i].ce.shard) },
		func(i int, tb *flows.Table) {
			// Like exboxd, look every packet's flow up again, not only the
			// candidates': the verdict of each slot is resettled here.
			f := tb.Get(pkts[i].ce.key)
			ci := candIdx[i]
			if f == nil || ci < 0 {
				return
			}
			f.Decided = true
			f.Admitted = outs[ci].Verdict == exboxcore.Admit
			if f.Admitted {
				g.admitted++
				g.table.TrackAdmitted(f)
			} else {
				g.rejected++
			}
		})
	t.end(sp)
}

// sweep is exboxd's 500 ms maintenance pass: expire idle flows, then
// re-evaluate the admitted ones against the current matrix. (The silence
// pass has nothing to do here: no replayed flow loses a packet.)
func (g *shadowGateway) sweep(now float64, t *tracer, l replayLayers) {
	sp := t.begin(l.expire)
	expired := g.table.Expire(now)
	t.end(sp)
	g.expired += len(expired)
	for _, f := range expired {
		if f.Trace != nil {
			f.Trace.Close()
		}
	}
	var active []exboxcore.ActiveFlow
	var keys []flows.Key
	matrix := excr.NewMatrix(g.space)
	sp = t.begin(l.sweep)
	g.table.Sweep(func(tb *flows.Table) {
		for _, f := range tb.Active() {
			if f.Classified && f.Decided && f.Admitted && int(f.Class) < g.space.Classes {
				lvl := g.level(f.SNR)
				active = append(active, exboxcore.ActiveFlow{ID: len(active), Class: f.Class, Level: lvl, Trace: f.Trace})
				keys = append(keys, f.Key)
				matrix = matrix.Inc(f.Class, lvl)
			}
		}
	})
	t.end(sp)
	if len(active) == 0 {
		return
	}
	sp = t.begin(l.reeval)
	evict, err := g.mb.ReevaluateWith(replayCell, matrix, active, &g.sweepSc)
	t.end(sp)
	if err != nil {
		return
	}
	for _, ev := range evict {
		k := keys[ev.ID]
		g.table.Do(k, func(tb *flows.Table) {
			if f := tb.Get(k); f != nil && f.Decided && f.Admitted {
				g.table.UntrackAdmitted(f)
				f.Admitted = false
				g.evicted++
			}
		})
	}
}

// replayStats is one pass over a schedule.
type replayStats struct {
	packets    int
	wall       time.Duration
	expired    int           // flows expired when the clock jumps past the idle timeout
	expireWall time.Duration // what that one Expire call took
}

// run walks units [0, units) of sch through the pipeline in chunks of
// chunk datagrams (the daemon's observed mean burst times its workers), on
// a virtual clock that advances one pacing period per unit, sweeping every
// 500 ms of it. When the schedule ends the clock jumps past the idle
// timeout and one Expire call, timed on its own, removes every flow.
func (g *shadowGateway) run(sch *schedule, units, chunk int, rate float64, t *tracer) replayStats {
	l := newReplayLayers(t)
	period := float64(sch.unitLen) / rate
	buf := make([]packet, 0, sch.unitLen)
	pending := make([]replayPkt, 0, chunk+sch.unitLen)
	nextSweep := 0.5
	var st replayStats
	flush := func(pk []replayPkt) {
		if t != nil {
			t.req++
		}
		touched := [daemonWorkers]bool{}
		sp := t.begin(l.push)
		for _, p := range pk {
			w := int(p.ce.shard) % daemonWorkers
			g.rings[w].TryPushWake(p)
			touched[w] = true
		}
		t.end(sp)
		for w, r := range g.rings {
			if !touched[w] {
				continue
			}
			for {
				sp := t.begin(l.drain)
				n := r.Drain(g.pkts)
				t.end(sp)
				if n == 0 {
					break
				}
				g.processBurst(g.pkts[:n], t, l)
			}
		}
	}
	start := time.Now()
	for u := 0; u < units; u++ {
		now := float64(u) * period
		buf = sch.unit(u, buf[:0])
		for _, p := range buf {
			pending = append(pending, replayPkt{
				ce:   g.client(sch, p.client),
				meta: flows.PacketMeta{Time: now, Bytes: int(p.size), Up: p.up},
			})
			if len(pending) >= chunk {
				flush(pending)
				pending = pending[:0]
			}
		}
		st.packets += len(buf)
		if now >= nextSweep {
			g.sweep(now, t, l)
			nextSweep += 0.5
		}
	}
	if len(pending) > 0 {
		flush(pending)
	}
	st.wall = time.Since(start)
	sp := t.begin(l.expire)
	t0 := time.Now()
	st.expired = len(g.table.Expire(float64(units)*period + 31))
	st.expireWall = time.Since(t0)
	t.end(sp)
	return st
}
