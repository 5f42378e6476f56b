package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"exbox/internal/excr"
	"exbox/internal/flows"
	"exbox/internal/mathx"
)

// The two daemon workloads. Both drive the unmodified exboxd binary over
// UDP on the host loopback (no link is crossed) through the same phases:
//
//	set-up     start the daemon setups times; the last instance runs the
//	           fixed phase
//	fixed      open loop at fixedRate for 40% of the run: CPU per packet,
//	           loss, memory
//	flood      three windows of 15% each, every one on a freshly started
//	           daemon: saturation rate
//	generator  (traced run only) the generator alone against an unread socket
//
// Offered and delivered rates of a window come from the same interval (the
// generator's wall clock for that window) and the same counters.

// fixedRate is the open-loop rate of the fixed phase in datagrams/s, chosen
// so that the expected loss is zero. The daemon cannot be told to enlarge
// its socket buffer, so the 208 KiB default must outlast any wait of its
// read loop for the one CPU it has. The buffer holds 277 of fwd_steady's
// 64-byte datagrams, 9 ms at 30 000/s, and about 100 of churn's, most of
// them 1400 bytes. On churn the waits grow with the flow table: they
// coincide with the concurrent mark phase of a garbage collection, which
// reaches 10-20 ms once the heap holds ten thousand flows. At 15 000/s one
// churn run in seven lost 7-84 datagrams, at 10 000/s one in eight, at
// 7 500/s (13 ms of buffer, 6 000 flows at the end) none of 24.
var fixedRate = map[string]float64{"fwd_steady": 30000, "churn": 7500}

const steadyClients = 8

// minGenMargin is how much more than the daemon settles the generator must
// offer in the flood windows for them to measure the daemon and not the
// generator.
const minGenMargin = 1.3

type window struct {
	gen             genStats
	before, after   promSample
	pBefore, pAfter procSample
}

func (w window) processed() float64 { return w.after.processed() - w.before.processed() }
func (w window) ringDrops() float64 { return w.after[mRingDrops] - w.before[mRingDrops] }
func (w window) cpu() time.Duration {
	return (w.pAfter.user - w.pBefore.user) + (w.pAfter.sys - w.pBefore.sys)
}

// daemonRun is everything measured from outside the daemon in one run.
type daemonRun struct {
	setups   []time.Duration
	fixed    window
	floods   []window
	genAlone genStats
	// rssMiB is the daemon's peak resident set when the fixed phase ends:
	// memory for a fixed amount of work. idleRSS is its resident set before
	// any traffic; logBytes its log file's size after the fixed phase.
	rssMiB   float64
	idleRSS  float64
	logBytes int64
	scrapeMs []float64
	sch      schedule
	port     int // the generator's source port, part of every flow key
	pin      pinning
}

// steadyAddrs picks fwd_steady's client addresses from the seed so that
// client i belongs to daemon worker i modulo the worker count (a flow's
// worker is its shard modulo the worker count): the clients take turns, so
// consecutive datagrams go to alternate workers whatever the seed. Left to
// the hash, the split is anywhere between 4/4 and 8/0 and the saturation
// rate follows it; and with a 4/4 split the order still decides how often a
// datagram finds its worker awake — CPU per datagram read 17.5 us for some
// seeds and 20.6 us for the others.
func steadyAddrs(seed int64, port int) [][4]byte {
	rng := rand.New(rand.NewSource(seed))
	table := flows.NewShardedTable(daemonShards, 10, 30, excr.DefaultSpace)
	taken := map[[4]byte]bool{}
	var out [][4]byte
	for len(out) < steadyClients {
		a := clientAddr(uint32(rng.Int31()), 0)
		w := table.ShardIndex(clientKey(a, port)) % daemonWorkers
		if taken[a] || w != len(out)%daemonWorkers {
			continue
		}
		taken[a] = true
		out = append(out, a)
	}
	return out
}

// clientKey is the flow key exboxd's read loop builds for a client.
func clientKey(a [4]byte, port int) flows.Key {
	return flows.Key{
		Src: net.IP(a[:]).String(), Dst: "sink",
		SrcPort: uint16(port), DstPort: 9, Proto: flows.UDP,
	}
}

// runDaemon executes the phases above. scale shortens the phases (the
// traced run spends part of its time on the in-process replay).
func runDaemon(workload string, cfg runConfig, scale float64) (run *daemonRun, err error) {
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	run = &daemonRun{pin: newPinning()}
	var d *daemon
	// restart replaces the running daemon with a fresh one; every start is
	// a set-up sample.
	restart := func() error {
		if d != nil {
			d.kill()
		}
		d, err = startDaemon(bin, filepath.Join(outDir, "exboxd-"+workload+".log"), &run.pin)
		if err != nil {
			return err
		}
		run.setups = append(run.setups, d.setup)
		return nil
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if err := restart(); err != nil {
			return nil, err
		}
	}

	snd, err := newSender(d.gateway)
	if err != nil {
		return nil, err
	}
	defer snd.close()
	snd.pin = run.pin
	run.port = snd.port
	switch workload {
	case "fwd_steady":
		run.sch = steadySchedule(steadyAddrs(cfg.seed, snd.port))
	case "churn":
		run.sch = churnSchedule(cfg.seed)
	}
	sch := &run.sch
	idle, err := d.proc()
	if err != nil {
		return nil, err
	}
	run.idleRSS = idle.rssMiB

	next := 0 // next schedule unit
	measure := func(rate float64, dur time.Duration, scrapes bool) (window, error) {
		var w window
		var err error
		if w.before, err = d.scrape(); err != nil {
			return w, err
		}
		if w.pBefore, err = d.proc(); err != nil {
			return w, err
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			if !scrapes {
				return
			}
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					t0 := time.Now()
					if _, err := d.scrape(); err == nil {
						run.scrapeMs = append(run.scrapeMs, float64(time.Since(t0))/1e6)
					}
				}
			}
		}()
		w.gen, err = snd.run(sch, next, rate, dur)
		close(stop)
		<-done
		if err != nil {
			return w, err
		}
		next += w.gen.units
		if w.after, err = d.quiesce(); err != nil {
			return w, err
		}
		if w.pAfter, err = d.proc(); err != nil {
			return w, err
		}
		return w, d.alive()
	}
	// On fwd_steady the eight flows are classified and admitted before
	// anything is measured: the workload is forwarding for decided flows.
	warmUp := func() error {
		if workload != "fwd_steady" {
			return nil
		}
		_, err := measure(1000, 500*time.Millisecond, false)
		return err
	}
	secs := func(share float64) time.Duration {
		return time.Duration(cfg.seconds * share * scale * float64(time.Second))
	}

	if err := warmUp(); err != nil {
		return nil, err
	}
	if run.fixed, err = measure(fixedRate[workload], secs(0.40), cfg.trace); err != nil {
		return nil, err
	}
	run.rssMiB = run.fixed.pAfter.hwmMiB
	run.logBytes = d.logSize()

	// Each flood window gets a daemon of its own, so that all three
	// measure the same thing — the first seconds of overload from an empty
	// flow table — and their median is an estimate of that, not the middle
	// of a trend: on one long-lived daemon churn's windows read 190, 155
	// and 140 kpkt/s as the table and the heap grew under them.
	for i := 0; i < floodWindows; i++ {
		if err := restart(); err != nil {
			return nil, err
		}
		snd.setDst(d.gateway)
		if err := warmUp(); err != nil {
			return nil, err
		}
		w, err := measure(0, secs(0.15), false)
		if err != nil {
			return nil, err
		}
		run.floods = append(run.floods, w)
	}
	if !cfg.trace {
		return run, nil
	}
	// The generator alone: same schedule, same code, an unread socket.
	sinkhole, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer sinkhole.Close()
	snd.setDst(sinkhole.LocalAddr().(*net.UDPAddr))
	run.genAlone, err = snd.run(sch, next, 0, secs(0.08))
	return run, err
}

const floodWindows = 3

// checks applies the correctness checks that hold for any run of a daemon
// workload, and returns the failed-operation count: datagrams of the fixed
// phase that the daemon did not settle.
func (r *daemonRun) checks(workload string) (cs []check, lost int64) {
	f := r.fixed
	sent := float64(f.gen.sent)
	accounted := f.processed() + f.ringDrops()
	lost = int64(sent - f.processed())
	cs = append(cs, check{"conservation at the fixed rate: forwarded + verdict-dropped + ring drops <= sent, equal when nothing was lost",
		accounted <= sent && (lost > 0 || accounted == sent), fmt.Sprintf("%.0f vs %.0f", accounted, sent)})
	for i, w := range r.floods {
		acc := w.processed() + w.ringDrops()
		cs = append(cs, check{fmt.Sprintf("conservation in flood window %d", i+1),
			acc <= float64(w.gen.sent), fmt.Sprintf("%.0f <= %d", acc, w.gen.sent)})
	}
	sat, offered := r.satPPS(), r.offeredPPS()
	cs = append(cs, check{fmt.Sprintf("flood windows are daemon-bound: offered >= %.1fx settled", minGenMargin),
		offered >= minGenMargin*sat, fmt.Sprintf("%.0f vs %.0f pkt/s", offered, sat)})
	switch workload {
	case "fwd_steady":
		const mDiscontinued = "exbox_gw_discontinued_flows_total"
		for i, w := range append([]window{f}, r.floods...) {
			fin := w.after
			cs = append(cs, check{fmt.Sprintf("daemon %d of %d: all 8 flows admitted, none rejected or discontinued", i+1, 1+len(r.floods)),
				fin[mAdmitted] == steadyClients && fin[mRejected] == 0 && fin[mDiscontinued] == 0,
				fmt.Sprintf("admitted=%.0f rejected=%.0f discontinued=%.0f", fin[mAdmitted], fin[mRejected], fin[mDiscontinued])})
		}
	case "churn":
		// A flow whose 12 datagrams all arrived was decided at its 10th
		// (late classification by the silence sweep counts as admitted or
		// rejected too). Flows that lost a datagram may still be waiting
		// for that sweep; there are at most as many as lost datagrams.
		decided := f.after[mAdmitted] + f.after[mRejected] - f.before[mAdmitted] - f.before[mRejected]
		flowsOffered := float64(f.gen.units)
		cs = append(cs, check{"every offered flow that lost no datagram was admitted or rejected (fixed rate)",
			decided >= flowsOffered-float64(lost) && decided <= flowsOffered,
			fmt.Sprintf("decided=%.0f offered=%.0f lost datagrams=%d", decided, flowsOffered, lost)})
	}
	return cs, lost
}

// satPPS is the median over the flood windows of datagrams settled per
// second; offeredPPS the median of datagrams sent per second. Both divide
// by the same interval, the generator's wall clock for the window.
func (r *daemonRun) satPPS() float64 {
	var v []float64
	for _, w := range r.floods {
		v = append(v, w.processed()/w.gen.wall.Seconds())
	}
	return mathx.Median(v)
}

func (r *daemonRun) offeredPPS() float64 {
	var v []float64
	for _, w := range r.floods {
		v = append(v, w.gen.pps())
	}
	return mathx.Median(v)
}

func (r *daemonRun) cpuPerPkt() float64 {
	return float64(r.fixed.cpu().Microseconds()) / r.fixed.processed()
}

func (r *daemonRun) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":       medianDur(r.setups).Seconds(),
		"throughput":    r.satPPS(),
		"cpu_us_per_op": r.cpuPerPkt(),
		"rss_mb":        r.rssMiB,
	}
}

// layers derives the per-layer metrics that come from outside the daemon:
// its /metrics page, /proc and its log file, plus the generator's report.
func (r *daemonRun) layers(workload string) map[string]float64 {
	f := r.fixed
	pkts := f.processed()
	m := map[string]float64{
		"loss_frac":              (float64(f.gen.sent) - pkts) / float64(f.gen.sent),
		"exboxd.sys_us_per_pkt":  float64((f.pAfter.sys - f.pBefore.sys).Microseconds()) / pkts,
		"exboxd.user_us_per_pkt": float64((f.pAfter.user - f.pBefore.user).Microseconds()) / pkts,
		"exboxd.fwd_frac":        (f.after[mForwarded] - f.before[mForwarded]) / pkts,
		"ring.burst_mean":        r.burstMean(),
		"flows.active_peak":      r.activePeak(),
		"obs.scrape_ms":          mathx.Median(r.scrapeMs),
		"gen.late_p99_us":        f.gen.lateP99,
		"gen.alone_pps":          r.genAlone.pps(),
	}
	var sent, settled, ring, cpu, genCPU float64
	for _, w := range r.floods {
		sent += float64(w.gen.sent)
		settled += w.processed()
		ring += w.ringDrops()
		cpu += float64(w.cpu().Microseconds())
		genCPU += float64(w.gen.cpu.Microseconds())
	}
	m["exboxd.flood_cpu_us_per_pkt"] = cpu / settled
	m["exboxd.kernel_drop_frac"] = (sent - settled - ring) / sent
	m["ring.drop_frac"] = ring / sent
	m["gen.offered_pps"] = r.offeredPPS()
	m["gen.cpu_us_per_pkt"] = genCPU / sent
	if active := f.after[mActive]; active > 0 && workload == "churn" {
		m["flows.bytes_per_flow"] = (f.pAfter.rssMiB - r.idleRSS) * (1 << 20) / active
	}
	if decided := f.after[mAdmitted] + f.after[mRejected]; decided > 0 && workload == "churn" {
		m["exboxd.log_bytes_per_flow"] = float64(r.logBytes) / decided
	}
	return m
}

// activePeak is the largest flow table any of the run's daemons held.
func (r *daemonRun) activePeak() float64 {
	peak := r.fixed.after[mActive]
	for _, w := range r.floods {
		if a := w.after[mActive]; a > peak {
			peak = a
		}
	}
	return peak
}

// burstMean is the mean number of datagrams a worker drained per burst
// during the fixed phase.
func (r *daemonRun) burstMean() float64 {
	f := r.fixed
	return (f.after[mBurstSum] - f.before[mBurstSum]) / (f.after[mBurstCnt] - f.before[mBurstCnt])
}

// replayCap bounds the replayed schedule so the span file stays around
// ten megabytes.
const replayCap = 96000 // datagrams

// daemonWorkload is fwd_steady and churn. Untraced, it reports the
// end-to-end metrics of a full-length run. Traced, it runs the same phases
// at half length for the layer metrics visible from outside, then replays
// the fixed phase's schedule in-process three times: untraced, with timing
// spans, and with allocation-counting spans.
func daemonWorkload(workload string, cfg runConfig) (*outcome, error) {
	scale := 1.0
	if cfg.trace {
		scale = 0.5
	}
	r, err := runDaemon(workload, cfg, scale)
	if err != nil {
		return nil, err
	}
	cs, lost := r.checks(workload)
	out := &outcome{attempted: r.fixed.gen.sent, failed: lost, checks: cs}
	out.notes = append(out.notes, fmt.Sprintf(
		"loopback, no link; %s; fixed phase %.0f pkt/s offered, generator p99 lateness %.1f us over %d sends; flood offered %.0f pkt/s",
		&r.pin, r.fixed.gen.pps(), r.fixed.gen.lateP99, r.fixed.gen.lateSamp, r.offeredPPS()))
	if !cfg.trace {
		out.metrics = r.endToEnd()
		return out, nil
	}

	m := r.layers(workload)
	units := r.fixed.gen.units
	if max := replayCap / r.sch.unitLen; units > max {
		units = max
	}
	chunk := int(r.burstMean()*daemonWorkers + 0.5)
	if chunk < 1 {
		chunk = 1
	}
	pass := func(units int, t *tracer) (replayStats, *shadowGateway, error) {
		g, err := newShadowGateway(r.port)
		if err != nil {
			return replayStats{}, nil, err
		}
		defer g.close()
		return g.run(&r.sch, units, chunk, fixedRate[workload], t), g, nil
	}
	plain, _, err := pass(units, nil)
	if err != nil {
		return nil, err
	}
	timing := newTracer(1<<20, nanoClock())
	traced, g, err := pass(units, timing)
	if err != nil {
		return nil, err
	}
	allocs := newTracer(1<<18, allocClock())
	counted, ga, err := pass(units/4, allocs)
	if err != nil {
		return nil, err
	}
	tot, err := writeTrace(workload, cfg.seed, timing)
	if err != nil {
		return nil, err
	}
	atot := allocs.totals()
	n := float64(traced.packets)
	m["ring.push_ns_per_pkt"] = float64(tot["ring.TryPushWake"].Self) / n
	m["ring.drain_ns_per_pkt"] = float64(tot["ring.Drain"].Self) / n
	m["flows.visit_ns_per_pkt"] = float64(tot["flows.DoBatch"].Self+tot["flows.DoBatch(apply)"].Self) / n
	m["flows.allocs_per_pkt"] = float64(atot["flows.DoBatch"].Self+atot["flows.DoBatch(apply)"].Self) / float64(counted.packets)
	m["flowclass.train_ms"] = g.trainMs
	if c := tot["flowclass.ClassifyFlow"]; c.Count > 0 {
		m["flowclass.classify_ns"] = float64(c.Total) / float64(c.Count)
	}
	if cands := float64(g.admitted + g.rejected); cands > 0 {
		m["exboxcore.admitburst_ns_per_cand"] = float64(tot["exboxcore.AdmitBurst"].Total) / cands
		m["exboxcore.allocs_per_admit"] = float64(atot["exboxcore.AdmitBurst"].Total) / float64(ga.admitted+ga.rejected)
	}
	if c := tot["exboxcore.ReevaluateWith"]; c.Count > 0 {
		m["exboxcore.reevaluate_us"] = float64(c.Total) / float64(c.Count) / 1e3
	}
	if workload == "churn" && traced.expired > 0 {
		m["flows.expire_us_per_flow"] = float64(traced.expireWall.Microseconds()) / float64(traced.expired)
	}
	m["trace.overhead_frac"] = float64(traced.wall)/float64(plain.wall) - 1
	var self int64
	for _, lt := range tot {
		self += lt.Self
	}
	m["exboxd.unattributed_us_per_pkt"] = r.cpuPerPkt() - m["exboxd.sys_us_per_pkt"] - float64(self)/n/1e3
	out.metrics = m
	out.notes = append(out.notes,
		fmt.Sprintf("replayed %d datagrams in chunks of %d (daemon burst mean %.2f x %d workers); %d spans, %d dropped",
			traced.packets, chunk, r.burstMean(), daemonWorkers, len(timing.spans), timing.dropped),
		stageTable(tot, "in-process replay; self time per datagram", n))
	return out, nil
}

// stageTable renders a trace's per-layer roll-up, self time per operation,
// as one note.
func stageTable(tot map[string]layerTotals, title string, ops float64) string {
	names := make([]string, 0, len(tot))
	for name := range tot {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("stage table (" + title + "):")
	for _, name := range names {
		lt := tot[name]
		fmt.Fprintf(&b, "\n        %-28s %9d spans %12.1f ns", name, lt.Count, float64(lt.Self)/ops)
	}
	return b.String()
}
