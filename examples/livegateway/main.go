// Livegateway: ExBox in the packet path over real UDP sockets. A
// gateway goroutine forwards client datagrams to a sink, maintains a
// flow table, classifies flows from their first packets with the
// naive-Bayes traffic classifier, and drops flows the Admittance
// Classifier rejects. Two well-behaved clients and one cell-filling
// burst of streaming clients demonstrate an actual rejection.
//
//	go run ./examples/livegateway
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"exbox"
	"exbox/internal/classifier"
	"exbox/internal/exboxcore"
	"exbox/internal/excr"
	"exbox/internal/flowclass"
	"exbox/internal/flows"
	"exbox/internal/mathx"
	"exbox/internal/obs"
	"exbox/internal/obs/trace"
	"exbox/internal/obs/tsdb"
	"exbox/internal/traffic"
)

const cell = exboxcore.CellID("ap0")

func main() {
	// Gateway socket and upstream sink.
	gw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()

	// Train the two learners offline: the flow classifier from
	// synthetic traces, the admittance classifier from a *small* cell's
	// ground truth so a handful of streams already fills it.
	rng := mathx.NewRand(3)
	fc, err := flowclass.Train([]excr.AppClass{excr.Web, excr.Streaming, excr.Conferencing}, 40, 10, rng)
	if err != nil {
		log.Fatal(err)
	}
	smallCell := exbox.TestbedWiFiConfig()
	oracle := exbox.Oracle{Net: exbox.FluidWiFi{Config: smallCell}}
	mb := exboxcore.New(excr.DefaultSpace, exboxcore.Discontinue)
	// The same telemetry registry exboxd serves over -http; here it
	// feeds the closing summary (and keeps an audit trail of the
	// demo's decisions).
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)
	// Trace every flow (sampleEvery=1): the demo is small and the point
	// is to show a complete rejected-flow lifecycle at the end.
	tracer := trace.New(64, 1)
	mb.InstrumentTracing(tracer)
	reg.SetTracer(tracer)
	reg.SetHealth(func() interface{} { return mb.Health() })
	// QoE SLO burn-rate accounting over a demo-sized window, and the
	// windowed timeline store exboxd serves at /debug/timeline — here it
	// feeds the closing per-second history line.
	mb.EnableSLO(exboxcore.SLOConfig{SlowWindow: 30 * time.Second, MinTicks: 1})
	timeline := tsdb.New(reg, tsdb.Config{Resolution: 250 * time.Millisecond, Retention: time.Minute})
	if _, err := mb.AddCell(cell, classifier.DefaultConfig()); err != nil {
		log.Fatal(err)
	}
	for _, ev := range traffic.Arrivals(traffic.Random(rng, 30, 10, 10, excr.DefaultSpace), nil) {
		mb.Observe(cell, excr.Sample{Arrival: ev.Arrival, Label: oracle.Label(ev.Arrival)})
	}

	table := flows.NewTable(10, 30)
	var mu sync.Mutex
	start := time.Now()
	decisions := make(chan string, 64)

	// Forwarding loop, with a periodic expiry sweep so idle flows leave
	// the traffic matrix instead of inflating every later decision.
	done := make(chan struct{})
	go timeline.Run(done)
	go func() {
		buf := make([]byte, 64*1024)
		lastSweep := 0.0
		for {
			select {
			case <-done:
				return
			default:
			}
			gw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, src, err := gw.ReadFromUDP(buf)
			now := time.Since(start).Seconds()
			if now-lastSweep >= 1 {
				lastSweep = now
				mu.Lock()
				for _, f := range table.Expire(now) {
					if f.Trace != nil {
						f.Trace.Add(trace.Span{Kind: trace.KindExpiry, UnixNanos: time.Now().UnixNano()})
						f.Trace.Close()
					}
				}
				mu.Unlock()
			}
			if err != nil {
				continue
			}
			up := n > 0 && buf[0] == 'U'
			mu.Lock()
			key := flows.Key{Src: src.IP.String(), SrcPort: uint16(src.Port), Dst: "sink", DstPort: 9, Proto: flows.UDP}
			f := table.Observe(key, flows.PacketMeta{Time: now, Bytes: n, Up: up})
			f.SNR = excr.SNRHigh
			if f.Packets == 1 {
				f.Trace = tracer.Start(trace.IDFromString(f.Key.String()), string(cell), -1, int(f.SNR), "sampled")
				f.Trace.Add(trace.Span{Kind: trace.KindArrival, UnixNanos: time.Now().UnixNano()})
			}
			if f.ReadyToClassify(table.HeadCap) {
				if class, _, err := fc.ClassifyFlow(f); err == nil {
					table.MarkClassified(f, class)
					f.Trace.SetClass(int(class))
					f.Trace.Add(trace.Span{Kind: trace.KindClassify, UnixNanos: time.Now().UnixNano(), Note: class.String()})
					// Propagate the flow's SNR with the same collapse
					// rule ReevaluateWith uses for single-level spaces.
					lvl := f.SNR
					if excr.DefaultSpace.Levels == 1 {
						lvl = 0
					}
					// A burst of one traced candidate: the decision span lands
					// on the flow's trace.
					outs, err := mb.AdmitBurst(cell, table.Matrix(excr.DefaultSpace),
						[]exboxcore.BurstCandidate{{Class: class, Level: lvl, Trace: f.Trace}}, nil, nil)
					if err == nil {
						f.Decided = true
						f.Admitted = outs[0].Verdict == exboxcore.Admit
						decisions <- fmt.Sprintf("%s -> %v as %v", f.Key, outs[0].Verdict, class)
					}
				}
			}
			forward := !(f.Decided && !f.Admitted)
			mu.Unlock()
			if forward {
				gw.WriteToUDP(buf[:n], sink.LocalAddr().(*net.UDPAddr))
			}
		}
	}()

	// Clients: a web flow and a call first, then a burst of six
	// streaming flows that overruns the small cell — the later ones
	// must be rejected.
	var wg sync.WaitGroup
	send := func(class excr.AppClass, seed int64, d time.Duration) {
		defer wg.Done()
		conn, err := net.DialUDP("udp", nil, gw.LocalAddr().(*net.UDPAddr))
		if err != nil {
			log.Print(err)
			return
		}
		defer conn.Close()
		payload := make([]byte, 64*1024)
		tr := traffic.Synthesize(class, d.Seconds(), mathx.NewRand(seed))
		t0 := time.Now()
		for _, p := range tr.Packets {
			at := time.Duration(p.TimeSec * float64(time.Second))
			if sleep := at - time.Since(t0); sleep > 0 {
				time.Sleep(sleep)
			}
			if time.Since(t0) > d {
				return
			}
			payload[0] = 'D'
			if p.Up {
				payload[0] = 'U'
			}
			size := p.Bytes
			if size > len(payload) {
				size = len(payload)
			}
			conn.Write(payload[:size])
		}
	}
	wg.Add(2)
	go send(excr.Web, 101, 4*time.Second)
	go send(excr.Conferencing, 102, 4*time.Second)
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go send(excr.Streaming, 200+int64(i), 3*time.Second)
	}

	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case d := <-decisions:
			fmt.Println(d)
		case <-done:
			// The verdict tallies come from the instrumented registry —
			// the same counters a scrape of exboxd's /metrics would show
			// — instead of re-parsing the decision log.
			admitted := reg.Counter("exbox_cell_ap0_admit_total").Value()
			rejected := reg.Counter("exbox_cell_ap0_reject_total").Value()
			fmt.Printf("\n%d flows admitted, %d rejected by the live gateway\n", admitted, rejected)
			if ring := mb.AuditRing(); ring != nil {
				recs := ring.Snapshot()
				fmt.Printf("audit trail holds %d decisions; last:\n", len(recs))
				for i := len(recs) - 3; i < len(recs); i++ {
					if i >= 0 {
						r := recs[i]
						fmt.Printf("  #%d cell=%s class=%d matrix=<%s> margin=%+.2f %s\n",
							r.Seq, r.Cell, r.Class, r.Matrix, r.Margin, r.Verdict)
					}
				}
			}
			// One rejected flow's full lifecycle, as /debug/traces would
			// serve it, and the health verdict /debug/health computes.
			for _, v := range tracer.Snapshot() {
				if v.Verdict != "reject" {
					continue
				}
				fmt.Printf("rejected flow trace %s (class %d):\n", v.ID, v.Class)
				for _, sp := range v.Spans {
					fmt.Printf("  %-10v %s margin=%+.2f model=%d %s\n",
						sp.Kind, sp.Verdict, sp.Margin, sp.Model, sp.Note)
				}
				break
			}
			// The windowed timeline the tsdb sampler accumulated while the
			// demo ran — what exboxd's /debug/timeline would serve.
			for _, s := range timeline.Query("admit_total", "", 0) {
				var sum float64
				for _, p := range s.Points {
					sum += p.Value
				}
				fmt.Printf("timeline %s (%s): %d samples, %.0f admits recorded\n",
					s.Name, s.Kind, len(s.Points), sum)
			}
			rep := mb.Health()
			fmt.Printf("health verdict: %v (%d cells", rep.Status, len(rep.Cells))
			for _, c := range rep.Cells {
				if c.Health != nil {
					fmt.Printf("; %s model=v%d drift=%.3f agreement=%.2f",
						c.Cell, c.ModelVersion, c.Health.Drift, c.Health.Agreement)
				}
			}
			fmt.Println(")")
			return
		}
	}
}
