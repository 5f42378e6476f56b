package exboxcore

import (
	"sync/atomic"
	"testing"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/mathx"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
	"exbox/internal/obs/trace"
	"exbox/internal/traffic"
)

// Benchmarks for the concurrent admission path. Run with several
// GOMAXPROCS values to see the scaling, e.g.
//
//	go test -bench Admit -cpu 1,2,4,8 ./internal/exboxcore
//
// BenchmarkAdmitParallel exercises the real architecture: Admit is a
// lock-free read of the cell's published model snapshot, so throughput
// scales with cores (the pre-refactor global-lock comparison is frozen
// in BENCH_pr4.json).

func benchMiddlebox(b *testing.B) *Middlebox {
	b.Helper()
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	o := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
	rng := mathx.NewRand(1)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			b.Fatal(err)
		}
	}
	if mb.Cell("ap").Classifier.Bootstrapping() {
		b.Fatal("cell did not graduate")
	}
	return mb
}

func benchProbe() excr.Arrival {
	return excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).Set(excr.Streaming, 0, 12),
		Class:  excr.Web,
	}
}

func BenchmarkAdmitParallel(b *testing.B) {
	mb := benchMiddlebox(b)
	probe := benchProbe()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := mb.Admit("ap", probe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchAdmitBurst32 times one 32-candidate AdmitBurst (classes cycling)
// on a worker-owned scratch from the given base matrix, and checks the
// burst has the verdict shape the benchmark is named for: every
// candidate admitted, or some of each. ns/op is per burst, not per
// candidate.
func benchAdmitBurst32(b *testing.B, base excr.Matrix, allAdmit bool) {
	mb := benchMiddlebox(b)
	cands := make([]BurstCandidate, 32)
	for i := range cands {
		cands[i].Class = excr.AppClass(i % excr.DefaultSpace.Classes)
	}
	var bs BurstScratch
	dst, err := mb.AdmitBurst("ap", base, cands, nil, &bs)
	if err != nil {
		b.Fatal(err)
	}
	admits := 0
	for _, out := range dst {
		if out.Verdict == Admit {
			admits++
		}
	}
	if admits == 0 || (admits == len(cands)) != allAdmit {
		b.Fatalf("burst admitted %d of %d candidates", admits, len(cands))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = mb.AdmitBurst("ap", base, cands, dst, &bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitBurst32Mixed is a burst that crosses the region
// boundary: the first candidates are admitted, each moving the matrix,
// until the cell fills and the rest are rejected.
func BenchmarkAdmitBurst32Mixed(b *testing.B) {
	benchAdmitBurst32(b, excr.NewMatrix(excr.DefaultSpace).Set(excr.Streaming, 0, 12), false)
}

// BenchmarkAdmitBurst32Admit is the verdict-homogeneous burst: an empty
// cell admits all 32, rebuilding the matrix after every one.
func BenchmarkAdmitBurst32Admit(b *testing.B) {
	benchAdmitBurst32(b, excr.NewMatrix(excr.DefaultSpace), true)
}

// BenchmarkAdmitInstrumented is BenchmarkAdmitParallel with the full
// obs hookup attached (counters, margin + latency histograms, audit
// ring). Comparing the two shows the cost of always-on telemetry; the
// instrumentation is atomic-only, so it must stay within noise of the
// uninstrumented path.
func BenchmarkAdmitInstrumented(b *testing.B) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.Instrument(obs.NewRegistry(), 256)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	o := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
	rng := mathx.NewRand(1)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			b.Fatal(err)
		}
	}
	if mb.Cell("ap").Classifier.Bootstrapping() {
		b.Fatal("cell did not graduate")
	}
	probe := benchProbe()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := mb.Admit("ap", probe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdmitObserveMixed interleaves admissions with ground-truth
// observations (deferred retraining), the live gateway's steady state:
// the admission path must not stall behind training-set updates or
// background fits.
func BenchmarkAdmitObserveMixed(b *testing.B) {
	mb := New(excr.DefaultSpace, Discontinue)
	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	if _, err := mb.AddCell("ap", cfg); err != nil {
		b.Fatal(err)
	}
	defer mb.Close()
	o := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
	rng := mathx.NewRand(1)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := mb.Cell("ap").Classifier.ForceOnline(); err != nil {
		b.Fatal(err)
	}
	// Labels are precomputed so the loop measures the middlebox datapath,
	// not the simulated oracle (the QoE estimator stand-in allocates in
	// its fluid model, which a real deployment never runs per packet).
	events := traffic.Arrivals(traffic.Random(mathx.NewRand(2), 50, 20, 0, excr.DefaultSpace), nil)
	samples := make([]excr.Sample, len(events))
	for i, e := range events {
		samples[i] = excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}
	}
	probe := benchProbe()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 15 {
				if err := mb.Observe("ap", samples[i%len(samples)]); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := mb.Admit("ap", probe); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

// BenchmarkAdmitTracedUnsampled is the tracing gate: a tracer is
// attached but the flow is not sampled (nil Trace on the candidate),
// which is the steady-state packet path — a burst of one on the
// worker's own BurstScratch. It must match BenchmarkAdmitParallel less
// the scratch pool: the nil checks are untaken branches and zero
// allocations.
func BenchmarkAdmitTracedUnsampled(b *testing.B) {
	mb := benchMiddlebox(b)
	mb.InstrumentTracing(trace.New(256, 16))
	probe := benchProbe()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var bs BurstScratch
		var dst []Outcome
		cand := []BurstCandidate{{Class: probe.Class, Level: probe.Level}}
		for pb.Next() {
			var err error
			if dst, err = mb.AdmitBurst("ap", probe.Matrix, cand, dst, &bs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdmitTracedSampled is the worst case: every admission is a
// burst of one carrying a live FlowTrace, so each decision pays two
// clock reads and the span append under the trace's mutex. Real deployments sample
// 1-in-16; this bounds the per-sampled-flow overhead.
func BenchmarkAdmitTracedSampled(b *testing.B) {
	mb := benchMiddlebox(b)
	tr := trace.New(256, 1)
	mb.InstrumentTracing(tr)
	probe := benchProbe()
	b.ReportAllocs()
	b.ResetTimer()
	var id atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		var bs BurstScratch
		var dst []Outcome
		cand := []BurstCandidate{{Class: probe.Class, Level: probe.Level}}
		n := 0
		for pb.Next() {
			// A fresh trace every 16 decisions, so the append never
			// degenerates into the span-cap drop path.
			if n%16 == 0 {
				cand[0].Trace = tr.Start(trace.ID(id.Add(1)), "ap", int(excr.Web), 0, "sampled")
			}
			var err error
			if dst, err = mb.AdmitBurst("ap", probe.Matrix, cand, dst, &bs); err != nil {
				b.Fatal(err)
			}
			n++
		}
	})
}

// Workflow benchmarks for the batched scoring paths: network selection
// across two trained cells and the re-evaluation sweep of an active
// flow population. Both use a per-caller scratch, the way exboxd's
// sweeper does, so steady state is allocation-free up to the audit
// records.

func benchHybridMiddlebox(b *testing.B) *Middlebox {
	b.Helper()
	mb := New(excr.DefaultSpace, Discontinue)
	for i, cell := range []struct {
		id CellID
		o  apps.Oracle
	}{
		{"wifi", apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}},
		{"lte", apps.Oracle{Net: netsim.FluidLTE{Config: netsim.SimLTE()}}},
	} {
		if _, err := mb.AddCell(cell.id, classifier.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		rng := mathx.NewRand(int64(i + 1))
		for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
			if err := mb.Observe(cell.id, excr.Sample{Arrival: e.Arrival, Label: cell.o.Label(e.Arrival)}); err != nil {
				b.Fatal(err)
			}
		}
		if mb.Cell(cell.id).Classifier.Bootstrapping() {
			b.Fatalf("cell %s did not graduate", cell.id)
		}
	}
	return mb
}

func BenchmarkSelectNetwork(b *testing.B) {
	mb := benchHybridMiddlebox(b)
	wifiLoad := excr.NewMatrix(excr.DefaultSpace).Set(excr.Streaming, 0, 12)
	lteLoad := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 5).Set(excr.Conferencing, 0, 2)
	cands := []Candidate{
		{Cell: "wifi", Arrival: excr.Arrival{Matrix: wifiLoad, Class: excr.Web}},
		{Cell: "lte", Arrival: excr.Arrival{Matrix: lteLoad, Class: excr.Web}},
	}
	var s classifier.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mb.SelectNetwork(cands, &s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReevaluate sweeps 60 active flows (20 per class) in one
// call; the grouped scorer reduces that to one decision per class.
func BenchmarkReevaluate(b *testing.B) {
	mb := benchMiddlebox(b)
	m := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 20).Set(excr.Streaming, 0, 20).Set(excr.Conferencing, 0, 20)
	var active []ActiveFlow
	for i := 0; i < 60; i++ {
		active = append(active, ActiveFlow{ID: i, Class: excr.AppClass(i % 3)})
	}
	var s classifier.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mb.ReevaluateWith("ap", m, active, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitFlightRecorded is BenchmarkAdmitParallel with the
// flight recorder attached and its writer draining to disk in the
// background. The journal enqueue is a by-value publish into a
// preallocated ring, so the path must stay allocation-free and within
// noise of the bare parallel benchmark.
func BenchmarkAdmitFlightRecorded(b *testing.B) {
	mb := benchMiddlebox(b)
	fr := flightrec.NewRecorder(1 << 16)
	dir := b.TempDir()
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- fr.RunWriter(flightrec.WriterConfig{Dir: dir, SegmentBytes: 64 << 20}, done)
	}()
	mb.InstrumentFlightRecorder(fr)
	probe := benchProbe()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := mb.Admit("ap", probe); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(done)
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}
