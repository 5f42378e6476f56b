package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/exboxcore"
	"exbox/internal/excr"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
	flowtrace "exbox/internal/obs/trace"
	"exbox/internal/svm"
	"exbox/internal/traffic"
)

// admit_lib: a closed loop of Middlebox.AdmitBurst calls, 32 candidates a
// burst, from min(GOMAXPROCS, 2) goroutines against a model that does not
// change while it is measured. The middlebox is wired as exboxd's
// newGateway wires it — Instrument(reg, 256), tracer 1/16, latency
// sampling 16, EnableSLO — because that is the admit path operators run.

const (
	libCell      = exboxcore.CellID("ap0")
	burstCands   = 32
	burstsPerG   = 2048  // distinct bursts each goroutine cycles through
	modelWindow  = 1500  // classifier.DefaultConfig().MaxTrainingSet
	tracedBursts = 20000 // bursts per goroutine in the traced pass
)

// arrivalStream draws the paper's Random traffic on the mixed-SNR space:
// per-class counts uniform in 0..7, levels uniform, one arrival event per
// flow that joins. About a fifth of these arrivals are admissible on the
// testbed WiFi cell, so both labels are well represented.
type arrivalStream struct {
	rng    *rand.Rand
	assign func(excr.AppClass) excr.SNRLevel
	buf    []traffic.Event
}

func newArrivalStream(seed int64) *arrivalStream {
	rng := rand.New(rand.NewSource(seed))
	return &arrivalStream{rng: rng, assign: traffic.RandomLevels(rng, excr.MixedSNRSpace)}
}

func (s *arrivalStream) next() excr.Arrival {
	for len(s.buf) == 0 {
		s.buf = traffic.Arrivals(traffic.Random(s.rng, 64, 7, 0, excr.MixedSNRSpace), s.assign)
	}
	a := s.buf[0].Arrival
	s.buf = s.buf[1:]
	return a
}

func libOracle() apps.Oracle {
	return apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}
}

// poolSeed fixes the population the library workloads learn from. How long
// an SVM fit takes, and how many support vectors it keeps, depends on which
// samples it sees: with the population drawn from -seed, ten seeds spread
// admit_lib's rate by 12% and learn_online's by 17%, more than any change
// the benchmark is meant to resolve. So the population is one fixed draw,
// and -seed decides what is done with it: the bursts admit_lib is asked
// about, the order in which learn_online meets each retrain batch.
const poolSeed = 1

// labelled returns the first n arrivals of the fixed population with their
// ground-truth labels. The seed shuffles them within each retrain batch
// only, so every refit sees the same training set whatever the seed (a
// shuffle of the whole sequence still spread learn_online's rate by 15%:
// SMO's iteration count follows the path the window took, not just where
// it ended).
func labelled(seed int64, n int) []excr.Sample {
	s, oracle := newArrivalStream(poolSeed), libOracle()
	out := make([]excr.Sample, n)
	for i := range out {
		a := s.next()
		out[i] = excr.Sample{Arrival: a, Label: oracle.Label(a)}
	}
	rng := rand.New(rand.NewSource(seed))
	batch := classifier.DefaultConfig().BatchSize
	for lo := 0; lo < n; lo += batch {
		blk := out[lo:min(lo+batch, n)]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// gatewayMiddlebox is a one-cell middlebox instrumented the way exboxd
// instruments its own. The cell's background retrainer is never kicked:
// callers train through the cell's classifier directly.
func gatewayMiddlebox(cfg classifier.Config) (*exboxcore.Middlebox, *obs.Registry, error) {
	mb := exboxcore.New(excr.MixedSNRSpace, exboxcore.Discontinue)
	if _, err := mb.AddCell(libCell, cfg); err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	mb.Instrument(reg, 256)
	mb.InstrumentTracing(flowtrace.New(256, 16))
	mb.SetAdmitLatencySampling(16)
	mb.EnableSLO(exboxcore.SLOConfig{Objective: 0.99, SlowWindow: 15 * time.Minute})
	return mb, reg, nil
}

// buildAdmitModel fills the classifier to its 1500-sample window from the
// fixed population's labelled arrivals and fits it, synchronously, so the
// model is fixed from here on: a short bootstrap that graduates on its
// first cross-validation, then the rest of the window and one refit.
func buildAdmitModel() (*exboxcore.Middlebox, error) {
	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	cfg.WarmStart = true
	mb, _, err := gatewayMiddlebox(cfg)
	if err != nil {
		return nil, err
	}
	clf := mb.Cell(libCell).Classifier
	s, oracle := newArrivalStream(poolSeed), libOracle()
	feed := func(until int) {
		var batch []excr.Sample
		for clf.TrainingSetSize()+len(batch) < until {
			a := s.next()
			batch = append(batch, excr.Sample{Arrival: a, Label: oracle.Label(a)})
		}
		clf.ObserveBatch(batch)
	}
	feed(100)
	if err := clf.Maintain(); err != nil {
		return nil, fmt.Errorf("bootstrap fit: %w", err)
	}
	if clf.Bootstrapping() {
		if err := clf.ForceOnline(); err != nil {
			return nil, fmt.Errorf("bootstrap fit: %w", err)
		}
	}
	// Repeated matrices replace their sample, so the window needs a few
	// rounds to fill.
	for clf.TrainingSetSize() < modelWindow {
		feed(modelWindow)
	}
	if err := clf.Retrain(); err != nil {
		return nil, fmt.Errorf("window fit: %w", err)
	}
	return mb, nil
}

// burst is one AdmitBurst input with the verdicts it must produce.
type burst struct {
	base  excr.Matrix
	cands []exboxcore.BurstCandidate
	want  uint32 // bit j set: candidate j is admitted
}

// makeBursts draws n bursts from the stream: the matrix of one arrival as
// the base, the next 32 arrivals' classes and levels as the candidates.
// The expected verdicts come from the straight-line reference: candidates
// one at a time through classifier.DecideBatch, each conditioned on the
// base plus the candidates admitted before it.
func makeBursts(s *arrivalStream, clf *classifier.AdmittanceClassifier, n int) []burst {
	out := make([]burst, n)
	var sc classifier.Scratch
	var dec []classifier.Decision
	one := make([]excr.Arrival, 1)
	for i := range out {
		b := &out[i]
		b.base = s.next().Matrix
		m := b.base
		for j := 0; j < burstCands; j++ {
			a := s.next()
			b.cands = append(b.cands, exboxcore.BurstCandidate{Class: a.Class, Level: a.Level})
			one[0] = excr.Arrival{Matrix: m, Class: a.Class, Level: a.Level}
			dec = clf.DecideBatch(dec[:0], one, &sc)
			if dec[0].Admit {
				b.want |= 1 << j
				m = m.Inc(a.Class, a.Level)
			}
		}
	}
	return out
}

func verdictMask(outs []exboxcore.Outcome) uint32 {
	var m uint32
	for j, o := range outs {
		if o.Verdict == exboxcore.Admit {
			m |= 1 << j
		}
	}
	return m
}

// admitLoopStats is one goroutine's share of a closed loop.
type admitLoopStats struct {
	bursts     int
	mismatches int     // bursts whose verdicts differ from the reference
	lat        []int32 // ns per AdmitBurst call, harness-timed
	err        error
}

// admitLoop calls AdmitBurst on bs round-robin until d has passed or, when
// maxBursts > 0, that many bursts are done. With a tracer, every call is a
// span and is followed by two shadow spans over the very arrivals the
// burst was decided on: classifier.DecideBatch and the bare SVM decision.
func admitLoop(mb *exboxcore.Middlebox, bs []burst, d time.Duration, maxBursts int, t *tracer, model *svm.Model) admitLoopStats {
	var st admitLoopStats
	var scratch exboxcore.BurstScratch
	var outs []exboxcore.Outcome
	var err error
	lAdmit, lDecide, lSVM := t.layer("exboxcore.AdmitBurst"), t.layer("classifier.DecideBatch"), t.layer("svm.DecisionBatch")
	clf := mb.Cell(libCell).Classifier
	var (
		sc       classifier.Scratch
		dec      []classifier.Decision
		arrivals = make([]excr.Arrival, burstCands)
		rows     = make([][]float64, burstCands)
		scores   []float64
		svmSc    []float64
	)
	if t != nil {
		dim := excr.FeatureDim(excr.MixedSNRSpace)
		slab := make([]float64, burstCands*dim)
		for j := range rows {
			rows[j] = slab[j*dim : j*dim : (j+1)*dim]
		}
		svmSc = make([]float64, model.BatchScratch(burstCands))
	} else if maxBursts > 0 {
		st.lat = make([]int32, 0, maxBursts)
	} else {
		st.lat = make([]int32, 0, int(d.Seconds()*150000)+1024)
	}
	start := time.Now()
	now := start
	for i := 0; now.Sub(start) < d && (maxBursts == 0 || i < maxBursts); i++ {
		b := &bs[i%len(bs)]
		if t != nil {
			t.req++
		}
		sp := t.begin(lAdmit)
		t0 := time.Now()
		outs, err = mb.AdmitBurst(libCell, b.base, b.cands, outs, &scratch)
		now = time.Now()
		t.end(sp)
		if err != nil {
			st.err = err
			return st
		}
		st.bursts++
		if verdictMask(outs) != b.want {
			st.mismatches++
		}
		if t == nil {
			st.lat = append(st.lat, int32(now.Sub(t0)))
			continue
		}
		m := b.base
		for j, c := range b.cands {
			arrivals[j] = excr.Arrival{Matrix: m, Class: c.Class, Level: c.Level}
			rows[j] = arrivals[j].FeaturesInto(rows[j])
			if outs[j].Verdict == exboxcore.Admit {
				m = m.Inc(c.Class, c.Level)
			}
		}
		sp = t.begin(lDecide)
		dec = clf.DecideBatch(dec[:0], arrivals, &sc)
		t.end(sp)
		sp = t.begin(lSVM)
		scores = model.DecisionBatch(scores[:0], rows, svmSc)
		t.end(sp)
	}
	return st
}

// runAdmitLoops runs admitLoop on every goroutine's own bursts at once and
// returns the per-goroutine results, the wall time and the process CPU.
func runAdmitLoops(mb *exboxcore.Middlebox, sets [][]burst, d time.Duration, maxBursts int, tracers []*tracer, model *svm.Model) ([]admitLoopStats, time.Duration, time.Duration) {
	res := make([]admitLoopStats, len(sets))
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var t *tracer
			if tracers != nil {
				t = tracers[g]
			}
			res[g] = admitLoop(mb, sets[g], d, maxBursts, t, model)
		}(g)
	}
	wg.Wait()
	return res, time.Since(start), processCPU() - cpu0
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMiB is this process's resident set after a forced collection
// with freed pages handed back to the kernel: what the model, the
// telemetry rings and the harness's own buffers keep. The peak (VmHWM)
// would add however much garbage happened to await the next collection —
// between 50 and 68 MiB on admit_lib for one and the same work.
func retainedMiB() float64 {
	debug.FreeOSMemory()
	status, _ := os.ReadFile("/proc/self/status") // a missing /proc reads as 0
	return statusKiB(status, "VmRSS:") / 1024
}

func admitLib(cfg runConfig) (*outcome, error) {
	var setups []time.Duration
	var mb *exboxcore.Middlebox
	for i := 0; i < cfg.setups; i++ {
		if mb != nil {
			mb.Close()
		}
		t0 := time.Now()
		var err error
		if mb, err = buildAdmitModel(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer mb.Close()
	clf := mb.Cell(libCell).Classifier
	if clf.Bootstrapping() || clf.TrainingSetSize() != modelWindow {
		return nil, fmt.Errorf("model not built: bootstrapping=%v window=%d", clf.Bootstrapping(), clf.TrainingSetSize())
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 2 {
		workers = 2
	}
	sets := make([][]burst, workers)
	for g := range sets {
		sets[g] = makeBursts(newArrivalStream(cfg.seed+1000*int64(g+1)), clf, burstsPerG)
	}
	summarize := func(res []admitLoopStats) (bursts, mismatches int, lat []float64, err error) {
		for _, r := range res {
			bursts += r.bursts
			mismatches += r.mismatches
			err = errors.Join(err, r.err)
			for _, v := range r.lat {
				lat = append(lat, float64(v)/1e3)
			}
		}
		sort.Float64s(lat)
		return
	}
	out := &outcome{}
	verdictCheck := func(bursts, mismatches int) {
		out.checks = append(out.checks, check{"every burst's verdicts equal classifier.DecideBatch on the same arrivals",
			mismatches == 0, fmt.Sprintf("%d of %d bursts differ", mismatches, bursts)})
		out.attempted, out.failed = int64(bursts), int64(mismatches)
	}

	if !cfg.trace {
		res, wall, cpu := runAdmitLoops(mb, sets, time.Duration(cfg.seconds*float64(time.Second)), 0, nil, nil)
		bursts, mismatches, _, err := summarize(res)
		if err != nil {
			return nil, err
		}
		cands := float64(bursts * burstCands)
		out.metrics = map[string]float64{
			"setup_s":       medianDur(setups).Seconds(),
			"throughput":    cands / wall.Seconds(),
			"cpu_us_per_op": float64(cpu.Microseconds()) / cands,
			"rss_mb":        retainedMiB(),
		}
		verdictCheck(bursts, mismatches)
		out.notes = append(out.notes, fmt.Sprintf("%d goroutines, closed loop, %d-candidate bursts; throughput is candidates decided per second", workers, burstCands))
		return out, nil
	}

	// Traced run: an untraced loop for the latency percentiles and the
	// baseline, the same loop with spans, then the single-call probes.
	ps, err := clf.ExportState()
	if err != nil {
		return nil, err
	}
	model, err := svm.ModelFromState(*ps.Model)
	if err != nil {
		return nil, err
	}
	res, _, _ := runAdmitLoops(mb, sets, time.Duration(0.5*cfg.seconds*float64(time.Second)), 0, nil, nil)
	bursts, mismatches, lat, err := summarize(res)
	if err != nil {
		return nil, err
	}
	tracers := make([]*tracer, workers)
	for g := range tracers {
		tracers[g] = newTracer(3*tracedBursts, nanoClock())
	}
	tres, _, _ := runAdmitLoops(mb, sets, time.Hour, tracedBursts, tracers, model)
	tb, tm, _, err := summarize(tres)
	if err != nil {
		return nil, err
	}
	verdictCheck(bursts+tb, mismatches+tm)
	tot, err := writeTrace("admit_lib", cfg.seed, tracers...)
	if err != nil {
		return nil, err
	}
	allocs := newTracer(4096, allocClock())
	ares := admitLoop(mb, sets[0], time.Hour, 2000, allocs, model)
	if ares.err != nil {
		return nil, ares.err
	}

	tcands := float64(tb * burstCands)
	admitNs := float64(tot["exboxcore.AdmitBurst"].Total) / tcands
	decideNs := float64(tot["classifier.DecideBatch"].Total) / tcands
	tailPct, tailUs := tail(lat)
	untracedMeanUs := 0.0
	for _, v := range lat {
		untracedMeanUs += v
	}
	untracedMeanUs /= float64(len(lat))
	out.metrics = map[string]float64{
		"admit_p50_us":                     percentile(lat, 50),
		"admit_p99_us":                     tailUs,
		"exboxcore.admitburst_ns_per_cand": admitNs,
		"exboxcore.allocs_per_admit":       float64(allocs.totals()["exboxcore.AdmitBurst"].Total) / float64(ares.bursts*burstCands),
		"exboxcore.self_ns_per_admit":      admitNs - decideNs,
		"classifier.decide_ns":             decideNs,
		"svm.decision_ns":                  float64(tot["svm.DecisionBatch"].Total) / tcands,
		"svm.n_sv":                         float64(model.NumSV()),
		"obs.audit_push_ns":                auditPushNs(),
		"obs.flight_record_ns":             flightRecordNs(),
		"trace.overhead_frac":              admitNs*burstCands/1e3/untracedMeanUs - 1,
	}
	out.notes = append(out.notes,
		fmt.Sprintf("admit_p99_us is p%g of %d harness-timed AdmitBurst calls (whole %d-candidate bursts), %d goroutines", tailPct, len(lat), burstCands, workers),
		stageTable(tot, "self time per candidate; DecideBatch and DecisionBatch are shadow calls on the burst's own arrivals", tcands))
	return out, nil
}

// auditPushNs times obs.AuditRing.Record, the per-decision audit write of
// the instrumented admit path, called directly.
func auditPushNs() float64 {
	const n = 200000
	ring := obs.NewAuditRing(256)
	rec := obs.DecisionRecord{Cell: string(libCell), Class: 1, Level: 1, Matrix: "<1,2,3,4,5,6>", Margin: 0.5, Verdict: "admit"}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.UnixNanos = int64(i)
		ring.Record(rec)
	}
	return float64(time.Since(t0)) / n
}

// flightRecordNs times flightrec.Recorder.Record into a ring large enough
// that no record of the probe is dropped.
func flightRecordNs() float64 {
	const n = 1 << 16
	fr := flightrec.NewRecorder(n)
	cell := fr.CellIndex(string(libCell))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fr.Record(flightrec.Record{UnixNanos: int64(i), Seq: uint64(i), Value: 0.5, Cell: cell, Class: 1, Level: 1, Kind: flightrec.KindAdmission})
	}
	return float64(time.Since(t0)) / n
}
