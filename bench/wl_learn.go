package main

import (
	"fmt"
	"sort"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/exboxcore"
	"exbox/internal/excr"
	"exbox/internal/svm"
)

// learn_online: the paper's own loop (Figures 7–10), one goroutine, fixed
// work. Each seeded arrival is admitted, labelled by the oracle and
// observed; the classifier starts cold, graduates from bootstrap by
// cross-validation, then refits after every batch of 20 with warm start,
// inline (DeferRetrain off), until the 1500-sample window is full (at about
// arrival 1600) and every refit is a full-window fit.
//
// A run is learnPasses such passes, one after the other, each on a fresh
// middlebox and its own shuffle of the arrivals. How long SMO takes follows
// the order in which it met the samples: single passes over one and the
// same training set differ by 15% between seeds and by under 1% between
// runs of one seed, so a run sums several orders.
const learnPasses = 3

// learnRate sizes the work: each pass is learnRate × seconds arrivals, and
// the passes together take the parent commit about that many seconds on the
// reference host. It is work, not time, that is fixed: a faster fit
// finishes the run sooner.
const learnRate = 90

// minAccuracy is the share of online verdicts that must agree with the
// oracle for the run to count as correct.
const minAccuracy = 0.95

// learnResult is one pass over the samples, or the sum of several.
type learnResult struct {
	wall, cpu    time.Duration
	online       int // verdicts given after bootstrap
	agree        int // of those, verdicts equal to the oracle label
	bootstrap    int // arrivals admitted unconditionally before graduation
	fits         int64
	fitMs        []float64 // duration of each Observe call that performed a fit
	observeTotal time.Duration
	nSV          int // of the last pass's final model
}

func (r *learnResult) add(p *learnResult) {
	r.wall += p.wall
	r.cpu += p.cpu
	r.online += p.online
	r.agree += p.agree
	r.bootstrap += p.bootstrap
	r.fits += p.fits
	r.fitMs = append(r.fitMs, p.fitMs...)
	r.observeTotal += p.observeTotal
	r.nSV = p.nSV
}

// learnLoop feeds samples through a fresh middlebox, which the caller
// closes. A fit is detected by the classifier's own fit counter advancing
// across an Observe call. Spans of arrival i carry request id firstReq+i.
func learnLoop(samples []excr.Sample, t *tracer, firstReq int) (*learnResult, *exboxcore.Middlebox, error) {
	cfg := classifier.DefaultConfig()
	cfg.WarmStart = true
	mb, reg, err := gatewayMiddlebox(cfg)
	if err != nil {
		return nil, nil, err
	}
	fits := reg.Counter("exbox_cell_" + string(libCell) + "_clf_fits_total")
	lAdmit, lObserve := t.layer("exboxcore.Admit"), t.layer("exboxcore.Observe")
	r := &learnResult{}
	cpu0 := processCPU()
	start := time.Now()
	for i, s := range samples {
		if t != nil {
			t.req = int32(firstReq + i)
		}
		sp := t.begin(lAdmit)
		out, err := mb.Admit(libCell, s.Arrival)
		t.end(sp)
		if err != nil {
			mb.Close()
			return nil, nil, err
		}
		if out.Decision.Bootstrap {
			r.bootstrap++
		} else {
			r.online++
			if (out.Verdict == exboxcore.Admit) == (s.Label > 0) {
				r.agree++
			}
		}
		before := fits.Value()
		sp = t.begin(lObserve)
		t0 := time.Now()
		err = mb.Observe(libCell, s)
		d := time.Since(t0)
		t.end(sp)
		if err != nil {
			mb.Close()
			return nil, nil, err
		}
		r.observeTotal += d
		if fits.Value() != before {
			r.fitMs = append(r.fitMs, float64(d)/1e6)
		}
	}
	r.wall = time.Since(start)
	r.cpu = processCPU() - cpu0
	r.fits = fits.Value()
	if ps, err := mb.Cell(libCell).Classifier.ExportState(); err == nil && ps.Model != nil {
		r.nSV = len(ps.Model.SVCoef)
	}
	return r, mb, nil
}

func learnOnline(cfg runConfig) (*outcome, error) {
	perPass := int(cfg.seconds * learnRate)
	n := learnPasses * perPass
	var setups []time.Duration
	var samples [learnPasses][]excr.Sample
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		for p := range samples {
			samples[p] = labelled(cfg.seed*learnPasses+int64(p), perPass)
		}
		setups = append(setups, time.Since(t0))
	}
	var t *tracer
	if cfg.trace {
		t = newTracer(2*n, nanoClock())
	}
	r := &learnResult{}
	var last *exboxcore.Middlebox // the final pass's, kept for the solver probe
	for p := range samples {
		if last != nil {
			last.Close()
		}
		pass, mb, err := learnLoop(samples[p], t, p*perPass)
		if err != nil {
			return nil, err
		}
		r.add(pass)
		last = mb
	}
	defer last.Close()

	accuracy := float64(r.agree) / float64(r.online)
	out := &outcome{attempted: int64(n)}
	out.checks = append(out.checks, check{fmt.Sprintf("online verdicts agree with the oracle (>= %.2f)", minAccuracy),
		accuracy >= minAccuracy, fmt.Sprintf("%.4f over %d online arrivals", accuracy, r.online)})
	out.notes = append(out.notes, fmt.Sprintf(
		"%d passes of %d arrivals in %.2fs: %d bootstrap, %d online, %d fits, %d support vectors at the end (counts repeat exactly for a seed)",
		learnPasses, perPass, r.wall.Seconds(), r.bootstrap, r.online, r.fits, r.nSV))
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":       medianDur(setups).Seconds(),
			"throughput":    float64(n) / r.wall.Seconds(),
			"cpu_us_per_op": float64(r.cpu.Microseconds()) / float64(n),
			"rss_mb":        retainedMiB(),
		}
		return out, nil
	}

	tot, err := writeTrace("learn_online", cfg.seed, t)
	if err != nil {
		return nil, err
	}
	sort.Float64s(r.fitMs)
	tailPct, tailMs := tail(r.fitMs)
	out.metrics = map[string]float64{
		"retrain_p50_ms":                  percentile(r.fitMs, 50),
		"retrain_p99_ms":                  tailMs,
		"accuracy":                        accuracy,
		"exboxcore.observe_us_per_sample": float64(r.observeTotal.Microseconds()) / float64(n),
		"classifier.fit_ms_max":           r.fitMs[len(r.fitMs)-1],
		"classifier.fits":                 float64(r.fits),
		"classifier.bootstrap_samples":    float64(r.bootstrap),
		"svm.n_sv":                        float64(r.nSV),
	}
	if err := solverProbe(last.Cell(libCell).Classifier, out.metrics); err != nil {
		return nil, err
	}
	// The first pass's first arrivals once more, untraced: the two do
	// identical work, so the ratio of their times is the tracing overhead.
	k := perPass / 2
	plain, plainMB, err := learnLoop(samples[0][:k], nil, 0)
	if err != nil {
		return nil, err
	}
	plainMB.Close()
	var tracedK int64
	for _, s := range t.spans {
		if int(s.Req) < k && s.Parent < 0 {
			tracedK += s.End - s.Start
		}
	}
	out.metrics["trace.overhead_frac"] = float64(tracedK)/float64(plain.wall) - 1
	out.notes = append(out.notes,
		fmt.Sprintf("retrain_p99_ms is p%g of %d Observe calls that fitted", tailPct, len(r.fitMs)),
		stageTable(tot, "self time per arrival", float64(n)))
	return out, nil
}

// solverProbe calls the SVM solver directly on the classifier's final
// training window: a cold fit of all but the newest batch, then a fit of
// the whole window warm-started from it — what one online refit does.
func solverProbe(clf *classifier.AdmittanceClassifier, m map[string]float64) error {
	ps, err := clf.ExportState()
	if err != nil {
		return err
	}
	x := make([][]float64, len(ps.Samples))
	y := make([]float64, len(ps.Samples))
	for i, s := range ps.Samples {
		x[i] = s.Arrival.Features()
		y[i] = s.Label
	}
	cfg := classifier.DefaultConfig().SVM
	prefix := len(x) - classifier.DefaultConfig().BatchSize
	var cold, warm svm.SolveStats
	_, seed, err := svm.SolveDetailed(cfg, x[:prefix], y[:prefix], nil, &cold)
	if err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}
	if _, _, err := svm.SolveDetailed(cfg, x, y, seed, &warm); err != nil {
		return fmt.Errorf("warm solve: %w", err)
	}
	m["svm.fit_cold_ms"] = cold.TotalSeconds * 1e3
	m["svm.fit_warm_ms"] = warm.TotalSeconds * 1e3
	m["svm.smo_iters"] = float64(warm.Iters)
	m["svm.cache_hit_rate"] = warm.CacheHitRate()
	return nil
}
