package exboxcore

import (
	"sync"
	"testing"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/mathx"
	"exbox/internal/traffic"
)

// TestMiddleboxConcurrentStress hammers one Middlebox from many
// goroutines — Admit, Observe (with deferred retraining, so the
// background worker fits while admissions run) and Reevaluate all
// concurrently. It asserts nothing beyond absence of races, deadlocks
// and errors; run under -race.
func TestMiddleboxConcurrentStress(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	cfg.BatchSize = 5 // cross batch boundaries often to exercise the worker
	if _, err := mb.AddCell("ap", cfg); err != nil {
		t.Fatal(err)
	}
	defer mb.Close()

	o := wifiOracle()
	rng := mathx.NewRand(1)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			t.Fatal(err)
		}
	}
	// Deferred mode leaves graduation to the worker; force it so the
	// stress phase exercises real (non-bootstrap) decisions.
	if err := mb.Cell("ap").Classifier.ForceOnline(); err != nil {
		t.Fatal(err)
	}

	probes := traffic.Arrivals(traffic.Random(mathx.NewRand(2), 40, 20, 0, excr.DefaultSpace), nil)
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := mb.Admit("ap", probes[i%len(probes)].Arrival); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := mathx.NewRand(seed)
			for _, e := range traffic.Arrivals(traffic.Random(rng, 40, 20, 0, excr.DefaultSpace), nil) {
				if err := mb.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
					errc <- err
					return
				}
			}
		}(int64(10 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 2).Set(excr.Streaming, 0, 2)
		active := []ActiveFlow{
			{ID: 1, Class: excr.Web}, {ID: 2, Class: excr.Streaming},
		}
		for i := 0; i < 100; i++ {
			if _, err := mb.ReevaluateWith("ap", m, active, nil); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if mb.Cell("ap").Classifier.Bootstrapping() {
		t.Fatal("cell regressed to bootstrap under stress")
	}
}

// TestCloseIdempotent verifies Close is safe to call repeatedly and on
// middleboxes without deferred cells.
func TestCloseIdempotent(t *testing.T) {
	plain := New(excr.DefaultSpace, Discontinue)
	plain.AddCell("ap", classifier.DefaultConfig())
	plain.Close()
	plain.Close()

	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	async := New(excr.DefaultSpace, Discontinue)
	async.AddCell("ap", cfg)
	o := wifiOracle()
	rng := mathx.NewRand(3)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 10, 20, 0, excr.DefaultSpace), nil) {
		async.Observe("ap", excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
	}
	async.Close()
	async.Close()
}

// TestAdmitBurstOneModelPerBurst runs bursts while a DeferRetrain
// cell's background worker publishes refits, and requires every
// burst's decisions to carry one model version: a refit landing
// mid-burst must not move the boundary under the burst's later
// candidates. Run under -race.
func TestAdmitBurstOneModelPerBurst(t *testing.T) {
	space := excr.MixedSNRSpace
	mb := New(space, Discontinue)
	cfg := classifier.DefaultConfig()
	cfg.DeferRetrain = true
	cfg.BatchSize = 5
	cfg.MaxTrainingSet = 100 // keep refits short so many land during the bursts
	if _, err := mb.AddCell("ap", cfg); err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	samples := testbedSamples(1, 2000)
	clf := mb.Cell("ap").Classifier
	for _, s := range samples[:100] {
		if err := mb.Observe("ap", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := clf.ForceOnline(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mb.Observe("ap", samples[i%len(samples)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Burst until the worker has published enough refits (or a deadline
	// passes, so a slow host still finishes).
	const wantFits = 40
	first := clf.ModelVersion()
	cands := cycleCands(space, 32)
	bases := []excr.Matrix{excr.NewMatrix(space), overloadedBase}
	var bs BurstScratch
	var dst []Outcome
	bursts := 0
	deadline := time.Now().Add(10 * time.Second)
	for clf.ModelVersion()-first < wantFits && time.Now().Before(deadline) {
		var err error
		if dst, err = mb.AdmitBurst("ap", bases[bursts%len(bases)], cands, dst, &bs); err != nil {
			t.Fatal(err)
		}
		for k, out := range dst {
			if out.Decision.Model != dst[0].Decision.Model {
				t.Fatalf("burst %d: candidate 0 decided by model v%d, candidate %d by v%d",
					bursts, dst[0].Decision.Model, k, out.Decision.Model)
			}
		}
		bursts++
	}
	fits := clf.ModelVersion() - first
	if fits == 0 {
		t.Fatalf("no refit published during %d bursts", bursts)
	}
	t.Logf("%d bursts across %d refits", bursts, fits)
}
