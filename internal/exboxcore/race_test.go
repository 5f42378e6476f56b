package exboxcore

import (
	"sync"
	"testing"

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
