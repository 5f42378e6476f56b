package svm_test

import (
	"math/rand"
	"testing"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	"exbox/internal/traffic"
)

// BenchmarkRetrainWindow1500 is the refit the online loop pays, which
// BenchmarkRetrainWarm* (one easy set refitted from one seed) is not:
// the paper's Random traffic on the mixed-SNR space, labelled by the
// testbed WiFi oracle, slides through the classifier's full 1500-row
// least-recently-observed window, and every batch of B = 20
// observations refits all of it, seeded key by key from the previous
// fit — so each op is one refit whose seed has lost the evicted rows,
// gained cold ones and had replaced labels dropped, and every 65th is
// the cold fit that refreshes the frozen standardization. ns/op is per
// refit, the 20 Observe calls that lead to it included. It lives here,
// as an external test of svm, so the CI bench gate's Retrain family
// picks it up.
func BenchmarkRetrainWindow1500(b *testing.B) {
	cfg := classifier.DefaultConfig()
	cfg.WarmStart = true
	ac := classifier.New(excr.MixedSNRSpace, cfg)
	var fits obs.Counter
	ac.SetMetrics(classifier.Metrics{Fits: &fits})

	rng := rand.New(rand.NewSource(1))
	assign := traffic.RandomLevels(rng, excr.MixedSNRSpace)
	oracle := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}
	var buf []traffic.Event
	next := func() excr.Sample {
		for len(buf) == 0 {
			buf = traffic.Arrivals(traffic.Random(rng, 64, 7, 0, excr.MixedSNRSpace), assign)
		}
		a := buf[0].Arrival
		buf = buf[1:]
		return excr.Sample{Arrival: a, Label: oracle.Label(a)}
	}
	// Fill the window, then stop on a batch boundary so every op below
	// is exactly one batch.
	for before := int64(-1); ac.TrainingSetSize() < cfg.MaxTrainingSet || fits.Value() == before; {
		before = fits.Value()
		ac.Observe(next())
	}
	if ac.Bootstrapping() {
		b.Fatal("classifier never graduated")
	}
	samples := make([]excr.Sample, b.N*cfg.BatchSize)
	for i := range samples {
		samples[i] = next()
	}
	before := fits.Value()
	b.ResetTimer()
	for _, s := range samples {
		ac.Observe(s)
	}
	b.StopTimer()
	if got := fits.Value() - before; got != int64(b.N) {
		b.Fatalf("%d refits in %d batches", got, b.N)
	}
}
