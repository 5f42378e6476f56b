package classifier

import (
	"testing"

	"exbox/internal/excr"
	"exbox/internal/obs"
	"exbox/internal/svm"
)

func TestHealthRetrainRecords(t *testing.T) {
	ac := New(excr.DefaultSpace, DefaultConfig())
	ac.EnableHealth(HealthConfig{})
	if !ac.HealthEnabled() {
		t.Fatal("EnableHealth did not take")
	}
	if v := ac.ModelVersion(); v != 0 {
		t.Fatalf("bootstrap model version = %d, want 0", v)
	}
	feedRandom(ac, wifiOracle(), 30, 21)
	if ac.Bootstrapping() {
		t.Fatal("should have graduated")
	}
	snap, ok := ac.HealthSnapshot()
	if !ok {
		t.Fatal("HealthSnapshot not available")
	}
	if snap.Retrains == 0 || len(snap.History) == 0 {
		t.Fatalf("no retrain records: %+v", snap)
	}
	if snap.ModelVersion == 0 || snap.ModelVersion != ac.ModelVersion() {
		t.Fatalf("snapshot model version %d vs classifier %d", snap.ModelVersion, ac.ModelVersion())
	}
	last := snap.History[len(snap.History)-1]
	if last.Version != snap.ModelVersion {
		t.Fatalf("latest record version %d != published model %d", last.Version, snap.ModelVersion)
	}
	for i, rec := range snap.History {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d version = %d, want monotonic from 1", i, rec.Version)
		}
		if rec.TrainingSize <= 0 || rec.SupportVectors <= 0 || rec.Seconds <= 0 || rec.UnixNanos == 0 {
			t.Fatalf("record %d not filled in: %+v", i, rec)
		}
		if rec.Solve == nil {
			t.Fatalf("record %d missing solver stats for the SVM learner", i)
		}
		if rec.Solve.Rows != rec.TrainingSize || rec.Solve.Iters <= 0 {
			t.Fatalf("record %d solver stats inconsistent: %+v", i, rec.Solve)
		}
	}
	// The decision path must stamp the same version onto its verdicts.
	d := ac.Decide(webArrival(2))
	if d.Model != snap.ModelVersion {
		t.Fatalf("Decision.Model = %d, want %d", d.Model, snap.ModelVersion)
	}
}

// TestHealthHistoryBounded pins the retrain-record ring: History keeps
// the most recent cfg.History fits, oldest first.
func TestHealthHistoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	ac := New(excr.DefaultSpace, cfg)
	ac.EnableHealth(HealthConfig{History: 4})
	feedRandom(ac, wifiOracle(), 40, 5)
	snap, _ := ac.HealthSnapshot()
	if snap.Retrains <= 4 {
		t.Fatalf("test needs more than 4 retrains, got %d", snap.Retrains)
	}
	if len(snap.History) != 4 {
		t.Fatalf("history len = %d, want 4", len(snap.History))
	}
	for i := 1; i < len(snap.History); i++ {
		if snap.History[i].Version != snap.History[i-1].Version+1 {
			t.Fatalf("history not chronological: %+v", snap.History)
		}
	}
	if snap.History[3].Version != snap.ModelVersion {
		t.Fatalf("ring lost the newest record: %+v", snap.History)
	}
}

func TestHealthDriftWindows(t *testing.T) {
	ac := onlineClassifier(t, svm.RBF)
	ac.EnableHealth(HealthConfig{DriftWindow: 64})

	// Two windows from the same arrival distribution: the first freezes
	// the reference, the second produces a (small) PSI.
	for i := 0; i < 128; i++ {
		ac.Decide(webArrival(i % 6))
	}
	snap, _ := ac.HealthSnapshot()
	if !snap.DriftReady || snap.DriftWindows != 1 {
		t.Fatalf("drift not ready after two windows: %+v", snap)
	}
	samePSI := snap.Drift

	// A window from a very different regime (deep overload, margins far
	// negative) must move the statistic.
	overload := excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).
			Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 18).Set(excr.Conferencing, 0, 15),
		Class: excr.Conferencing,
	}
	for i := 0; i < 64; i++ {
		ac.Decide(overload)
	}
	snap, _ = ac.HealthSnapshot()
	if snap.DriftWindows != 2 {
		t.Fatalf("expected a second comparison window: %+v", snap)
	}
	if snap.Drift <= samePSI {
		t.Fatalf("shifted margins should raise PSI: same-dist %v, shifted %v", samePSI, snap.Drift)
	}
}

func TestHealthAgreementEWMA(t *testing.T) {
	ac := onlineClassifier(t, svm.Linear)
	ac.EnableHealth(HealthConfig{AgreementAlpha: 0.25})
	empty := webArrival(0)
	if !ac.Decide(empty).Admit {
		t.Fatal("empty cell should admit; test premise broken")
	}
	// Labels that agree with the model: EWMA seeded at 1 stays 1.
	for i := 0; i < 8; i++ {
		ac.Observe(excr.Sample{Arrival: empty, Label: 1})
	}
	snap, _ := ac.HealthSnapshot()
	if snap.AgreementSamples < 8 || snap.Agreement != 1 {
		t.Fatalf("all-agreeing feedback: %+v", snap)
	}
	// Contradicting labels must pull the EWMA down. Scoring happens
	// against the model *before* the sample can trigger a refit, so the
	// disagreement is registered even if the boundary later moves.
	before := snap.Agreement
	for i := 0; i < 8; i++ {
		ac.Observe(excr.Sample{Arrival: empty, Label: -1})
	}
	snap, _ = ac.HealthSnapshot()
	if snap.Agreement >= before {
		t.Fatalf("contradicting feedback did not lower agreement: %v -> %v", before, snap.Agreement)
	}
}

// TestDecideAllocsWithHealth extends the zero-allocation contract to a
// health-enabled classifier: the drift counters on the decision path
// are atomics over preallocated bins, so margins observed per decision
// must not add an allocation — including across window rotations.
func TestDecideAllocsWithHealth(t *testing.T) {
	for _, kernel := range []svm.KernelKind{svm.Linear, svm.RBF} {
		ac := onlineClassifier(t, kernel)
		// A window far smaller than the sample count, so rotations happen
		// inside the measured loop.
		ac.EnableHealth(HealthConfig{DriftWindow: 16})
		one := []excr.Arrival{webArrival(3)}
		var s Scratch
		var sink float64
		dst := ac.DecideBatch(nil, one, &s)
		if got := testing.AllocsPerRun(200, func() {
			dst = ac.DecideBatch(dst, one, &s)
			sink += dst[0].Margin
		}); got != 0 {
			t.Errorf("%v DecideBatch of one with health: %v allocs/op, want 0", kernel, got)
		}
		_ = sink
	}
}

// TestEnableHealthFirstCallWins pins the idempotence EnableHealth
// promises Instrument: a second call (say a re-instrumented middlebox)
// must keep the first monitor and its accumulated state.
func TestEnableHealthFirstCallWins(t *testing.T) {
	ac := onlineClassifier(t, svm.Linear)
	ac.EnableHealth(HealthConfig{DriftWindow: 8})
	for i := 0; i < 16; i++ {
		ac.Decide(webArrival(i % 4))
	}
	snap1, _ := ac.HealthSnapshot()
	if !snap1.DriftReady {
		t.Fatal("drift should be ready")
	}
	ac.EnableHealth(DefaultHealthConfig()) // must be a no-op
	snap2, _ := ac.HealthSnapshot()
	if snap2.DriftReady != snap1.DriftReady || snap2.DriftWindows != snap1.DriftWindows {
		t.Fatalf("second EnableHealth reset the monitor: %+v vs %+v", snap1, snap2)
	}
}

// TestCappedFitIsVisible pins the "retrain did not converge" signal: a
// fit that ends on svm.Config.MaxIter still publishes its model, and
// says so in the retrain record and on the CappedFits counter; a fit
// that converges touches neither.
func TestCappedFitIsVisible(t *testing.T) {
	for _, capped := range []bool{true, false} {
		cfg := DefaultConfig()
		if capped {
			cfg.SVM.MaxIter = 1
		}
		ac := New(excr.DefaultSpace, cfg)
		ac.EnableHealth(HealthConfig{})
		var fits, cappedFits obs.Counter
		ac.SetMetrics(Metrics{Fits: &fits, CappedFits: &cappedFits})
		feedRandom(ac, wifiOracle(), 10, 21)
		if err := ac.ForceOnline(); err != nil {
			t.Fatal(err)
		}
		snap, _ := ac.HealthSnapshot()
		last := snap.History[len(snap.History)-1].Solve
		if last == nil {
			t.Fatal("retrain record carries no solver stats")
		}
		if capped {
			if !last.Capped || last.Iters != 1 || !(last.Gap >= cfg.SVM.Tol) {
				t.Fatalf("MaxIter=1 fit: record %+v, want capped after 1 iteration with gap >= Tol", last)
			}
			if cappedFits.Value() != fits.Value() || fits.Value() == 0 {
				t.Fatalf("MaxIter=1: %d of %d fits counted as capped, want all", cappedFits.Value(), fits.Value())
			}
		} else {
			if last.Capped || !(last.Gap < cfg.SVM.Tol) {
				t.Fatalf("converged fit: record %+v, want gap < Tol and not capped", last)
			}
			if cappedFits.Value() != 0 {
				t.Fatalf("converged fits counted as capped: %d", cappedFits.Value())
			}
		}
	}
}
