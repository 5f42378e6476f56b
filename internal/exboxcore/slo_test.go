package exboxcore

import (
	"math"
	"strings"
	"testing"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
)

func TestSLOConfigDefaults(t *testing.T) {
	c := SLOConfig{}.withDefaults()
	if c.Objective != 0.99 || c.SlowWindow != 15*time.Minute || c.BurnYellow != 1 || c.BurnRed != 6 || c.MinTicks != 30 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.FastWindow() != time.Minute {
		t.Fatalf("fast window: %v", c.FastWindow())
	}
	// The floor keeps the fast window at >= 1s.
	if c := (SLOConfig{SlowWindow: time.Second}).withDefaults(); c.SlowWindow != 15*time.Second {
		t.Fatalf("slow-window floor: %v", c.SlowWindow)
	}
	// BurnRed must stay above BurnYellow.
	if c := (SLOConfig{BurnYellow: 2, BurnRed: 1}).withDefaults(); c.BurnRed != 12 {
		t.Fatalf("red cut: %v", c.BurnRed)
	}
}

// TestSLOTrackerBurnMath drives the tracker with a synthetic clock and
// pins the burn arithmetic: burn = badFraction / (1 - objective), per
// window, with the evidence gate and window ageing.
func TestSLOTrackerBurnMath(t *testing.T) {
	// 60s slow window -> 4s fast window; objective 0.99 -> 1% budget.
	tr := newSLOTracker(SLOConfig{Objective: 0.99, SlowWindow: time.Minute, MinTicks: 10})
	at := func(sec int64) int64 { return sec * int64(time.Second) }

	// Not enough evidence yet: 9 ticks < MinTicks 10.
	tr.add(at(100), 9, 0)
	if _, ok := tr.burn(at(100)); ok {
		t.Fatal("evidence gate did not hold")
	}

	// 100 ticks spread in the slow window, 2 bad; the bad ones land in
	// the fast window (age < 4s of now=130).
	tr.add(at(90), 49, 0)
	tr.add(at(128), 40, 2)
	b, ok := tr.burn(at(130))
	if !ok {
		t.Fatal("burn abstained with 100 ticks")
	}
	if b.SlowTicks != 100 || b.FastTicks != 42 {
		t.Fatalf("ticks: fast %d slow %d", b.FastTicks, b.SlowTicks)
	}
	if want := 0.02; math.Abs(b.SlowBadFrac-want) > 1e-12 {
		t.Fatalf("slow bad frac: %v, want %v", b.SlowBadFrac, want)
	}
	if want := 2.0; math.Abs(b.SlowBurn-want) > 1e-9 {
		t.Fatalf("slow burn: %v, want %v", b.SlowBurn, want)
	}
	if want := (2.0 / 42.0) / 0.01; math.Abs(b.FastBurn-want) > 1e-9 {
		t.Fatalf("fast burn: %v, want %v", b.FastBurn, want)
	}

	// 70 seconds later the old buckets aged out of the slow window and
	// the gate holds again.
	if _, ok := tr.burn(at(200)); ok {
		t.Fatal("aged-out window still produced a readout")
	}
}

// TestSLOTrackerStatusAndTransition pins the multi-window alert rule
// (both windows must clear a cut) and the edge detector.
func TestSLOTrackerStatusAndTransition(t *testing.T) {
	tr := newSLOTracker(SLOConfig{Objective: 0.99, SlowWindow: time.Minute, BurnYellow: 1, BurnRed: 6})
	cases := []struct {
		fast, slow float64
		want       HealthStatus
	}{
		{0, 0, Green},
		{10, 0.5, Green}, // fast-only blip stays quiet
		{0.5, 10, Green}, // long-recovered incident stays quiet
		{2, 2, Yellow},
		{6, 8, Red},
		{8, 2, Yellow}, // red needs both windows red
	}
	for _, tc := range cases {
		if got := tr.status(SLOBurn{FastBurn: tc.fast, SlowBurn: tc.slow}); got != tc.want {
			t.Errorf("status(fast=%v slow=%v) = %v, want %v", tc.fast, tc.slow, got, tc.want)
		}
	}

	if prev, changed := tr.transition(Yellow); prev != Green || !changed {
		t.Fatalf("first transition: prev %v changed %v", prev, changed)
	}
	if prev, changed := tr.transition(Yellow); prev != Yellow || changed {
		t.Fatalf("steady state: prev %v changed %v", prev, changed)
	}
	if prev, changed := tr.transition(Green); prev != Yellow || !changed {
		t.Fatalf("recovery: prev %v changed %v", prev, changed)
	}
}

// TestReevaluateFeedsSLO checks the tick plumbing end to end: a
// re-evaluation sweep turns kept flows into good ticks and evictions
// into bad ticks, on the tracker and on the per-cell counters.
func TestReevaluateFeedsSLO(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	mb.EnableSLO(SLOConfig{SlowWindow: time.Minute, MinTicks: 1})
	trainCell(t, mb, "ap", wifiOracle(), 1)

	m := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 2)
	active := []ActiveFlow{
		{ID: 1, Class: excr.Web, Level: 0},
		{ID: 2, Class: excr.Web, Level: 0},
	}
	evict, err := mb.ReevaluateWith("ap", m, active, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := int64(len(active) - len(evict))
	bad := int64(len(evict))
	if g := reg.Counter("exbox_cell_ap_slo_good_ticks_total").Value(); g != good {
		t.Fatalf("good ticks counter: %d, want %d", g, good)
	}
	if b := reg.Counter("exbox_cell_ap_slo_bad_ticks_total").Value(); b != bad {
		t.Fatalf("bad ticks counter: %d, want %d", b, bad)
	}
	b, ok := mb.SLOBurnFor("ap")
	if !ok {
		t.Fatal("SLOBurnFor abstained after a sweep")
	}
	if b.SlowTicks != good+bad {
		t.Fatalf("tracker ticks: %d, want %d", b.SlowTicks, good+bad)
	}
	if _, ok := mb.SLOBurnFor("nope"); ok {
		t.Fatal("unknown cell must abstain")
	}
}

// TestHealthSLOBurnCheck drives the slo_burn health check through a
// breach and a recovery: the check appears once there is evidence, the
// breach increments the per-cell counter exactly once per transition
// (edge-detected), journals a flight record, and recovery journals the
// green transition without counting a breach.
func TestHealthSLOBurnCheck(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	mb.EnableSLO(SLOConfig{Objective: 0.99, SlowWindow: 15 * time.Second, MinTicks: 1})
	fr := flightrec.NewRecorder(64)
	mb.InstrumentFlightRecorder(fr)
	trainCell(t, mb, "ap", wifiOracle(), 1)

	findSLO := func(rep HealthReport) *HealthCheck {
		for _, c := range rep.Cells {
			for i := range c.Checks {
				if c.Checks[i].Name == "slo_burn" {
					return &c.Checks[i]
				}
			}
		}
		return nil
	}

	// No ticks yet: the check must abstain entirely.
	if chk := findSLO(mb.Health()); chk != nil {
		t.Fatalf("slo_burn with no evidence: %+v", chk)
	}

	// All-bad ticks: burn 100 on both windows -> Red.
	cell := mb.Cell("ap")
	cell.slo.add(time.Now().UnixNano(), 0, 10)
	rep := mb.Health()
	chk := findSLO(rep)
	if chk == nil || chk.Status != Red {
		t.Fatalf("breach check: %+v", chk)
	}
	if !strings.Contains(chk.Detail, "objective") {
		t.Fatalf("detail: %q", chk.Detail)
	}
	if rep.Status != Red {
		t.Fatalf("report status: %v", rep.Status)
	}
	breaches := reg.Counter("exbox_cell_ap_slo_breaches_total")
	if breaches.Value() != 1 {
		t.Fatalf("breach counter: %d", breaches.Value())
	}
	if reg.GaugeFloat("exbox_cell_ap_slo_burn_slow").Value() < 6 {
		t.Fatal("slow burn gauge not mirrored")
	}
	if fr.Depth() != 1 {
		t.Fatalf("flight records after breach: %d", fr.Depth())
	}

	// Same status again: edge detector keeps the counter and journal
	// quiet.
	mb.Health()
	if breaches.Value() != 1 || fr.Depth() != 1 {
		t.Fatalf("re-scrape counted again: breaches %d, records %d", breaches.Value(), fr.Depth())
	}

	// Recovery: flood the window with good ticks -> Green transition,
	// journaled but not counted as a breach.
	cell.slo.add(time.Now().UnixNano(), 10000, 0)
	rep = mb.Health()
	if chk := findSLO(rep); chk == nil || chk.Status != Green {
		t.Fatalf("recovery check: %+v", chk)
	}
	if breaches.Value() != 1 {
		t.Fatalf("recovery counted as breach: %d", breaches.Value())
	}
	if fr.Depth() != 2 {
		t.Fatalf("flight records after recovery: %d", fr.Depth())
	}
}

// TestEnableSLOCoversLateCells pins that a cell added after EnableSLO
// still gets a tracker and wired metrics.
func TestEnableSLOCoversLateCells(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)
	mb.EnableSLO(SLOConfig{SlowWindow: time.Minute, MinTicks: 1})
	if _, err := mb.AddCell("late", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	c := mb.Cell("late")
	if c.slo == nil {
		t.Fatal("late cell has no SLO tracker")
	}
	c.slo.add(time.Now().UnixNano(), 3, 1)
	if b, ok := mb.SLOBurnFor("late"); !ok || b.SlowTicks != 4 {
		t.Fatalf("late cell burn: %+v ok=%v", b, ok)
	}
}
