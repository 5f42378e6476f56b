package exboxcore

import (
	"testing"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/obs"
	"exbox/internal/obs/trace"
)

func lightArrival() excr.Arrival {
	return excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace), Class: excr.Web}
}

func overloadArrival() excr.Arrival {
	return excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).
			Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 18).Set(excr.Conferencing, 0, 15),
		Class: excr.Streaming,
	}
}

func TestInstrumentIdempotent(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap0", classifier.DefaultConfig())
	reg := obs.NewRegistry()
	mb.Instrument(reg, 16)
	trainCell(t, mb, "ap0", wifiOracle(), 9)
	ring := mb.AuditRing()
	if ring == nil {
		t.Fatal("instrumented middlebox has no audit ring")
	}
	if !mb.Cell("ap0").Classifier.HealthEnabled() {
		t.Fatal("Instrument did not enable health monitoring")
	}
	for i := 0; i < 5; i++ {
		if _, err := mb.Admit("ap0", lightArrival()); err != nil {
			t.Fatal(err)
		}
	}
	history := len(ring.Snapshot())
	if history != 5 {
		t.Fatalf("ring holds %d records, want 5", history)
	}

	// A later cell plus a re-Instrument with the same registry: the new
	// cell gets wired, the ring and its history survive, and nothing
	// double-registers (Registry panics on duplicate names).
	mb.AddCell("ap1", classifier.DefaultConfig())
	mb.Instrument(reg, 16)
	if mb.AuditRing() != ring {
		t.Fatal("re-Instrument with the same registry replaced the audit ring")
	}
	if got := len(ring.Snapshot()); got != history {
		t.Fatalf("re-Instrument lost ring history: %d records, had %d", got, history)
	}
	if !mb.Cell("ap1").Classifier.HealthEnabled() {
		t.Fatal("cell added after Instrument not wired by the second call")
	}

	// A different registry is a restart: everything re-wires and the
	// ring is fresh.
	mb.Instrument(obs.NewRegistry(), 16)
	if mb.AuditRing() == ring {
		t.Fatal("fresh registry should get a fresh audit ring")
	}
	if got := len(mb.AuditRing().Snapshot()); got != 0 {
		t.Fatalf("fresh ring carries %d stale records", got)
	}
}

func TestAdmitTracedEmitsDecisionSpan(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap0", classifier.DefaultConfig())
	trainCell(t, mb, "ap0", wifiOracle(), 10)
	tr := trace.New(8, 1)
	mb.InstrumentTracing(tr)
	if mb.Tracer() != tr {
		t.Fatal("Tracer accessor lost the tracer")
	}

	ft := tr.Start(trace.ID(1), "ap0", int(excr.Web), 0, "sampled")
	a := lightArrival()
	outs, err := mb.AdmitBurst("ap0", a.Matrix, []BurstCandidate{{Class: a.Class, Level: a.Level, Trace: ft}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	if err := mb.ObserveBatch("ap0", []excr.Sample{{Arrival: a, Label: 1}}, []*trace.FlowTrace{ft}); err != nil {
		t.Fatal(err)
	}
	ft.Close()

	v := tr.Snapshot()[0]
	if len(v.Spans) != 2 {
		t.Fatalf("want decision+observe spans, got %+v", v.Spans)
	}
	d := v.Spans[0]
	if d.Kind != trace.KindDecision || d.Verdict != out.Verdict.String() {
		t.Fatalf("decision span wrong: %+v (outcome %+v)", d, out)
	}
	if d.Margin != out.Decision.Margin || d.Depth != out.Decision.Depth {
		t.Fatalf("span margin/depth diverge from outcome: %+v vs %+v", d, out.Decision)
	}
	if d.Model == 0 || d.Model != mb.Cell("ap0").Classifier.ModelVersion() {
		t.Fatalf("decision span model version = %d, want %d", d.Model, mb.Cell("ap0").Classifier.ModelVersion())
	}
	if d.UnixNanos == 0 || d.DurNanos <= 0 || d.Bootstrap {
		t.Fatalf("decision span not stamped: %+v", d)
	}
	if v.Verdict != out.Verdict.String() {
		t.Fatalf("trace verdict %q, want %q", v.Verdict, out.Verdict)
	}
	o := v.Spans[1]
	if o.Kind != trace.KindObserve || o.Note != "label +1" {
		t.Fatalf("observe span wrong: %+v", o)
	}
}

func TestSelectNetworkTracedSpan(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("wifi", classifier.DefaultConfig())
	mb.AddCell("lte", classifier.DefaultConfig())
	trainCell(t, mb, "wifi", wifiOracle(), 2)
	trainCell(t, mb, "lte", lteOracle(), 3)
	tr := trace.New(8, 1)
	mb.InstrumentTracing(tr)

	ft := tr.Start(trace.ID(2), "", int(excr.Web), 0, "sampled")
	out, ok, err := mb.SelectNetwork([]Candidate{
		{Cell: "wifi", Arrival: lightArrival()},
		{Cell: "lte", Arrival: lightArrival()},
	}, nil, ft)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	sp := ft.View().Spans[0]
	if sp.Kind != trace.KindSelect || sp.Verdict != "cell:"+string(out.Cell) {
		t.Fatalf("select span wrong: %+v (winner %s)", sp, out.Cell)
	}
	if sp.Note != "2 candidates" {
		t.Fatalf("select note = %q", sp.Note)
	}

	// No admitter: the span must say so instead of naming a cell.
	ft2 := tr.Start(trace.ID(3), "", int(excr.Streaming), 0, "sampled")
	_, ok, err = mb.SelectNetwork([]Candidate{
		{Cell: "wifi", Arrival: overloadArrival()},
	}, nil, ft2)
	if err != nil || ok {
		t.Fatalf("overload should not be admitted (ok=%v err=%v)", ok, err)
	}
	if got := ft2.View().Spans[0].Verdict; got != "no-admitting-cell" {
		t.Fatalf("fallback select verdict = %q", got)
	}
}

// TestReevaluateTracedSpans pins the monitoring shape of a traced flow:
// consecutive "keep" sweeps coalesce into one Monitor span whose Count
// is the streak length, and a flip lands a distinct Reevaluate span
// that flips the trace verdict.
func TestReevaluateTracedSpans(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	trainCell(t, mb, "ap", wifiOracle(), 5)
	tr := trace.New(8, 1)
	mb.InstrumentTracing(tr)

	ft := tr.Start(trace.ID(4), "ap", int(excr.Web), 0, "sampled")
	comfy := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 3).Set(excr.Streaming, 0, 2)
	active := []ActiveFlow{{ID: 1, Class: excr.Web, Trace: ft}, {ID: 2, Class: excr.Streaming}}
	for i := 0; i < 3; i++ {
		evict, err := mb.ReevaluateWith("ap", comfy, active, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(evict) != 0 {
			t.Fatalf("comfortable sweep %d evicted %v", i, evict)
		}
	}
	v := ft.View()
	if len(v.Spans) != 1 || v.Spans[0].Kind != trace.KindMonitor || v.Spans[0].Count != 3 {
		t.Fatalf("3 keep sweeps should coalesce into one Monitor span: %+v", v.Spans)
	}
	if v.Spans[0].Verdict != "keep" || v.Spans[0].Model == 0 {
		t.Fatalf("monitor span wrong: %+v", v.Spans[0])
	}

	over := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 19).Set(excr.Conferencing, 0, 14)
	evict, err := mb.ReevaluateWith("ap", over, []ActiveFlow{{ID: 3, Class: excr.Streaming, Trace: ft}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evict) != 1 {
		t.Fatalf("overloaded sweep should evict the streaming flow, got %v", evict)
	}
	v = ft.View()
	if len(v.Spans) != 2 || v.Spans[1].Kind != trace.KindReevaluate || v.Spans[1].Verdict != "evict" {
		t.Fatalf("flip should append a Reevaluate span: %+v", v.Spans)
	}
	if v.Verdict != "evict" {
		t.Fatalf("trace verdict should follow the flip, got %q", v.Verdict)
	}
}

// TestAdmitTracedUnsampledZeroAlloc pins the acceptance criterion: the
// unsampled admission path (no FlowTrace) on a tracing-enabled
// middlebox allocates nothing. The middlebox is deliberately left
// without a metrics registry — the instrumented path's audit-ring
// record is a separate, accounted allocation.
func TestAdmitTracedUnsampledZeroAlloc(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	trainCell(t, mb, "ap", wifiOracle(), 7)
	mb.InstrumentTracing(trace.New(64, 16))
	assertAdmitZeroAlloc(t, mb, lightArrival())
}

// TestHealthVerdicts drives the report through its states: a fresh
// instrumented middlebox is green (checks without evidence are skipped,
// not judged), and tightened thresholds turn real signals yellow/red.
func TestHealthVerdicts(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	reg := obs.NewRegistry()
	mb.Instrument(reg, 64)

	// Bootstrapping cell, empty ring: nothing to judge.
	rep := mb.Health()
	if rep.Status != Green {
		t.Fatalf("fresh middlebox status = %v, want green: %+v", rep.Status, rep)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Cell != "ap" || !rep.Cells[0].Bootstrapping {
		t.Fatalf("cell slice wrong: %+v", rep.Cells)
	}
	if len(rep.Cells[0].Checks) != 0 {
		t.Fatalf("bootstrap cell judged prematurely: %+v", rep.Cells[0].Checks)
	}

	trainCell(t, mb, "ap", wifiOracle(), 11)
	rep = mb.Health()
	cell := rep.Cells[0]
	if cell.Bootstrapping || cell.ModelVersion == 0 || cell.Health == nil {
		t.Fatalf("online cell report wrong: %+v", cell)
	}
	var haveCV, haveRetrain bool
	for _, chk := range cell.Checks {
		switch chk.Name {
		case "cv_accuracy":
			haveCV = true
		case "retrain_latency":
			haveRetrain = true
		}
	}
	if !haveCV || !haveRetrain {
		t.Fatalf("online cell missing cv/retrain checks: %+v", cell.Checks)
	}
	if rep.Status != Green {
		t.Fatalf("healthy online cell status = %v: %+v", rep.Status, rep)
	}

	// An impossible retrain budget turns the same evidence red, and the
	// rollup follows the worst check.
	tight := DefaultHealthThresholds()
	tight.RetrainSecondsYellow = 0
	tight.RetrainSecondsRed = 0
	rep = mb.HealthWith(tight)
	if rep.Status != Red {
		t.Fatalf("zero retrain budget should be red, got %v: %+v", rep.Status, rep)
	}

	// A rejection spike: fill the audit tail with rejects and shrink the
	// window so it is judged.
	for i := 0; i < 8; i++ {
		if _, err := mb.Admit("ap", overloadArrival()); err != nil {
			t.Fatal(err)
		}
	}
	th := DefaultHealthThresholds()
	th.RejectWindow = 8
	th.RejectFracYellow = 0.25
	th.RejectFracRed = 0.75
	rep = mb.HealthWith(th)
	var spike *HealthCheck
	for i := range rep.Checks {
		if rep.Checks[i].Name == "rejection_spike" {
			spike = &rep.Checks[i]
		}
	}
	if spike == nil {
		t.Fatalf("rejection_spike not judged: %+v", rep.Checks)
	}
	if spike.Status != Red || spike.Value != 1 {
		t.Fatalf("all-reject tail should be red at frac 1: %+v", spike)
	}
	if rep.Status != Red {
		t.Fatalf("rollup should follow the spike: %v", rep.Status)
	}
}

func TestHealthStatusJSONAndStrings(t *testing.T) {
	if Green.String() != "green" || Yellow.String() != "yellow" || Red.String() != "red" {
		t.Fatal("status strings wrong")
	}
	b, err := Yellow.MarshalJSON()
	if err != nil || string(b) != `"yellow"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
	if worse(Green, Yellow) != Yellow || worse(Red, Yellow) != Red {
		t.Fatal("worse() wrong")
	}
}
