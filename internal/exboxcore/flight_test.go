package exboxcore

import (
	"math"
	"testing"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/mathx"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
	"exbox/internal/traffic"
)

// drainFlight stops nothing: it runs the recorder's writer against a
// temp dir just long enough to flush the backlog, then decodes it.
func drainFlight(t *testing.T, fr *flightrec.Recorder) []flightrec.DecodedRecord {
	t.Helper()
	dir := t.TempDir()
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- fr.RunWriter(flightrec.WriterConfig{Dir: dir}, done) }()
	close(done)
	if err := <-errc; err != nil {
		t.Fatalf("writer: %v", err)
	}
	recs, err := flightrec.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	return recs
}

// TestAdmitFlightRecordedZeroAlloc is the ISSUE 10 acceptance pin: the
// unsampled admission path with the flight recorder attached (and the
// timeline store ticking in the background over an instrumented
// sibling registry) stays at zero allocations per decision. Flight
// recording is wired independently of Instrument precisely so the
// journal enqueue is a pure by-value ring publish.
func TestAdmitFlightRecordedZeroAlloc(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	o := wifiOracle()
	trainCell(t, mb, "ap", o, 1)
	fr := flightrec.NewRecorder(1 << 16)
	mb.InstrumentFlightRecorder(fr)

	probe := excr.Arrival{
		Matrix: excr.NewMatrix(excr.DefaultSpace).Set(excr.Streaming, 0, 12),
		Class:  excr.Web,
	}
	assertAdmitZeroAlloc(t, mb, probe)
	if fr.Depth() == 0 && fr.Drops() == 0 {
		t.Fatal("no admission reached the flight ring")
	}
}

// TestFlightMatchesAuditRing is the replay contract: with both the
// audit ring and the flight recorder attached, every admission's
// journal record must match its audit record bit for bit — same
// sequence number, same timestamp, same margin bits, same verdict,
// cell, class and level — so exlog can reproduce /debug/admissions
// after a crash.
func TestFlightMatchesAuditRing(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	reg := obs.NewRegistry()
	mb.Instrument(reg, 256)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fr := flightrec.NewRecorder(1 << 12)
	mb.InstrumentFlightRecorder(fr)
	trainCell(t, mb, "ap", wifiOracle(), 1)

	// A spread of distinct arrivals across classes and loads, through
	// all three recording entry points (single, selection, burst).
	rng := mathx.NewRand(9)
	events := traffic.Arrivals(traffic.Random(rng, 20, 10, 0, excr.DefaultSpace), nil)
	var arrivals []excr.Arrival
	for _, e := range events {
		arrivals = append(arrivals, e.Arrival)
	}
	for _, a := range arrivals[:10] {
		if _, err := mb.Admit("ap", a); err != nil {
			t.Fatal(err)
		}
	}
	var sel []Candidate
	for _, a := range arrivals[10:20] {
		sel = append(sel, Candidate{Cell: "ap", Arrival: a})
	}
	if _, _, err := mb.SelectNetwork(sel, nil, nil); err != nil {
		t.Fatal(err)
	}
	var cands []BurstCandidate
	for _, a := range arrivals[20:30] {
		cands = append(cands, BurstCandidate{Class: a.Class, Level: a.Level})
	}
	base := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 3)
	if _, err := mb.AdmitBurst("ap", base, cands, nil, nil); err != nil {
		t.Fatal(err)
	}

	audit := mb.AuditRing().Snapshot()
	if len(audit) != 30 {
		t.Fatalf("audit records: %d", len(audit))
	}
	flight := drainFlight(t, fr)
	bySeq := make(map[uint64]flightrec.DecodedRecord, len(flight))
	for _, rec := range flight {
		if rec.Kind != flightrec.KindAdmission {
			t.Fatalf("unexpected kind %v in journal", rec.Kind)
		}
		bySeq[rec.Seq] = rec
	}
	if len(bySeq) != len(audit) {
		t.Fatalf("journaled %d distinct seqs, audit has %d", len(bySeq), len(audit))
	}
	for _, ar := range audit {
		jr, ok := bySeq[ar.Seq]
		if !ok {
			t.Fatalf("audit seq %d missing from journal", ar.Seq)
		}
		if jr.UnixNanos != ar.UnixNanos {
			t.Fatalf("seq %d: stamp %d != audit %d", ar.Seq, jr.UnixNanos, ar.UnixNanos)
		}
		if math.Float64bits(jr.Value) != math.Float64bits(ar.Margin) {
			t.Fatalf("seq %d: margin bits %x != %x", ar.Seq, math.Float64bits(jr.Value), math.Float64bits(ar.Margin))
		}
		if flightrec.VerdictString(jr.Verdict) != ar.Verdict {
			t.Fatalf("seq %d: verdict %q != %q", ar.Seq, flightrec.VerdictString(jr.Verdict), ar.Verdict)
		}
		if jr.CellName != ar.Cell || int(jr.Class) != ar.Class || int(jr.Level) != ar.Level {
			t.Fatalf("seq %d: identity (%q,%d,%d) != (%q,%d,%d)",
				ar.Seq, jr.CellName, jr.Class, jr.Level, ar.Cell, ar.Class, ar.Level)
		}
		if jr.Model != ar.Model {
			t.Fatalf("seq %d: model %d != %d", ar.Seq, jr.Model, ar.Model)
		}
		if (jr.Flags&flightrec.FlagBootstrap != 0) != ar.Bootstrap {
			t.Fatalf("seq %d: bootstrap flag mismatch", ar.Seq)
		}
	}
}

// TestFlightLifecycleEvents checks the non-admission hooks: a
// background retrain journals KindRetrain with the new model version,
// and snapshot save/load/reject journal KindSnapshot with the right
// verdicts.
func TestFlightLifecycleEvents(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.AddCell("ap", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fr := flightrec.NewRecorder(256)
	mb.InstrumentFlightRecorder(fr)
	trainCell(t, mb, "ap", wifiOracle(), 1)

	dir := t.TempDir()
	if _, err := mb.SaveSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.LoadSnapshots(dir); err != nil {
		t.Fatal(err)
	}

	var saved, loaded bool
	for _, rec := range drainFlight(t, fr) {
		if rec.Kind == flightrec.KindSnapshot && rec.Verdict == 0 {
			saved = true
		}
		if rec.Kind == flightrec.KindSnapshot && rec.Verdict == 1 {
			loaded = true
		}
	}
	if !saved || !loaded {
		t.Fatalf("snapshot events missing: saved=%v loaded=%v", saved, loaded)
	}
}
