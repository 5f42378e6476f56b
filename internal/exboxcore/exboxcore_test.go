package exboxcore

import (
	"errors"
	"testing"

	"exbox/internal/apps"
	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/mathx"
	"exbox/internal/metrics"
	"exbox/internal/netsim"
	"exbox/internal/traffic"
)

// trainCell feeds labeled random traffic into one cell until online.
func trainCell(t *testing.T, mb *Middlebox, id CellID, o apps.Oracle, seed int64) {
	t.Helper()
	rng := mathx.NewRand(seed)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 25, 20, 0, excr.DefaultSpace), nil) {
		if err := mb.Observe(id, excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)}); err != nil {
			t.Fatal(err)
		}
	}
	if mb.Cell(id).Classifier.Bootstrapping() {
		t.Fatalf("cell %s did not graduate", id)
	}
}

func wifiOracle() apps.Oracle {
	return apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
}

func lteOracle() apps.Oracle {
	return apps.Oracle{Net: netsim.FluidLTE{Config: netsim.SimLTE()}}
}

func TestAddCellAndAccessors(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.AddCell("ap1", classifier.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.AddCell("ap1", classifier.DefaultConfig()); err == nil {
		t.Fatal("duplicate cell should error")
	}
	if mb.Cell("ap1") == nil || mb.Cell("nope") != nil {
		t.Fatal("Cell lookup wrong")
	}
	mb.AddCell("ap2", classifier.DefaultConfig())
	cells := mb.Cells()
	if len(cells) != 2 || cells[0].ID != "ap1" || cells[1].ID != "ap2" {
		t.Fatal("Cells order wrong")
	}
}

func TestNewPanicsOnInvalidSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(excr.Space{}, Discontinue)
}

func TestAdmitPolicies(t *testing.T) {
	for _, policy := range []Policy{Discontinue, Deprioritize} {
		mb := New(excr.DefaultSpace, policy)
		mb.AddCell("ap", classifier.DefaultConfig())
		trainCell(t, mb, "ap", wifiOracle(), 1)

		good := excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace), Class: excr.Web}
		out, err := mb.Admit("ap", good)
		if err != nil || out.Verdict != Admit {
			t.Fatalf("policy %v: light arrival verdict %v err %v", policy, out.Verdict, err)
		}
		bad := excr.Arrival{
			Matrix: excr.NewMatrix(excr.DefaultSpace).
				Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 18).Set(excr.Conferencing, 0, 15),
			Class: excr.Streaming,
		}
		out, err = mb.Admit("ap", bad)
		if err != nil {
			t.Fatal(err)
		}
		want := Reject
		if policy == Deprioritize {
			want = LowPriority
		}
		if out.Verdict != want {
			t.Fatalf("policy %v: overload verdict %v, want %v", policy, out.Verdict, want)
		}
	}
}

func TestAdmitUnknownCell(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	_, err := mb.Admit("ghost", excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace)})
	if !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("err = %v, want ErrUnknownCell", err)
	}
	if err := mb.Observe("ghost", excr.Sample{Arrival: excr.Arrival{Matrix: excr.NewMatrix(excr.DefaultSpace)}, Label: 1}); !errors.Is(err, ErrUnknownCell) {
		t.Fatal("Observe should reject unknown cell")
	}
	if _, err := mb.ReevaluateWith("ghost", excr.NewMatrix(excr.DefaultSpace), nil, nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatal("Reevaluate should reject unknown cell")
	}
}

func TestSelectNetworkPrefersEmptierCell(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("wifi", classifier.DefaultConfig())
	mb.AddCell("lte", classifier.DefaultConfig())
	trainCell(t, mb, "wifi", wifiOracle(), 2)
	trainCell(t, mb, "lte", lteOracle(), 3)

	// WiFi is loaded past its region boundary (≈100 Mbps of demand on
	// a ~97 Mbps cell); LTE carries a comfortable interior load.
	loadedWiFi := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 10).Set(excr.Streaming, 0, 20).Set(excr.Conferencing, 0, 5)
	lightLTE := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 3).Set(excr.Streaming, 0, 3).Set(excr.Conferencing, 0, 3)
	arr := func(m excr.Matrix) excr.Arrival {
		return excr.Arrival{Matrix: m, Class: excr.Conferencing, Level: 0}
	}
	out, ok, err := mb.SelectNetwork([]Candidate{
		{Cell: "wifi", Arrival: arr(loadedWiFi)},
		{Cell: "lte", Arrival: arr(lightLTE)},
	}, nil, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if out.Cell != "lte" {
		t.Fatalf("selected %s, want lte (decision: %+v)", out.Cell, out.Decision)
	}
}

func TestSelectNetworkNoAdmitter(t *testing.T) {
	mb := New(excr.DefaultSpace, Deprioritize)
	mb.AddCell("wifi", classifier.DefaultConfig())
	trainCell(t, mb, "wifi", wifiOracle(), 4)
	overload := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 18).Set(excr.Conferencing, 0, 15)
	out, ok, err := mb.SelectNetwork([]Candidate{
		{Cell: "wifi", Arrival: excr.Arrival{Matrix: overload, Class: excr.Streaming}},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("no cell should admit the overload")
	}
	if out.Verdict != LowPriority {
		t.Fatalf("fallback verdict = %v, want low-priority under Deprioritize", out.Verdict)
	}
	if _, _, err := mb.SelectNetwork(nil, nil, nil); err == nil {
		t.Fatal("empty candidates should error")
	}
}

func TestReevaluateEvictsAfterChange(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	trainCell(t, mb, "ap", wifiOracle(), 5)

	// A comfortable matrix: nothing should be evicted.
	m := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 3).Set(excr.Streaming, 0, 2)
	active := []ActiveFlow{
		{ID: 1, Class: excr.Web}, {ID: 2, Class: excr.Streaming},
	}
	evict, err := mb.ReevaluateWith("ap", m, active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evict) != 0 {
		t.Fatalf("comfortable matrix should evict nothing, got %v", evict)
	}

	// An overloaded matrix: streaming flows should be flagged.
	over := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 19).Set(excr.Conferencing, 0, 14)
	activeOver := []ActiveFlow{
		{ID: 1, Class: excr.Streaming}, {ID: 2, Class: excr.Web},
	}
	evict, err = mb.ReevaluateWith("ap", over, activeOver, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evict) == 0 {
		t.Fatal("overloaded matrix should evict at least one flow")
	}
}

func TestReevaluateValidatesPresence(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	empty := excr.NewMatrix(excr.DefaultSpace)
	_, err := mb.ReevaluateWith("ap", empty, []ActiveFlow{{ID: 1, Class: excr.Web}}, nil)
	if err == nil {
		t.Fatal("flow absent from matrix should error")
	}
}

func TestEstimateQoEWithoutEstimator(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	if _, err := mb.EstimateQoE(excr.Web, metrics.QoS{}); err == nil {
		t.Fatal("expected error without estimator")
	}
}

func TestStringers(t *testing.T) {
	if Discontinue.String() != "discontinue" || Deprioritize.String() != "deprioritize" {
		t.Fatal("Policy strings wrong")
	}
	if Admit.String() != "admit" || Reject.String() != "reject" || LowPriority.String() != "low-priority" {
		t.Fatal("Verdict strings wrong")
	}
}

// TestSelectNetworkDuplicateCellCandidates: several candidates on the
// same cell form one batched group; the deepest admitting placement
// still wins and unknown cells still error.
func TestSelectNetworkDuplicateCellCandidates(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("wifi", classifier.DefaultConfig())
	trainCell(t, mb, "wifi", wifiOracle(), 2)

	light := excr.NewMatrix(excr.DefaultSpace).Set(excr.Web, 0, 2)
	loaded := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 10).Set(excr.Streaming, 0, 20).Set(excr.Conferencing, 0, 5)
	arr := func(m excr.Matrix) excr.Arrival {
		return excr.Arrival{Matrix: m, Class: excr.Conferencing, Level: 0}
	}
	wantLight := mb.Cell("wifi").Classifier.Decide(arr(light))
	var s classifier.Scratch
	out, ok, err := mb.SelectNetwork([]Candidate{
		{Cell: "wifi", Arrival: arr(loaded)},
		{Cell: "wifi", Arrival: arr(light)},
	}, &s, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if out.Cell != "wifi" || out.Decision.Depth != wantLight.Depth {
		t.Fatalf("selected %+v, want the light placement (depth %v)", out, wantLight.Depth)
	}

	if _, _, err := mb.SelectNetwork([]Candidate{{Cell: "nope", Arrival: arr(light)}}, nil, nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("unknown cell error = %v", err)
	}
}

// TestReevaluateDedupMatchesScalar pins the grouped sweep to per-flow
// scalar decisions: flows sharing a (class, level) must get exactly
// the verdict a fresh Decide on their re-arrival tuple yields.
func TestReevaluateDedupMatchesScalar(t *testing.T) {
	mb := New(excr.DefaultSpace, Discontinue)
	mb.AddCell("ap", classifier.DefaultConfig())
	trainCell(t, mb, "ap", wifiOracle(), 5)

	over := excr.NewMatrix(excr.DefaultSpace).
		Set(excr.Web, 0, 15).Set(excr.Streaming, 0, 19).Set(excr.Conferencing, 0, 14)
	active := []ActiveFlow{
		{ID: 1, Class: excr.Streaming}, {ID: 2, Class: excr.Web},
		{ID: 3, Class: excr.Streaming}, {ID: 4, Class: excr.Conferencing},
		{ID: 5, Class: excr.Web},
	}
	var s classifier.Scratch
	evict, err := mb.ReevaluateWith("ap", over, active, &s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, f := range active {
		d := mb.Cell("ap").Classifier.Decide(excr.Arrival{
			Matrix: over.Dec(f.Class, 0), Class: f.Class, Level: 0,
		})
		want[f.ID] = !d.Admit
	}
	got := map[int]bool{}
	for _, f := range evict {
		got[f.ID] = true
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("flow %d evicted=%v, scalar path says %v (evict=%v)", id, got[id], w, evict)
		}
	}
}
