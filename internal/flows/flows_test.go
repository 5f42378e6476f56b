package flows

import (
	"testing"

	"exbox/internal/excr"
)

func key() Key {
	return Key{Src: "10.0.0.2", Dst: "93.184.216.34", SrcPort: 41000, DstPort: 443, Proto: TCP}
}

func TestKeyStringAndReverse(t *testing.T) {
	k := key()
	if k.String() != "10.0.0.2:41000->93.184.216.34:443/tcp" {
		t.Fatalf("String = %q", k.String())
	}
	r := k.Reverse()
	if r.Src != k.Dst || r.SrcPort != k.DstPort || r.Proto != k.Proto {
		t.Fatalf("Reverse wrong: %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should round trip")
	}
	if UDP.String() != "udp" || Proto(99).String() != "proto99" {
		t.Fatal("Proto strings wrong")
	}
}

func TestObserveCreatesAndAccounts(t *testing.T) {
	tab := NewTable(3, 30)
	f := tab.Observe(key(), PacketMeta{Time: 1, Bytes: 100, Up: true})
	if tab.Len() != 1 || f.Packets != 1 || f.Bytes != 100 {
		t.Fatalf("flow state wrong: %+v", f)
	}
	tab.Observe(key(), PacketMeta{Time: 1.1, Bytes: 200})
	tab.Observe(key(), PacketMeta{Time: 1.2, Bytes: 300})
	tab.Observe(key(), PacketMeta{Time: 1.3, Bytes: 400})
	if f.Packets != 4 || f.Bytes != 1000 {
		t.Fatalf("accounting wrong: %+v", f)
	}
	if len(f.Head) != 3 {
		t.Fatalf("head should cap at 3, got %d", len(f.Head))
	}
	if f.FirstSeen != 1 || f.LastSeen != 1.3 {
		t.Fatalf("times wrong: %+v", f)
	}
}

func TestObserveFoldsReverseDirection(t *testing.T) {
	tab := NewTable(10, 30)
	up := tab.Observe(key(), PacketMeta{Time: 1, Bytes: 100, Up: true})
	down := tab.Observe(key().Reverse(), PacketMeta{Time: 1.05, Bytes: 1400, Up: true})
	if up != down {
		t.Fatal("reverse packets should fold into one flow")
	}
	if tab.Len() != 1 {
		t.Fatalf("table should hold one flow, got %d", tab.Len())
	}
	// The reverse packet's direction must be flipped.
	if up.Head[1].Up {
		t.Fatal("reverse packet should be recorded as downlink")
	}
	if got := tab.Get(key().Reverse()); got != up {
		t.Fatal("Get should find the flow by reverse key")
	}
}

func TestGetMissing(t *testing.T) {
	tab := NewTable(10, 30)
	if tab.Get(key()) != nil {
		t.Fatal("missing flow should be nil")
	}
}

func TestExpire(t *testing.T) {
	tab := NewTable(10, 10)
	tab.Observe(key(), PacketMeta{Time: 0, Bytes: 100})
	k2 := key()
	k2.SrcPort = 50000
	tab.Observe(k2, PacketMeta{Time: 8, Bytes: 100})
	gone := tab.Expire(12)
	if len(gone) != 1 || gone[0].Key.SrcPort != 41000 {
		t.Fatalf("expire wrong: %v", gone)
	}
	if tab.Len() != 1 {
		t.Fatalf("table should keep the fresh flow, len=%d", tab.Len())
	}
	// Sorted output with several expiring flows.
	tab2 := NewTable(10, 1)
	for i := 0; i < 5; i++ {
		k := key()
		k.SrcPort = uint16(40000 + i)
		tab2.Observe(k, PacketMeta{Time: float64(5 - i), Bytes: 10})
	}
	gone = tab2.Expire(100)
	for i := 1; i < len(gone); i++ {
		if gone[i].FirstSeen < gone[i-1].FirstSeen {
			t.Fatal("Expire output not sorted")
		}
	}
}

// TestRejectedFlowExpiresDespiteTraffic is the regression test for
// the immortal-rejected-flow bug: a client whose flow was rejected
// keeps transmitting into the drop, and those packets must not
// refresh the flow's activity clock — otherwise the dead flow never
// expires, never leaves the table, and never feeds its labeled
// sample back for online learning.
func TestRejectedFlowExpiresDespiteTraffic(t *testing.T) {
	tab := NewTable(10, 10)
	f := tab.Observe(key(), PacketMeta{Time: 0, Bytes: 100})
	f.Decided, f.Admitted = true, false // gateway rejected it at t=0
	// The client keeps blasting packets long past the idle timeout.
	for i := 1; i <= 30; i++ {
		tab.Observe(key(), PacketMeta{Time: float64(i), Bytes: 100})
	}
	if f.Packets != 31 || f.Bytes != 3100 {
		t.Fatalf("dropped packets must still be accounted: %+v", f)
	}
	if f.LastSeen != 0 {
		t.Fatalf("rejected flow's LastSeen refreshed to %v, want 0", f.LastSeen)
	}
	gone := tab.Expire(11)
	if len(gone) != 1 || gone[0] != f {
		t.Fatalf("rejected flow should expire at its idle timeout, got %v", gone)
	}

	// Control: an admitted flow with the same traffic pattern stays.
	tab2 := NewTable(10, 10)
	g := tab2.Observe(key(), PacketMeta{Time: 0, Bytes: 100})
	g.Decided, g.Admitted = true, true
	for i := 1; i <= 30; i++ {
		tab2.Observe(key(), PacketMeta{Time: float64(i), Bytes: 100})
	}
	if gone := tab2.Expire(31); len(gone) != 0 {
		t.Fatalf("admitted active flow must not expire, got %v", gone)
	}
}

func TestActiveSorted(t *testing.T) {
	tab := NewTable(10, 30)
	for i := 0; i < 4; i++ {
		k := key()
		k.SrcPort = uint16(40000 + i)
		tab.Observe(k, PacketMeta{Time: float64(4 - i), Bytes: 10})
	}
	act := tab.Active()
	if len(act) != 4 {
		t.Fatalf("Active len = %d", len(act))
	}
	for i := 1; i < len(act); i++ {
		if act[i].FirstSeen < act[i-1].FirstSeen {
			t.Fatal("Active not sorted")
		}
	}
}

func TestMatrixCountsOnlyAdmittedClassified(t *testing.T) {
	tab := NewTable(10, 30)
	mk := func(port uint16) *Flow {
		k := key()
		k.SrcPort = port
		return tab.Observe(k, PacketMeta{Time: 1, Bytes: 10})
	}
	a := mk(1) // classified + admitted: counted
	a.Class, a.Classified, a.Admitted, a.Decided = excr.Web, true, true, true
	b := mk(2) // not yet decided: not counted
	b.Class, b.Classified = excr.Streaming, true
	c := mk(3) // rejected: not counted
	c.Class, c.Classified, c.Decided, c.Admitted = excr.Conferencing, true, true, false
	d := mk(4) // admitted at low SNR in a mixed space
	d.Class, d.Classified, d.Admitted, d.Decided = excr.Streaming, true, true, true
	d.SNR = excr.SNRLow

	m := tab.Matrix(excr.MixedSNRSpace)
	if m.Total() != 2 {
		t.Fatalf("matrix total = %d, want 2 (%v)", m.Total(), m)
	}
	if m.Get(excr.Web, excr.SNRLow) != 1 { // a.SNR zero value = low
		t.Fatalf("web count wrong: %v", m)
	}
	if m.Get(excr.Streaming, excr.SNRLow) != 1 {
		t.Fatalf("streaming count wrong: %v", m)
	}
	// Single-level space folds SNR.
	m1 := tab.Matrix(excr.DefaultSpace)
	if m1.Total() != 2 {
		t.Fatalf("single-level total = %d", m1.Total())
	}
}

func TestReadyToClassify(t *testing.T) {
	tab := NewTable(3, 30)
	f := tab.Observe(key(), PacketMeta{Time: 1, Bytes: 10})
	if f.ReadyToClassify(3) {
		t.Fatal("1 packet should not be ready")
	}
	tab.Observe(key(), PacketMeta{Time: 1.1, Bytes: 10})
	tab.Observe(key(), PacketMeta{Time: 1.2, Bytes: 10})
	if !f.ReadyToClassify(3) {
		t.Fatal("3 packets should be ready")
	}
	f.Classified = true
	if f.ReadyToClassify(3) {
		t.Fatal("already classified flow should not re-classify")
	}
}

func TestReadyBySilence(t *testing.T) {
	tab := NewTable(10, 30)
	f := tab.Observe(key(), PacketMeta{Time: 1, Bytes: 10})
	tab.Observe(key(), PacketMeta{Time: 2, Bytes: 10})
	// Head (2 packets) never reaches the cap of 10; the flow becomes
	// classifiable only after enough silence.
	if f.ReadyToClassify(tab.HeadCap) {
		t.Fatal("short head must not be ready by count")
	}
	if f.ReadyBySilence(3, 2) {
		t.Fatal("1s of silence is not enough")
	}
	if !f.ReadyBySilence(4, 2) {
		t.Fatal("2s of silence should resolve the silence case")
	}
	f.Classified = true
	if f.ReadyBySilence(10, 2) {
		t.Fatal("classified flow must not re-classify")
	}
	// A flow with no packets recorded can never be classified.
	empty := &Flow{}
	if empty.ReadyBySilence(100, 2) {
		t.Fatal("empty head must not be ready")
	}
}

func TestExpiryWithLateClassification(t *testing.T) {
	// The gateway pattern: a short flow goes silent, the sweep
	// classifies it by silence and decides admission, and the later
	// expiry returns it with its classification intact.
	tab := NewTable(10, 5)
	f := tab.Observe(key(), PacketMeta{Time: 0, Bytes: 120})
	tab.Observe(key(), PacketMeta{Time: 0.5, Bytes: 80})

	if !f.ReadyBySilence(3, 2) {
		t.Fatal("flow should be silence-classifiable at t=3")
	}
	f.Class, f.Classified = excr.Web, true
	f.Decided, f.Admitted = true, true
	if got := tab.Matrix(excr.DefaultSpace).Get(excr.Web, 0); got != 1 {
		t.Fatalf("late-classified flow missing from matrix: %d", got)
	}

	gone := tab.Expire(6)
	if len(gone) != 1 || !gone[0].Classified || gone[0].Class != excr.Web {
		t.Fatalf("expiry lost the late classification: %+v", gone)
	}
	if tab.Len() != 0 {
		t.Fatalf("table should be empty, len=%d", tab.Len())
	}
	if got := tab.Matrix(excr.DefaultSpace).Total(); got != 0 {
		t.Fatalf("expired flow still in matrix: %d", got)
	}
}

func TestNewTableDefaults(t *testing.T) {
	tab := NewTable(0, 0)
	if tab.HeadCap != 10 || tab.IdleTimeout != 60 {
		t.Fatalf("defaults wrong: %+v", tab)
	}
}

func TestObserveOwnedMatchesObserve(t *testing.T) {
	ta, tb := NewTable(3, 60), NewTable(3, 60)
	k := key()
	fa := ta.Observe(k, PacketMeta{Time: 1, Bytes: 100, Up: true})
	fb := tb.Observe(k, PacketMeta{Time: 1, Bytes: 100, Up: true})
	for i := 0; i < 5; i++ {
		p := PacketMeta{Time: float64(2 + i), Bytes: 40 + i, Up: i%2 == 0}
		ta.Observe(k, p)
		tb.ObserveOwned(fb, p)
	}
	if fa.Packets != fb.Packets || fa.Bytes != fb.Bytes || fa.LastSeen != fb.LastSeen || len(fa.Head) != len(fb.Head) {
		t.Fatalf("ObserveOwned diverged from Observe:\n%+v\n%+v", fa, fb)
	}
}
