package flows

import (
	"fmt"
	"math/rand"
	"testing"

	"exbox/internal/excr"
)

func headKey(i int) Key {
	return Key{Src: fmt.Sprintf("10.9.%d.%d", i/250, i%250+1), Dst: "sink", SrcPort: uint16(20000 + i%1000), DstPort: 9, Proto: UDP}
}

// TestHeadLifecycle pins what a flow's head costs: one buffer of
// exactly HeadCap, never regrown, gone at classification — and a
// classified flow that keeps sending does not grow a new one.
func TestHeadLifecycle(t *testing.T) {
	tab := NewTable(10, 30)
	k := headKey(0)
	f := tab.Observe(k, PacketMeta{Time: 0, Bytes: 100})
	if cap(f.Head) != 10 || len(f.Head) != 1 {
		t.Fatalf("new flow's head: len %d cap %d, want 1 and exactly HeadCap 10", len(f.Head), cap(f.Head))
	}
	first := &f.Head[0]
	for i := 1; i < 14; i++ {
		tab.Observe(k, PacketMeta{Time: float64(i), Bytes: 100 + i})
	}
	if len(f.Head) != 10 || cap(f.Head) != 10 || &f.Head[0] != first {
		t.Fatalf("head regrew while filling: len %d cap %d", len(f.Head), cap(f.Head))
	}
	if !f.ReadyToClassify(tab.HeadCap) {
		t.Fatal("full head not ready to classify")
	}
	tab.MarkClassified(f, excr.Streaming)
	if f.Head != nil || !f.Classified || f.Class != excr.Streaming {
		t.Fatalf("after MarkClassified: head %v classified %v class %v", f.Head, f.Classified, f.Class)
	}
	if f.ReadyToClassify(tab.HeadCap) || f.ReadyBySilence(1000, 1) {
		t.Fatal("classified flow still offers itself for classification")
	}
	tab.Observe(k, PacketMeta{Time: 20, Bytes: 100})
	tab.ObserveOwned(f, PacketMeta{Time: 21, Bytes: 100})
	if f.Head != nil || f.Packets != 16 {
		t.Fatalf("classified flow regrew a head (len %d) or lost packets (%d)", len(f.Head), f.Packets)
	}
	// The released buffer serves the next new flow: no allocation.
	g := tab.Observe(headKey(1), PacketMeta{Time: 22, Bytes: 100})
	if &g.Head[0] != first || len(g.Head) != 1 || cap(g.Head) != 10 {
		t.Fatalf("new flow did not draw the spare head (len %d cap %d)", len(g.Head), cap(g.Head))
	}
	if got := testing.AllocsPerRun(100, func() {
		tab.MarkClassified(g, excr.Web)
		g.Classified = false
		g.Head = tab.newHead()
	}); got != 0 {
		t.Fatalf("release + draw allocates %v times, want 0", got)
	}
}

// TestSpareHeadNeverAliasesLiveFlow drives random interleavings of new
// flows, head packets and classifications and checks after every step
// that no two holders — live unclassified flows and the spare list —
// share a buffer, that each flow's head still holds exactly the
// packets it was sent, and that the spare list stays bounded.
func TestSpareHeadNeverAliasesLiveFlow(t *testing.T) {
	const headCap = 4
	rng := rand.New(rand.NewSource(5))
	tab := NewTable(headCap, 1e9)
	type sent struct {
		f     *Flow
		bytes []int
	}
	var live []*sent // unclassified flows
	next := 0
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(10); {
		case r < 3 || len(live) == 0: // new flow
			s := &sent{bytes: []int{1000 + step}}
			s.f = tab.Observe(headKey(next), PacketMeta{Time: float64(step), Bytes: s.bytes[0]})
			next++
			live = append(live, s)
		case r < 7: // another packet for a random unclassified flow
			s := live[rng.Intn(len(live))]
			tab.Observe(s.f.Key, PacketMeta{Time: float64(step), Bytes: 1000 + step})
			if len(s.bytes) < headCap {
				s.bytes = append(s.bytes, 1000+step)
			}
		default: // classify a random one, full head or not (the silence case)
			i := rng.Intn(len(live))
			tab.MarkClassified(live[i].f, excr.Web)
			live = append(live[:i], live[i+1:]...)
		}

		if len(tab.spare) > maxSpareHeads {
			t.Fatalf("step %d: %d spare heads, bound is %d", step, len(tab.spare), maxSpareHeads)
		}
		owner := map[*PacketMeta]string{}
		claim := func(h []PacketMeta, who string) {
			if cap(h) != headCap {
				t.Fatalf("step %d: %s holds a head of cap %d, want %d", step, who, cap(h), headCap)
			}
			p := &h[:1][0]
			if prev, dup := owner[p]; dup {
				t.Fatalf("step %d: %s and %s share one head buffer", step, prev, who)
			}
			owner[p] = who
		}
		for i, h := range tab.spare {
			if len(h) != 0 {
				t.Fatalf("step %d: spare head %d has len %d", step, i, len(h))
			}
			claim(h, fmt.Sprintf("spare[%d]", i))
		}
		for _, s := range live {
			claim(s.f.Head, s.f.Key.String())
			if len(s.f.Head) != len(s.bytes) {
				t.Fatalf("step %d: %v head holds %d packets, sent %d", step, s.f.Key, len(s.f.Head), len(s.bytes))
			}
			for j, b := range s.bytes {
				if s.f.Head[j].Bytes != b {
					t.Fatalf("step %d: %v head[%d] = %d bytes, sent %d — another flow wrote into it", step, s.f.Key, j, s.f.Head[j].Bytes, b)
				}
			}
		}
	}
	if next < 1000 || len(tab.spare) == 0 {
		t.Fatalf("interleaving too thin: %d flows, %d spares", next, len(tab.spare))
	}
}

// TestSelectMatchesFilteredActive: the filter-then-sort listing the
// sweeps use yields exactly Active() filtered — same flows, same
// order — on a seeded table with first-seen ties.
func TestSelectMatchesFilteredActive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := NewTable(10, 30)
	for i := 0; i < 600; i++ {
		// A handful of distinct ticks: most flows tie on FirstSeen.
		f := tab.Observe(headKey(i), PacketMeta{Time: float64(rng.Intn(7)), Bytes: 100})
		switch rng.Intn(3) {
		case 0:
			tab.MarkClassified(f, excr.AppClass(rng.Intn(3)))
			f.Decided, f.Admitted = true, rng.Intn(2) == 0
		case 1:
			tab.MarkClassified(f, excr.Web)
		}
	}
	for name, keep := range map[string]func(*Flow) bool{
		"admitted":   func(f *Flow) bool { return f.Classified && f.Decided && f.Admitted },
		"unresolved": func(f *Flow) bool { return f.ReadyBySilence(10, 2) },
		"none":       func(*Flow) bool { return false },
	} {
		var want []*Flow
		for _, f := range tab.Active() {
			if keep(f) {
				want = append(want, f)
			}
		}
		got := tab.Select(keep)
		if len(got) != len(want) {
			t.Fatalf("%s: Select returned %d flows, Active+filter %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order diverged at %d: %v vs %v", name, i, got[i].Key, want[i].Key)
			}
		}
		if name != "none" && len(want) < 50 {
			t.Fatalf("%s: only %d flows selected; the comparison is thin", name, len(want))
		}
	}
}

// TestOldestMatchesActivePrefix: the bounded listing is Active()'s
// prefix, with the table's full size alongside.
func TestOldestMatchesActivePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := NewShardedTable(8, 10, 30, excr.DefaultSpace)
	for i := 0; i < 500; i++ {
		k := headKey(i)
		tm := float64(rng.Intn(20))
		st.Do(k, func(t *Table) { t.Observe(k, PacketMeta{Time: tm, Bytes: 100}) })
	}
	all := st.Active()
	for _, n := range []int{0, 1, 32, 500, 900} {
		first, total := st.Oldest(n)
		want := n
		if want > len(all) {
			want = len(all)
		}
		if total != len(all) || len(first) != want {
			t.Fatalf("Oldest(%d) = %d flows of %d, want %d of %d", n, len(first), total, want, len(all))
		}
		for i := range first {
			if first[i].Key != all[i].Key {
				t.Fatalf("Oldest(%d) diverged from Active at %d: %v vs %v", n, i, first[i].Key, all[i].Key)
			}
		}
	}
}
