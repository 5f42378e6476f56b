// Package flows provides the middlebox-side flow abstraction: 5-tuple
// keys, per-flow packet accounting, and a flow table with idle expiry.
// The live gateway (cmd/exboxd and examples/livegateway) builds on it,
// and the flow classifier consumes the first-packets window it keeps.
//
// The design follows the usual middlebox pattern: a flow must be
// observed briefly before an admission decision can be made, because
// traffic classification needs the first few packets (Section 4.2 of
// the paper).
package flows

import (
	"fmt"
	"sort"

	"exbox/internal/excr"
	"exbox/internal/obs/trace"
)

// Proto is an IP protocol number; only TCP and UDP appear here.
type Proto uint8

// Common transport protocols.
const (
	TCP Proto = 6
	UDP Proto = 17
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("proto%d", uint8(p))
	}
}

// Key is a directed flow 5-tuple. The convention is client→server:
// Src identifies the mobile device, Dst the remote service.
type Key struct {
	Src, Dst         string // IP addresses (opaque strings)
	SrcPort, DstPort uint16
	Proto            Proto
}

// String implements fmt.Stringer.
func (k Key) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Reverse returns the opposite direction's key, used to fold both
// directions of a connection into one flow record.
func (k Key) Reverse() Key {
	return Key{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Less orders keys lexicographically (Src, Dst, SrcPort, DstPort,
// Proto). It is the tie-break behind the time-sorted flow listings:
// FirstSeen alone is non-deterministic on same-tick arrivals, and the
// listings feed label feedback and the exit report, which must not
// reorder across runs.
func (k Key) Less(o Key) bool {
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	if k.Dst != o.Dst {
		return k.Dst < o.Dst
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	if k.DstPort != o.DstPort {
		return k.DstPort < o.DstPort
	}
	return k.Proto < o.Proto
}

// flowBefore is the deterministic ordering every Expire/Active listing
// sorts by: first-seen time, then flow key on ties.
func flowBefore(a, b *Flow) bool {
	if a.FirstSeen != b.FirstSeen {
		return a.FirstSeen < b.FirstSeen
	}
	return a.Key.Less(b.Key)
}

// PacketMeta is the per-packet information the gateway records: no
// payload, matching the paper's note that classification works on
// encrypted traffic.
type PacketMeta struct {
	Time  float64 // seconds
	Bytes int
	Up    bool // client→server direction
}

// Flow is the table's per-flow record.
type Flow struct {
	Key Key
	SNR excr.SNRLevel // wireless link quality of the client, as reported by the AP/eNodeB
	// Head is the flow's first packets: allocated once at exactly the
	// table's HeadCap, appended to until the flow is Classified, and
	// handed back to the table by MarkClassified (nil from then on).
	// Only traffic classification and the Ready* predicates read it;
	// the storage is the table's, so copies of a Flow must not.
	Head []PacketMeta

	Packets   int
	Bytes     int
	FirstSeen float64
	LastSeen  float64

	// Class is valid once Classified is true.
	Class      excr.AppClass
	Classified bool
	// Admitted reports the middlebox's decision for this flow.
	Admitted bool
	Decided  bool

	// Trace is the flow's lifecycle trace when the gateway sampled it
	// (or promoted it on a rejection), nil otherwise. The table only
	// carries it; the gateway owns span emission.
	Trace *trace.FlowTrace
}

// ReadyToClassify reports whether enough of the flow's head has been
// seen for the classifier to run (headCap packets; short flows that
// never fill the head are caught by ReadyBySilence instead).
func (f *Flow) ReadyToClassify(headCap int) bool {
	return !f.Classified && len(f.Head) >= headCap
}

// ReadyBySilence resolves the silence case: a short flow whose head
// never reached the cap can still be classified once it has at least
// one packet and has been quiet for silence seconds, since no further
// head packets are coming. The gateway's periodic sweep uses this so
// sparse flows get an admission decision instead of passing forever
// undecided.
func (f *Flow) ReadyBySilence(now, silence float64) bool {
	return !f.Classified && len(f.Head) > 0 && now-f.LastSeen >= silence
}

// Table tracks active flows at the gateway.
type Table struct {
	// HeadCap is how many leading packets are retained per flow for
	// classification.
	HeadCap int
	// IdleTimeout expires flows with no traffic for this many seconds.
	IdleTimeout float64

	flows map[Key]*Flow
	// spare holds head buffers released by classified flows for new
	// flows to draw from: in steady state a flow's head costs no
	// allocation. Bounded, so a classification burst cannot park more
	// than maxSpareHeads buffers here.
	spare [][]PacketMeta
}

// maxSpareHeads bounds a table's spare-head list. A table hands out one
// head per new flow and gets one back per classification, so the list
// only has to absorb the jitter between the two.
const maxSpareHeads = 16

// NewTable returns a table keeping headCap packets per flow and
// expiring flows idle longer than idleTimeout seconds.
func NewTable(headCap int, idleTimeout float64) *Table {
	if headCap <= 0 {
		headCap = 10
	}
	if idleTimeout <= 0 {
		idleTimeout = 60
	}
	return &Table{HeadCap: headCap, IdleTimeout: idleTimeout, flows: make(map[Key]*Flow)}
}

// Len returns the number of tracked flows.
func (t *Table) Len() int { return len(t.flows) }

// Get returns the flow for the key (or its reverse), or nil.
func (t *Table) Get(k Key) *Flow {
	if f, ok := t.flows[k]; ok {
		return f
	}
	if f, ok := t.flows[k.Reverse()]; ok {
		return f
	}
	return nil
}

// Observe accounts one packet to its flow, creating the flow on first
// sight. The returned flow is the live record (not a copy). A packet
// arriving on the reverse key is folded into the same flow with Up
// flipped.
func (t *Table) Observe(k Key, p PacketMeta) *Flow {
	f, ok := t.flows[k]
	if !ok {
		if rf, rok := t.flows[k.Reverse()]; rok {
			f = rf
			p.Up = !p.Up
		} else {
			f = &Flow{Key: k, FirstSeen: p.Time, LastSeen: p.Time, Head: t.newHead()}
			t.flows[k] = f
		}
	}
	t.observeInto(f, p)
	return f
}

// ObserveOwned folds one packet into f without any lookup or check:
// the caller asserts that f is the live record the packet's key
// resolves to. A gateway with interned per-client state can prove this
// by pointer identity — the same client entry implies the same key —
// for consecutive packets of a train (UDP traffic arrives in per-flow
// packet trains, so a burst pipeline pays one lookup per train instead
// of one per packet). Only sound while the caller has held the shard's
// lock continuously since f was resolved: across a lock release the
// pointer may name a flow the sweep has already expired.
func (t *Table) ObserveOwned(f *Flow, p PacketMeta) {
	t.observeInto(f, p)
}

// observeInto folds one packet into an already-resolved flow record.
func (t *Table) observeInto(f *Flow, p PacketMeta) {
	f.Packets++
	f.Bytes += p.Bytes
	// A decided-and-rejected flow is being dropped at the gateway: its
	// client may keep transmitting into the drop, and refreshing
	// LastSeen on those packets would keep the dead flow alive forever
	// — never expiring, never feeding its labeled sample back, and
	// padding the flow table. Keep counting its packets and bytes, but
	// let its activity clock run out.
	if p.Time > f.LastSeen && !(f.Decided && !f.Admitted) {
		f.LastSeen = p.Time
	}
	if !f.Classified && len(f.Head) < t.HeadCap {
		f.Head = append(f.Head, p)
	}
}

// newHead returns an empty head buffer of capacity HeadCap: a spare one
// when there is one, a fresh one otherwise.
func (t *Table) newHead() []PacketMeta {
	if n := len(t.spare); n > 0 {
		h := t.spare[n-1]
		t.spare = t.spare[:n-1]
		return h
	}
	return make([]PacketMeta, 0, t.HeadCap)
}

// MarkClassified records the class traffic classification resolved for
// f and takes the flow's head back: nothing reads a classified flow's
// head again, so its buffer goes to the next new flow instead of
// staying pinned for the flow's life. f must be a live flow of this
// table.
func (t *Table) MarkClassified(f *Flow, class excr.AppClass) {
	f.Class, f.Classified = class, true
	// HeadCap is an exported field: a head sized before someone changed
	// it must not be handed to a flow created after.
	if len(t.spare) < maxSpareHeads && cap(f.Head) == t.HeadCap {
		t.spare = append(t.spare, f.Head[:0])
	}
	f.Head = nil
}

// Expire removes and returns flows idle past the timeout at time now,
// sorted by first-seen time (flow key on ties) for deterministic
// processing.
func (t *Table) Expire(now float64) []*Flow {
	var out []*Flow
	for k, f := range t.flows {
		if now-f.LastSeen >= t.IdleTimeout {
			out = append(out, f)
			delete(t.flows, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return flowBefore(out[i], out[j]) })
	return out
}

// Active returns the live flows sorted by first-seen time (flow key on
// ties).
func (t *Table) Active() []*Flow {
	return t.Select(func(*Flow) bool { return true })
}

// Select returns the live flows keep accepts, in Active's order. The
// periodic sweeps want a few flows out of a large table (the silent
// undecided ones, the admitted ones): filtering first sorts only
// those.
func (t *Table) Select(keep func(*Flow) bool) []*Flow {
	var out []*Flow
	for _, f := range t.flows {
		if keep(f) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return flowBefore(out[i], out[j]) })
	return out
}

// Matrix summarizes the admitted, classified flows as a traffic matrix
// over the space — the X the Admittance Classifier conditions on.
func (t *Table) Matrix(space excr.Space) excr.Matrix {
	m := excr.NewMatrix(space)
	for _, f := range t.flows {
		if !f.Classified || !f.Decided || !f.Admitted {
			continue
		}
		lvl := f.SNR
		if space.Levels == 1 {
			lvl = 0
		}
		if int(f.Class) < space.Classes && int(lvl) < space.Levels {
			m = m.Inc(f.Class, lvl)
		}
	}
	return m
}
