package flows

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"exbox/internal/excr"
	"exbox/internal/obs"
)

// ShardedTable is the concurrency-safe flow table behind the gateway's
// parallel packet workers. Flows are partitioned across independently
// locked shards by a direction-independent hash of the 5-tuple (a flow
// and its reverse land on the same shard, so fold-on-reverse keeps
// working), and the admitted traffic matrix — the X every admission
// decision conditions on — is maintained as a flat array of atomic
// counters, so reading it never takes any lock.
type ShardedTable struct {
	space  excr.Space
	shards []tableShard
	counts []atomic.Int64 // admitted flows per (class, level), class-major

	// Telemetry (nil-safe no-ops until Instrument is called).
	expiredN *obs.Counter
	trackedN *obs.Gauge
}

type tableShard struct {
	mu sync.Mutex
	t  *Table
	_  [40]byte // pad to a cache line so shard locks don't false-share
}

// NewShardedTable returns a table with nShards independently locked
// partitions, each keeping headCap packets per flow and expiring flows
// idle longer than idleTimeout seconds. The space fixes the shape of
// the tracked traffic matrix. nShards <= 0 defaults to 32.
func NewShardedTable(nShards, headCap int, idleTimeout float64, space excr.Space) *ShardedTable {
	if nShards <= 0 {
		nShards = 32
	}
	st := &ShardedTable{
		space:  space,
		shards: make([]tableShard, nShards),
		counts: make([]atomic.Int64, space.Dim()),
	}
	for i := range st.shards {
		st.shards[i].t = NewTable(headCap, idleTimeout)
	}
	return st
}

// Instrument registers the table's telemetry under the given name
// prefix: an expiry counter and a tracked-flow gauge updated on the
// maintenance path, plus scrape-time gauges for total and per-shard
// occupancy and for every cell of the admitted traffic matrix. The
// occupancy gauges take the owning shard's lock when scraped — the
// scrape is a cold path — while the matrix gauges read the atomic
// counters, so nothing here touches the per-packet path. Call before
// the table sees concurrent traffic.
func (st *ShardedTable) Instrument(reg *obs.Registry, prefix string) {
	st.expiredN = reg.Counter(prefix + "_expired_total")
	st.trackedN = reg.Gauge(prefix + "_tracked_flows")
	reg.GaugeFunc(prefix+"_active_flows", func() float64 { return float64(st.Len()) })
	for i := range st.shards {
		s := &st.shards[i]
		reg.GaugeFunc(fmt.Sprintf("%s_shard_%d_flows", prefix, i), func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.t.Len())
		})
	}
	for c := 0; c < st.space.Classes; c++ {
		for l := 0; l < st.space.Levels; l++ {
			idx := c*st.space.Levels + l
			reg.GaugeFunc(fmt.Sprintf("%s_matrix_c%d_l%d", prefix, c, l), func() float64 {
				return float64(st.counts[idx].Load())
			})
		}
	}
}

// canonical orients the key direction-independently so k and
// k.Reverse() hash identically.
func canonical(k Key) Key {
	r := k.Reverse()
	if k.Src < r.Src {
		return k
	}
	if k.Src > r.Src {
		return r
	}
	if k.SrcPort <= r.SrcPort {
		return k
	}
	return r
}

// ShardIndex returns the shard slot owning k — an inline FNV-1a over
// the canonical key, allocation-free, producing exactly the hash the
// original hash/fnv implementation did (pinned by a test). It is
// exported so the ingest read loop can hash each packet once at
// publish time and hand the precomputed slot to DoBatch.
func (st *ShardedTable) ShardIndex(k Key) int {
	c := canonical(k)
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(c.Src); i++ {
		h = (h ^ uint32(c.Src[i])) * prime32
	}
	h = (h ^ 0) * prime32
	h = (h ^ uint32(byte(c.SrcPort>>8))) * prime32
	h = (h ^ uint32(byte(c.SrcPort))) * prime32
	for i := 0; i < len(c.Dst); i++ {
		h = (h ^ uint32(c.Dst[i])) * prime32
	}
	h = (h ^ 0) * prime32
	h = (h ^ uint32(byte(c.DstPort>>8))) * prime32
	h = (h ^ uint32(byte(c.DstPort))) * prime32
	h = (h ^ uint32(byte(c.Proto))) * prime32
	return int(h) % len(st.shards)
}

func (st *ShardedTable) shardFor(k Key) *tableShard {
	return &st.shards[st.ShardIndex(k)]
}

// Do runs fn on the shard owning k while holding that shard's lock.
// All reads and writes of flows on that shard — Observe, classification
// and decision fields — must happen inside fn; flow pointers must not
// escape it.
func (st *ShardedTable) Do(k Key, fn func(t *Table)) {
	s := st.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.t)
}

// Sweep visits every shard in turn, calling fn under the shard's lock.
// The expiry/re-evaluation sweep uses it to walk the whole table
// without ever holding more than one shard lock at a time.
func (st *ShardedTable) Sweep(fn func(t *Table)) {
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		fn(s.t)
		s.mu.Unlock()
	}
}

// HeadCap returns the per-flow head capacity (uniform across shards).
func (st *ShardedTable) HeadCap() int { return st.shards[0].t.HeadCap }

// Len returns the number of tracked flows across all shards.
func (st *ShardedTable) Len() int {
	n := 0
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		n += s.t.Len()
		s.mu.Unlock()
	}
	return n
}

// cell flattens a flow's (class, SNR) to its class-major matrix slot,
// collapsing the level in single-level spaces like Table.Matrix does.
func (st *ShardedTable) cell(class excr.AppClass, lvl excr.SNRLevel) int {
	if st.space.Levels == 1 {
		lvl = 0
	}
	return int(class)*st.space.Levels + int(lvl)
}

// Tracked reports whether the flow contributes to the running matrix:
// classified, decided, admitted, and inside the space.
func (st *ShardedTable) tracked(f *Flow) bool {
	if !f.Classified || !f.Decided || !f.Admitted {
		return false
	}
	lvl := f.SNR
	if st.space.Levels == 1 {
		lvl = 0
	}
	return int(f.Class) < st.space.Classes && int(lvl) < st.space.Levels
}

// TrackAdmitted folds a newly admitted, classified flow into the
// running traffic matrix. Call it (under the owning shard's Do) right
// after setting the flow's Classified/Decided/Admitted fields.
func (st *ShardedTable) TrackAdmitted(f *Flow) {
	if st.tracked(f) {
		st.counts[st.cell(f.Class, f.SNR)].Add(1)
		st.trackedN.Add(1)
	}
}

// UntrackAdmitted removes a previously tracked flow from the running
// matrix — used when re-evaluation discontinues an admitted flow. For
// a flow still in the table, call it under the owning shard's Do
// before clearing Admitted, so the matrix deduction and the flag flip
// are one atomic step against the packet workers. A flow already
// removed from the table (Expire's evictees) is exclusively owned by
// the caller — no worker can reach it — so no shard lock is needed;
// Expire untracks after releasing the lock for exactly that reason.
func (st *ShardedTable) UntrackAdmitted(f *Flow) {
	if st.tracked(f) {
		st.counts[st.cell(f.Class, f.SNR)].Add(-1)
		st.trackedN.Add(-1)
	}
}

// Matrix returns a snapshot of the admitted traffic matrix from the
// atomic counters. It is lock-free, so the per-packet admission path
// can read it without touching any shard.
func (st *ShardedTable) Matrix() excr.Matrix {
	flat := make([]int, len(st.counts))
	for i := range st.counts {
		if v := st.counts[i].Load(); v > 0 {
			flat[i] = int(v)
		}
	}
	return excr.MatrixFromCounts(st.space, flat)
}

// Expire removes flows idle past the timeout from every shard and
// returns them sorted by first-seen time (flow key on ties, so the
// label-feedback order is deterministic across runs). Admitted flows
// leaving the table are deducted from the running matrix — after the
// shard unlocks, which is safe because the evictees are already out of
// the table and exclusively ours (see UntrackAdmitted).
func (st *ShardedTable) Expire(now float64) []*Flow {
	var out []*Flow
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		gone := s.t.Expire(now)
		s.mu.Unlock()
		for _, f := range gone {
			st.UntrackAdmitted(f)
		}
		st.expiredN.Add(int64(len(gone)))
		out = append(out, gone...)
	}
	sort.Slice(out, func(i, j int) bool { return flowBefore(out[i], out[j]) })
	return out
}

// Active returns copies of the live flows across all shards sorted by
// first-seen time (flow key on ties). Copies, not live records: the
// caller holds no shard lock, so it must not see pointers the packet
// workers are mutating.
func (st *ShardedTable) Active() []Flow {
	var out []Flow
	st.Sweep(func(t *Table) {
		for _, f := range t.Active() {
			out = append(out, *f)
		}
	})
	sort.Slice(out, func(i, j int) bool { return flowBefore(&out[i], &out[j]) })
	return out
}

// Oldest returns copies of the first n flows in Active's order and the
// number of flows tracked, without copying or sorting the rest: a
// listing for people reads a screenful however large the table is.
func (st *ShardedTable) Oldest(n int) (first []Flow, total int) {
	if n <= 0 {
		return nil, st.Len()
	}
	st.Sweep(func(t *Table) {
		total += len(t.flows)
		for _, f := range t.flows {
			if len(first) == n && !flowBefore(f, &first[n-1]) {
				continue
			}
			i := sort.Search(len(first), func(i int) bool { return flowBefore(f, &first[i]) })
			if len(first) < n {
				first = append(first, Flow{})
			}
			copy(first[i+1:], first[i:])
			first[i] = *f
		}
	})
	return first, total
}
