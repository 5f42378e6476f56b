package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"regexp"
	"syscall"
	"testing"
	"time"

	"exbox/internal/excr"
	"exbox/internal/flows"
)

func TestParseProm(t *testing.T) {
	page, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseProm(page)
	if err != nil {
		t.Fatal(err)
	}
	// Values as they stand in the captured page.
	want := map[string]float64{
		"exbox_gw_forwarded_packets_total":                               20622,
		"exbox_gw_dropped_packets_total":                                 6798,
		"exbox_gw_admitted_flows_total":                                  19,
		"exbox_ring_drops_total":                                         0,
		"exbox_burst_size_sum":                                           27420,
		`exbox_burst_size_bucket{le="+Inf"}`:                             2307,
		"exbox_cell_ap0_clf_cv_score":                                    0.9464285714285714,
		`exbox_admit_seconds_bucket{le="1.6e-06"}`:                       39,
		`exbox_build_info{goversion="go1.24.0",revision="a4aa69e968fa"}`: 1,
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", k, g, ok, v)
		}
	}
	if n := bytes.Count(page, []byte("\n")); len(got) != n {
		t.Errorf("parsed %d series from %d lines", len(got), n)
	}
	if p := got.processed(); p != 20622+6798 {
		t.Errorf("processed() = %v", p)
	}
}

func TestParsePromOddLines(t *testing.T) {
	got, err := parseProm([]byte("# HELP x y\n\nm{a=\"b c\",d=\"}\"} 2.5 1700000000\nplain 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[`m{a="b c",d="}"}`] != 2.5 || got["plain"] != 7 || len(got) != 2 {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"novalue\n", "m{a=\"b\" 1\n", "m x\n"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	line := []byte("4242 (ex) box d) S 1 4242 4242 0 -1 4194560 500 0 0 0 123 45 0 0 20 0 7 0 100 1000 200 18446744073709551615\n")
	u, s, err := parseProcStat(line)
	if err != nil || u != 1230*time.Millisecond || s != 450*time.Millisecond {
		t.Errorf("got %v %v %v", u, s, err)
	}
	if _, _, err := parseProcStat([]byte("1 (x) S 2")); err == nil {
		t.Error("short line accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{5, 50, 3},       // nothing qualifies: the median
		{39, 50, 20},     // p75 would leave 9 beyond
		{44, 75, 33},     // p75 leaves 11
		{110, 90, 99},    // p90 leaves 11, p95 would leave 5
		{216, 95, 206},   // p95 leaves 10
		{1000, 99, 990},  // p99 is rank 990: exactly ten beyond
		{1100, 99, 1089}, // p99 leaves 11
		{200000, 99, 198000},
	} {
		pct, val := tail(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// One burst: a 100-unit parent with children of 30 and 20, the first of
	// which has a child of 10; then a sibling of 7.
	clock := int64(0)
	tr := newTracer(16, func() int64 { return clock })
	a, b, c := tr.layer("a"), tr.layer("b"), tr.layer("c")
	at := func(v int64) { clock = v }
	at(0)
	p := tr.begin(a)
	at(10)
	c1 := tr.begin(b)
	at(15)
	g := tr.begin(c)
	at(25)
	tr.end(g)
	at(40)
	tr.end(c1)
	at(50)
	c2 := tr.begin(b)
	at(70)
	tr.end(c2)
	at(100)
	tr.end(p)
	s := tr.begin(a)
	at(107)
	tr.end(s)
	tot := tr.totals()
	want := map[string]layerTotals{
		"a": {Count: 2, Total: 107, Self: 57},
		"b": {Count: 2, Total: 50, Self: 40},
		"c": {Count: 1, Total: 10, Self: 10},
	}
	for k, w := range want {
		if tot[k] != w {
			t.Errorf("%s: %+v, want %+v", k, tot[k], w)
		}
	}
	var self int64
	for _, lt := range tot {
		self += lt.Self
	}
	if self != 107 {
		t.Errorf("self times sum to %d, want the 107 units covered by top-level spans", self)
	}
	if tr.spans[g].Parent != c1 || tr.spans[c2].Parent != p || tr.spans[s].Parent != -1 {
		t.Errorf("parents wrong: %+v", tr.spans)
	}
	// A full buffer drops and counts; a nil tracer is inert.
	small := newTracer(1, func() int64 { return 0 })
	small.end(small.begin(0))
	small.end(small.begin(0))
	if small.dropped != 1 || len(small.spans) != 1 {
		t.Errorf("dropped=%d spans=%d", small.dropped, len(small.spans))
	}
	var none *tracer
	none.end(none.begin(none.layer("x")))
}

func TestPktinfoEncoding(t *testing.T) {
	b := make([]byte, syscall.CmsgSpace(pktinfoLen))
	putPktinfo(b, [4]byte{127, 9, 8, 7})
	msgs, err := syscall.ParseSocketControlMessage(b)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("parse: %v, %d messages", err, len(msgs))
	}
	m := msgs[0]
	if m.Header.Level != syscall.IPPROTO_IP || m.Header.Type != syscall.IP_PKTINFO || len(m.Data) != pktinfoLen {
		t.Errorf("header %+v, %d data bytes", m.Header, len(m.Data))
	}
	if !bytes.Equal(m.Data, []byte{0, 0, 0, 0, 127, 9, 8, 7, 0, 0, 0, 0}) {
		t.Errorf("in_pktinfo = %v", m.Data)
	}
}

// TestGeneratorOnLoopback sends a paced schedule to a local socket and
// checks what arrives: the count the rate implies, each datagram from the
// source address, with the length and direction byte, that the schedule
// gave it.
func TestGeneratorOnLoopback(t *testing.T) {
	rx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	snd, err := newSender(rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer snd.close()
	sch := schedule{
		unitLen: 2,
		unit: func(i int, dst []packet) []packet {
			return append(dst, packet{client: uint32(i), size: 64, up: true}, packet{client: uint32(i), size: 200})
		},
		addr: func(c uint32) [4]byte { return clientAddr(5<<16, c) },
	}
	const rate, dur = 2000, 100 * time.Millisecond
	st, err := snd.run(&sch, 0, rate, dur)
	if err != nil {
		t.Fatal(err)
	}
	// Units are due every unitLen/rate = 1 ms from t = 0: 100 of them fit,
	// give or take the one at the boundary.
	if st.units < 99 || st.units > 101 || st.sent != int64(2*st.units) || st.lateSamp != st.units {
		t.Errorf("units=%d sent=%d lateness samples=%d", st.units, st.sent, st.lateSamp)
	}
	buf := make([]byte, 2048)
	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < int(st.sent); i++ {
		n, src, err := rx.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		want := sch.addr(uint32(i / 2))
		wantLen, wantDir := 64, byte('U')
		if i%2 == 1 {
			wantLen, wantDir = 200, 'D'
		}
		if !src.IP.Equal(net.IP(want[:])) || src.Port != snd.port || n != wantLen || buf[0] != wantDir {
			t.Fatalf("datagram %d: from %v len %d dir %c, want from %v:%d len %d dir %c",
				i, src, n, buf[0], net.IP(want[:]), snd.port, wantLen, wantDir)
		}
	}
}

func TestSchedules(t *testing.T) {
	a, b := churnSchedule(3), churnSchedule(3)
	other := churnSchedule(4)
	same, differ := true, false
	for i := 0; i < 300; i++ {
		pa, pb, po := a.unit(i, nil), b.unit(i, nil), other.unit(i, nil)
		if len(pa) != churnTrain {
			t.Fatalf("unit %d has %d datagrams", i, len(pa))
		}
		for j := range pa {
			if pa[j] != pb[j] || a.addr(pa[j].client) != b.addr(pb[j].client) {
				same = false
			}
			if pa[j] != po[j] || a.addr(pa[j].client) != other.addr(po[j].client) {
				differ = true
			}
			if pa[j].client != uint32(i) || pa[j].size == 0 {
				t.Fatalf("unit %d datagram %d: %+v", i, j, pa[j])
			}
		}
	}
	if !same || !differ {
		t.Errorf("same seed same schedule: %v; other seed differs: %v", same, differ)
	}
	addrs := steadyAddrs(9, 40000)
	if len(addrs) != steadyClients {
		t.Fatalf("%d steady clients", len(addrs))
	}
	seen := map[[4]byte]bool{}
	table := flows.NewShardedTable(daemonShards, 10, 30, excr.DefaultSpace)
	for i, ad := range addrs {
		if ad[0] != 127 || ad[1] == 0 || ad[1] == 255 || seen[ad] {
			t.Errorf("bad or repeated client address %v", ad)
		}
		seen[ad] = true
		if w := table.ShardIndex(clientKey(ad, 40000)) % daemonWorkers; w != i%daemonWorkers {
			t.Errorf("client %d belongs to worker %d, want %d", i, w, i%daemonWorkers)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	use := func(n string) {
		if !metricName.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric BENCHMARK.json names is emitted: each end-to-end metric
// by every workload, each layer metric by at least one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts exboxd and runs every workload for a few seconds")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	layerSeen := map[string]bool{}
	for _, name := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, seconds: 3, trace: traced, setups: 1}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if out.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", name, traced, out.attempted)
			}
			for k, v := range out.metrics {
				if traced {
					layerSeen[k] = true
				}
				if v != v || v-v != 0 {
					t.Errorf("%s trace=%v: %s = %v", name, traced, k, v)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if v, ok := out.metrics[m.Name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v (present %v)", name, m.Name, v, ok)
					}
				}
			}
			// runOne is what rejects a metric the spec does not name.
			if _, err := renderOutcome(spec, name, cfg, out, io.Discard); err != nil {
				t.Errorf("%s trace=%v: %v", name, traced, err)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("no workload emitted layer metric %s", m.Name)
		}
	}
	for _, w := range []string{"fwd_steady", "churn", "admit_lib", "learn_online"} {
		if fi, err := os.Stat("out/trace-" + w + ".json"); err != nil || fi.Size() == 0 {
			t.Errorf("span file of %s: %v", w, err)
		}
	}
}
