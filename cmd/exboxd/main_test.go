package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"exbox/internal/excr"
	"exbox/internal/flows"
	"exbox/internal/obs"
	"exbox/internal/obs/trace"
)

func scrape(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

// metricValue pulls one scalar from a /metrics page.
func metricValue(page, name string) float64 {
	for _, line := range strings.Split(page, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// TestGatewayTelemetryEndToEnd boots the real gateway datapath with
// its telemetry endpoints on ephemeral ports, drives UDP flows long
// enough for admission decisions, and checks that the decisions are
// visible on /metrics, in the audit ring, and on the debug endpoints
// — the same wiring `exboxd -http :9090` serves.
func TestGatewayTelemetryEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	gw, err := newGateway("127.0.0.1:0", excr.DefaultSpace, gatewayOptions{shards: 8}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()

	done := make(chan struct{})
	var loops sync.WaitGroup
	gw.spawn(done, &loops)
	defer func() {
		close(done)
		loops.Wait()
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: reg.ServeMux()}
	go srv.Serve(ln)
	defer srv.Close()
	reg.PublishExpvar("exbox")
	base := "http://" + ln.Addr().String()

	// Four clients, each sending enough packets to fill the head
	// (HeadCap is 10) and force an admission decision.
	const clients, packets = 4, 14
	payload := make([]byte, 400)
	payload[0] = 'U'
	for c := 0; c < clients; c++ {
		conn, err := net.DialUDP("udp", nil, gw.conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < packets; p++ {
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond) // don't overrun the socket buffer
		}
		conn.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for gw.admitted.Value()+gw.rejected.Value() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d flows decided", gw.admitted.Value()+gw.rejected.Value(), clients)
		}
		time.Sleep(20 * time.Millisecond)
	}

	page := scrape(t, base, "/metrics")
	if got := metricValue(page, "exbox_gw_admitted_flows_total") + metricValue(page, "exbox_gw_rejected_flows_total"); got < clients {
		t.Fatalf("gateway decisions on /metrics = %v, want >= %d", got, clients)
	}
	if metricValue(page, "exbox_gw_forwarded_packets_total") <= 0 {
		t.Fatal("no forwarded packets on /metrics")
	}
	if got := metricValue(page, "exbox_cell_ap0_admit_total") + metricValue(page, "exbox_cell_ap0_reject_total"); got < clients {
		t.Fatalf("cell verdicts on /metrics = %v, want >= %d", got, clients)
	}
	if metricValue(page, "exbox_cell_ap0_clf_training_size") <= 0 {
		t.Fatal("classifier training-size gauge missing from /metrics")
	}
	if !strings.Contains(page, "exbox_admit_seconds_bucket{le=") {
		t.Fatal("admission-latency histogram missing from /metrics")
	}
	if metricValue(page, "exbox_flows_tracked_flows") <= 0 {
		t.Fatal("flow-table occupancy gauge missing from /metrics")
	}

	ring := gw.mb.AuditRing()
	if ring == nil || ring.Len() < clients {
		t.Fatalf("audit ring should hold the decisions, len=%d", ring.Len())
	}
	for _, rec := range ring.Snapshot() {
		if rec.Cell != string(cellID) || rec.Verdict == "" {
			t.Fatalf("malformed audit record: %+v", rec)
		}
	}
	if body := scrape(t, base, "/debug/admissions"); !strings.Contains(body, `"cell":"ap0"`) {
		t.Fatalf("/debug/admissions missing decisions: %.200s", body)
	}
	if body := scrape(t, base, "/debug/vars"); !strings.Contains(body, `"exbox"`) {
		t.Fatal("/debug/vars missing the published registry")
	}
	if body := scrape(t, base, "/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestGatewayTracingAndHealthEndToEnd boots the gateway with tracing
// on (sampling every flow), scrapes /metrics, /debug/traces and
// /debug/health concurrently with a live packet workload — the race
// detector covers the tracer's lock-free ring against the datapath —
// then forces a rejection (by pre-inflating the admitted matrix) and
// an expiry sweep, and checks /debug/traces serves at least one
// complete rejected-flow lifecycle and /debug/health a verdict.
func TestGatewayTracingAndHealthEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := trace.New(64, 1)
	gw, err := newGateway("127.0.0.1:0", excr.DefaultSpace, gatewayOptions{shards: 8}, reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()

	// Pre-inflate the admitted matrix with phantom flows in every class
	// so the real arrivals classify against a saturated cell and get
	// rejected whatever class the traffic classifier assigns them.
	for i := 0; i < 120; i++ {
		k := flows.Key{Src: "10.9.9.9", Dst: "sink", SrcPort: uint16(20000 + i), DstPort: 9, Proto: flows.UDP}
		gw.table.Do(k, func(tb *flows.Table) {
			f := tb.Observe(k, flows.PacketMeta{Time: 0, Bytes: 100, Up: true})
			f.Class, f.Classified = excr.AppClass(i%3), true
			f.Decided, f.Admitted = true, true
			gw.table.TrackAdmitted(f)
		})
	}
	// The bootstrap fit never saw matrices this crowded, so teach the
	// classifier the saturated region: oracle-labeled samples around the
	// inflated matrix (all negative — the cell is overrun), then a
	// synchronous retrain so the workload's decisions see the boundary.
	current := gw.table.Matrix()
	for i := 0; i < 30; i++ {
		m := current
		for j := 0; j < i%5; j++ {
			m = m.Dec(excr.AppClass(j%3), 0)
		}
		arr := excr.Arrival{Matrix: m, Class: excr.AppClass(i % 3), Level: 0}
		if err := gw.mb.Observe(cellID, excr.Sample{Arrival: arr, Label: gw.oracle.Label(arr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.mb.Cell(cellID).Classifier.Retrain(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var loops sync.WaitGroup
	gw.spawn(done, &loops)
	defer func() {
		close(done)
		loops.Wait()
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: reg.ServeMux()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Scrapers race the packet workers for the whole workload.
	stopScrape := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				for _, p := range []string{"/metrics", "/debug/traces", "/debug/health"} {
					if resp, err := http.Get(base + p); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	const clients, packets = 4, 14
	payload := make([]byte, 400)
	payload[0] = 'U'
	for c := 0; c < clients; c++ {
		conn, err := net.DialUDP("udp", nil, gw.conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < packets; p++ {
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		conn.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for gw.rejected.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for a rejection (admitted=%d rejected=%d)",
				gw.admitted.Value(), gw.rejected.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopScrape)
	scrapers.Wait()

	// Force every flow to expire so rejected traces complete with their
	// observe/expiry spans, then check the exported lifecycle.
	gw.sweep(1e9, new(workerState))
	gw.checkHealth()

	body := scrape(t, base, "/debug/traces?verdict=reject")
	var views []trace.View
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatalf("/debug/traces: %v (%.200s)", err, body)
	}
	if len(views) == 0 {
		t.Fatalf("no rejected traces on /debug/traces: %.300s", scrape(t, base, "/debug/traces"))
	}
	complete := false
	for _, v := range views {
		if !v.Complete {
			continue
		}
		kinds := map[trace.SpanKind]bool{}
		var model uint64
		for _, sp := range v.Spans {
			kinds[sp.Kind] = true
			if sp.Kind == trace.KindDecision {
				model = sp.Model
			}
		}
		if kinds[trace.KindArrival] && kinds[trace.KindDecision] && kinds[trace.KindExpiry] && model > 0 {
			complete = true
		}
	}
	if !complete {
		t.Fatalf("no complete rejected trace (arrival+decision+expiry with model version): %+v", views)
	}

	health := scrape(t, base, "/debug/health")
	var rep struct {
		Status string `json:"status"`
		Cells  []struct {
			Cell         string `json:"cell"`
			ModelVersion uint64 `json:"model_version"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(health), &rep); err != nil {
		t.Fatalf("/debug/health: %v (%.200s)", err, health)
	}
	if rep.Status == "" || len(rep.Cells) != 1 || rep.Cells[0].Cell != string(cellID) {
		t.Fatalf("unexpected /debug/health payload: %.300s", health)
	}
	if got := metricValue(scrape(t, base, "/metrics"), "exbox_health_status"); got < 0 || got > 2 {
		t.Fatalf("exbox_health_status gauge out of range: %v", got)
	}
}

// TestSNRStablePerClient pins the per-client SNR contract: every flow
// from one client address must land in the same SNR bin regardless of
// source port (link quality belongs to the host, not the socket).
func TestSNRStablePerClient(t *testing.T) {
	in := newInterner(burstGateway(t, 4))
	ip := netip.MustParseAddr("10.1.2.3")
	want := in.get(netip.AddrPortFrom(ip, 1000)).snr
	if want != snrFor("10.1.2.3") {
		t.Fatalf("interned SNR %v is not the address's bin %v", want, snrFor("10.1.2.3"))
	}
	for port := uint16(1001); port < 1064; port++ {
		if got := in.get(netip.AddrPortFrom(ip, port)).snr; got != want {
			t.Fatalf("client SNR changed with source port %d: %v != %v", port, got, want)
		}
	}
}

// TestValidateFlags sweeps the fail-fast flag validation: every
// rejected combination names the offending flag, every sane one
// passes.
func TestValidateFlags(t *testing.T) {
	// sane holds the passing default for every validated option; each
	// case overrides what it sweeps so new flags don't rewrite the table.
	type args = gatewayOptions
	sane := args{
		workers: 4, shards: 32, traceSample: 16,
		burst: 64, ringSize: 1024, sloObjective: 0.99,
		tsRes: time.Second, tsRetain: 15 * time.Minute, sloWindow: 15 * time.Minute,
	}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"tracing off", func(a *args) { a.traceSample = 0 }, ""},
		{"negative tracesample", func(a *args) { a.traceSample = -1 }, "-tracesample"},
		{"zero workers", func(a *args) { a.workers = 0 }, "-workers"},
		{"zero shards", func(a *args) { a.shards = 0 }, "-shards"},
		{"zero burst", func(a *args) { a.burst = 0 }, "-burst"},
		{"negative burst", func(a *args) { a.burst = -1 }, "-burst"},
		{"burst of one", func(a *args) { a.burst = 1 }, ""},
		{"ring smaller than burst", func(a *args) { a.ringSize = 32 }, "-ringsize"},
		{"ring equals burst", func(a *args) { a.ringSize = 64 }, ""},
		{"sloobj zero", func(a *args) { a.sloObjective = 0 }, "-sloobj"},
		{"sloobj one", func(a *args) { a.sloObjective = 1 }, "-sloobj"},
		{"sloobj three nines", func(a *args) { a.sloObjective = 0.999 }, ""},
		{"zero tsres", func(a *args) { a.tsRes = 0 }, "-tsres"},
		{"negative tsres", func(a *args) { a.tsRes = -time.Second }, "-tsres"},
		{"retention below resolution", func(a *args) { a.tsRetain = time.Millisecond }, "-tsretain"},
		{"coarse timeline", func(a *args) { a.tsRes, a.tsRetain = 10*time.Second, time.Hour }, ""},
		{"slo window too short", func(a *args) { a.sloWindow = 10 * time.Second }, "-slowindow"},
		{"slo window minimum", func(a *args) { a.sloWindow = 15 * time.Second }, ""},
	}
	for _, tc := range cases {
		a := sane
		tc.mut(&a)
		err := a.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want mention of %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestGatewayRFFOptions boots the gateway with the RFF tier enabled
// and checks the wiring end to end: the bootstrap fit ships a tier,
// /debug/health carries the rff_tier check, and the per-cell rff
// metrics exist.
func TestGatewayRFFOptions(t *testing.T) {
	reg := obs.NewRegistry()
	gw, err := newGateway("127.0.0.1:0", excr.DefaultSpace,
		gatewayOptions{shards: 8, rff: true}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	clf := gw.mb.Cell(cellID).Classifier
	if !clf.HealthEnabled() {
		t.Fatal("health monitoring not enabled")
	}
	snap, ok := clf.HealthSnapshot()
	if !ok {
		t.Fatal("no health snapshot")
	}
	if !snap.RFFActive || snap.RFFDemoted {
		t.Fatalf("bootstrap fit did not publish an active tier: %+v", snap)
	}
	rep := gw.mb.Health()
	found := false
	for _, chk := range rep.Cells[0].Checks {
		if chk.Name == "rff_tier" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rff_tier check missing from /debug/health: %+v", rep.Cells[0].Checks)
	}
	if reg.Counter("exbox_cell_ap0_clf_rff_demotions_total").Value() != 0 {
		t.Fatal("spurious demotion on the bootstrap fit")
	}
}
