package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
)

// TestKillAndReplay is the crash-safety acceptance test: run the real
// exboxd binary under demo load with the flight recorder on, capture
// the live audit ring over HTTP, SIGKILL the process with no warning,
// and verify the on-disk journal reproduces every captured admission
// verdict bit for bit. A torn tail frame is acceptable (the kill can
// land mid-write); silent loss of a synced record is not.
func TestKillAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary; skipped in -short")
	}
	dir := t.TempDir()
	flightDir := filepath.Join(dir, "flight")
	exboxd := filepath.Join(dir, "exboxd")
	exlog := filepath.Join(dir, "exlog")
	for bin, pkg := range map[string]string{exboxd: "exbox/cmd/exboxd", exlog: "exbox/cmd/exlog"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	cmd := exec.Command(exboxd,
		"-flightdir", flightDir,
		"-http", "127.0.0.1:0",
		"-duration", "2m", // far beyond the test's horizon: only the kill ends it
		"-tsres", "250ms",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// The daemon announces its ephemeral port on stderr.
	addrCh := make(chan string, 1)
	go func() {
		re := regexp.MustCompile(`telemetry on http://([^/]+)/metrics`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("exboxd never announced its telemetry address")
	}

	// Wait until demo traffic has produced audited admissions (the
	// demo runs six generator flows, one admission each), then freeze
	// the ring contents as ground truth.
	var audit []obs.DecisionRecord
	deadline := time.Now().Add(30 * time.Second)
	for {
		audit = scrapeAudit(t, addr)
		if len(audit) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d audited admissions before deadline", len(audit))
		}
		time.Sleep(100 * time.Millisecond)
	}
	scrapeTimeline(t, addr)

	// Everything in the snapshot was pushed to the flight ring before
	// the audit record became visible; one writer flush cadence (100ms,
	// with margin) later it is fsynced. Then kill without warning.
	time.Sleep(600 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	recs, err := flightrec.ReadDir(flightDir)
	if err != nil && !errors.Is(err, flightrec.ErrTruncated) {
		t.Fatalf("ReadDir after kill: %v", err)
	}
	bySeq := make(map[uint64]flightrec.DecodedRecord)
	for _, rec := range recs {
		if rec.Kind == flightrec.KindAdmission {
			bySeq[rec.Seq] = rec
		}
	}
	if len(bySeq) < len(audit) {
		t.Fatalf("journal holds %d admissions, audit captured %d", len(bySeq), len(audit))
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
			t.Fatalf("seq %d: margin bits %x != %x", ar.Seq,
				math.Float64bits(jr.Value), math.Float64bits(ar.Margin))
		}
		if flightrec.VerdictString(jr.Verdict) != ar.Verdict {
			t.Fatalf("seq %d: verdict %q != %q", ar.Seq, flightrec.VerdictString(jr.Verdict), ar.Verdict)
		}
		if jr.CellName != ar.Cell || int(jr.Class) != ar.Class || int(jr.Level) != ar.Level {
			t.Fatalf("seq %d: identity (%q,%d,%d) != (%q,%d,%d)",
				ar.Seq, jr.CellName, jr.Class, jr.Level, ar.Cell, ar.Class, ar.Level)
		}
		if (jr.Flags&flightrec.FlagBootstrap != 0) != ar.Bootstrap {
			t.Fatalf("seq %d: bootstrap flag mismatch", ar.Seq)
		}
	}

	// The operator-facing path must agree: exlog run over the crashed
	// directory decodes without panicking and emits every captured seq.
	out, err := exec.Command(exlog, "-dir", flightDir, "-kind", "admission", "-json").Output()
	if err != nil {
		t.Fatalf("exlog over crashed dir: %v", err)
	}
	seen := make(map[uint64]bool)
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("exlog line %q: %v", sc.Text(), err)
		}
		seen[rec.Seq] = true
	}
	for _, ar := range audit {
		if !seen[ar.Seq] {
			t.Fatalf("exlog output missing audit seq %d", ar.Seq)
		}
	}
}

// TestSigtermGracefulShutdown is the signal-handling acceptance test:
// SIGTERM must end the real daemon the way -duration expiry does —
// exit status 0 with the deferred shutdown run to completion, i.e. the
// snapshot on disk and the flight journal flushed so that it reads
// cleanly to its end (no torn tail, unlike the SIGKILL case above),
// snapshot events included.
func TestSigtermGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary; skipped in -short")
	}
	dir := t.TempDir()
	flightDir, snapDir := filepath.Join(dir, "flight"), filepath.Join(dir, "snap")
	exboxd := filepath.Join(dir, "exboxd")
	exlog := filepath.Join(dir, "exlog")
	for bin, pkg := range map[string]string{exboxd: "exbox/cmd/exboxd", exlog: "exbox/cmd/exlog"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	cmd := exec.Command(exboxd,
		"-flightdir", flightDir,
		"-snapshotdir", snapDir,
		"-http", "127.0.0.1:0",
		"-duration", "2m", // far beyond the test's horizon: only the signal ends it
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	addrCh := make(chan string, 1)
	logCh := make(chan string, 1) // the daemon's whole stderr, once it has closed it
	go func() {
		re := regexp.MustCompile(`telemetry on http://([^/]+)/metrics`)
		var all strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			all.WriteString(sc.Text() + "\n")
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		logCh <- all.String()
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("exboxd never announced its telemetry address")
	}
	// Audited admissions mean the demo generators are running, which
	// main starts only after the signal handler is installed.
	deadline := time.Now().Add(30 * time.Second)
	for len(scrapeAudit(t, addr)) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no audited admissions before deadline")
		}
		time.Sleep(100 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var logs string
	select {
	case logs = <-logCh:
	case <-time.After(20 * time.Second):
		t.Fatal("exboxd still running 20s after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exboxd exit after SIGTERM: %v\n%s", err, logs)
	}
	if !strings.Contains(logs, "received terminated, shutting down") {
		t.Fatalf("shutdown log line missing:\n%s", logs)
	}
	if _, err := os.Stat(filepath.Join(snapDir, "ap0.snap")); err != nil {
		t.Fatalf("no snapshot after graceful shutdown: %v", err)
	}

	recs, err := flightrec.ReadDir(flightDir)
	if err != nil {
		t.Fatalf("journal does not read to its end after a graceful stop: %v", err)
	}
	kinds := make(map[flightrec.Kind]int)
	for _, rec := range recs {
		kinds[rec.Kind]++
	}
	if kinds[flightrec.KindAdmission] < 3 || kinds[flightrec.KindSnapshot] < 1 {
		t.Fatalf("journal lacks the admissions or the snapshot event: %v", kinds)
	}
	out, err := exec.Command(exlog, "-dir", flightDir, "-kind", "snapshot").Output()
	if err != nil || len(out) == 0 {
		t.Fatalf("exlog over the flushed journal: %v, %d bytes", err, len(out))
	}
}

func scrapeAudit(t *testing.T, addr string) []obs.DecisionRecord {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/admissions", addr))
	if err != nil {
		t.Fatalf("scrape admissions: %v", err)
	}
	defer resp.Body.Close()
	var recs []obs.DecisionRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("decode admissions: %v", err)
	}
	return recs
}

// scrapeTimeline smoke-checks the live timeline endpoint: well-formed
// JSON array with plausible series while the daemon is under load.
func scrapeTimeline(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/timeline", addr))
	if err != nil {
		t.Fatalf("scrape timeline: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d", resp.StatusCode)
	}
	var series []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatalf("decode timeline: %v", err)
	}
	for _, s := range series {
		if s.Name == "" || (s.Kind != "gauge" && s.Kind != "delta") {
			t.Fatalf("malformed timeline series: %+v", s)
		}
	}
}
