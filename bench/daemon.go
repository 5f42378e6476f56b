package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Supervision of the real exboxd binary. The harness builds it once per
// run, starts it with the flags operators use, reads the addresses it
// announces from its log file, scrapes its /metrics page and /proc entry,
// and always kills and reaps it.

// outDir holds everything a run leaves behind (binary, daemon logs, span
// files); it is relative to the bench directory and ignored by git.
const outDir = "out"

// daemonFlags is the configuration under test; every flag not named keeps
// its shipped default (instrumented, tracing 1/16, latency sampling 1/16,
// SLO on, no flight dir, no RFF, no snapshots).
var daemonFlags = []string{
	"-demo=false", "-http", "127.0.0.1:0", "-workers", "2", "-shards", "32",
	"-burst", "64", "-ringsize", "1024", "-duration", "30m",
}

// The daemon's geometry, which the harness must know to balance fwd_steady
// and to replay the pipeline in-process.
const (
	daemonWorkers  = 2
	daemonShards   = 32
	daemonBurst    = 64
	daemonRingSize = 1024
)

// buildDaemon compiles cmd/exboxd from the enclosing repository into
// outDir. The go command's cache makes a rebuild of unchanged source cheap.
func buildDaemon() (string, error) {
	if _, err := os.Stat(filepath.Join("..", "cmd", "exboxd", "main.go")); err != nil {
		return "", fmt.Errorf("the benchmark runs from the bench directory of the exbox repository: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "exboxd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/exboxd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building exboxd: %w\n%s", err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd     *exec.Cmd
	logPath string
	gateway *net.UDPAddr
	metrics string        // URL of the /metrics page
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // valid after exited is closed
	setup   time.Duration // exec → first /metrics 200
	client  *http.Client
}

var (
	gatewayRe   = regexp.MustCompile(`gateway listening on (\S+),`)
	telemetryRe = regexp.MustCompile(`telemetry on (http://\S+/metrics)`)
)

// startDaemon runs bin and waits until it is ready: gateway and telemetry
// addresses announced and the first /metrics scrape answered. Output goes
// to a file, not a pipe: a pipe back-pressures the daemon's per-flow
// log.Printf and throttles the churn workload.
func startDaemon(bin, logPath string, pin *pinning) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonFlags...)
	cmd.Stdout, cmd.Stderr = logf, logf
	unpin := pin.forDaemon()
	t0 := time.Now()
	err = cmd.Start()
	unpin()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("starting exboxd: %w", err)
	}
	d := &daemon{
		cmd: cmd, logPath: logPath, exited: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second},
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(t0); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(t0 time.Time) error {
	deadline := t0.Add(20 * time.Second)
	for d.metrics == "" {
		if err := d.alive(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("exboxd did not announce its addresses within 20s")
		}
		log, err := os.ReadFile(d.logPath)
		if err != nil {
			return err
		}
		gw, tm := gatewayRe.FindSubmatch(log), telemetryRe.FindSubmatch(log)
		if gw == nil || tm == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if d.gateway, err = net.ResolveUDPAddr("udp4", string(gw[1])); err != nil {
			return fmt.Errorf("gateway address %q: %w", gw[1], err)
		}
		d.metrics = string(tm[1])
	}
	for {
		if _, err := d.scrape(); err == nil {
			d.setup = time.Since(t0)
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("first scrape: %w", err)
		}
		if err := d.alive(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// alive fails the run when the daemon has exited on its own.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		tail, _ := os.ReadFile(d.logPath)
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return fmt.Errorf("exboxd exited early (%v); log tail:\n%s", d.waitErr, tail)
	default:
		return nil
	}
}

// kill ends the daemon and waits until it has been reaped. exboxd has no
// signal handling, so SIGKILL after the final scrape loses nothing.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.exited
}

// scrape fetches and parses the /metrics page.
func (d *daemon) scrape() (promSample, error) {
	resp, err := d.client.Get(d.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", d.metrics, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// procSample is what /proc says about the daemon at one instant.
type procSample struct {
	user, sys time.Duration // cumulative CPU
	hwmMiB    float64       // peak resident set
	rssMiB    float64
}

// The kernel reports utime/stime in USER_HZ ticks, which is 100 on every
// Linux architecture.
const clockTick = time.Second / 100

func (d *daemon) proc() (procSample, error) {
	var ps procSample
	dir := "/proc/" + strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return ps, err
	}
	ps.user, ps.sys, err = parseProcStat(stat)
	if err != nil {
		return ps, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return ps, err
	}
	ps.hwmMiB = statusKiB(status, "VmHWM:") / 1024
	ps.rssMiB = statusKiB(status, "VmRSS:") / 1024
	return ps, nil
}

// parseProcStat extracts utime and stime (fields 14 and 15) from
// /proc/<pid>/stat. The command name, field 2, may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(stat []byte) (user, sys time.Duration, err error) {
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	return time.Duration(u) * clockTick, time.Duration(s) * clockTick, nil
}

// statusKiB returns the value of a "Key:   123 kB" line of /proc/<pid>/status.
func statusKiB(status []byte, key string) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// logSize is the size of the daemon's stdout+stderr file.
func (d *daemon) logSize() int64 {
	fi, err := os.Stat(d.logPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Names of the daemon counters the harness reads.
const (
	mForwarded = "exbox_gw_forwarded_packets_total"
	mDropped   = "exbox_gw_dropped_packets_total"
	mAdmitted  = "exbox_gw_admitted_flows_total"
	mRejected  = "exbox_gw_rejected_flows_total"
	mLate      = "exbox_gw_late_classified_total"
	mRingDrops = "exbox_ring_drops_total"
	mBurstSum  = "exbox_burst_size_sum"
	mBurstCnt  = "exbox_burst_size_count"
	mActive    = "exbox_flows_active_flows"
)

// processed is the number of datagrams the daemon's workers have settled:
// forwarded, or dropped because their flow was rejected.
func (p promSample) processed() float64 { return p[mForwarded] + p[mDropped] }

// quiesce scrapes until the daemon's packet counters stop moving, so that
// datagrams still queued when the generator stopped are counted, and
// returns the settled sample.
func (d *daemon) quiesce() (promSample, error) {
	prev, err := d.scrape()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 200; i++ {
		time.Sleep(20 * time.Millisecond)
		cur, err := d.scrape()
		if err != nil {
			return nil, err
		}
		if cur.processed() == prev.processed() && cur[mRingDrops] == prev[mRingDrops] {
			return cur, nil
		}
		prev = cur
	}
	return nil, errors.New("exboxd counters still moving 4s after the generator stopped")
}
