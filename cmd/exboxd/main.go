// Command exboxd runs ExBox as a live UDP middlebox on localhost: a
// gateway socket accepts client datagrams, tracks flows in a sharded
// flow table, classifies each flow from its first packets, and applies
// admission control with an Admittance Classifier pre-trained against
// a simulated cell. Admitted traffic is forwarded to an upstream sink;
// rejected flows are dropped at the gateway, exactly as Section 4.2
// describes.
//
// The datapath is burst-batched end to end: one read loop owns the
// ingress socket and publishes each datagram into the owning worker's
// bounded MPSC ring (hashed once on the 5-tuple; a full ring drops
// with a counter instead of back-pressuring the socket), workers
// drain up to -burst packets at a time and run each burst through
// grouped flow-table passes (one shard lock per touched shard) and
// one batched admission call. Flow state is partitioned across
// independently locked shards, the traffic matrix that conditions
// each admission decision is read lock-free from atomic counters,
// and SVM retraining runs on a background worker per cell.
// A periodic sweep goroutine expires idle flows, late-classifies
// short flows whose head never filled (the silence case), and
// re-evaluates admitted flows against the current matrix (Section 4.3
// dynamics).
//
// Usage:
//
//	exboxd [-listen 127.0.0.1:0] [-duration 10s] [-demo]
//	       [-workers N] [-shards N] [-burst N] [-ringsize N]
//	       [-mixedsnr] [-http addr]
//	       [-tracesample N] [-rff] [-snapshotdir DIR]
//	       [-flightdir DIR] [-tsres 1s] [-tsretain 15m]
//	       [-slowindow 15m] [-sloobj 0.99]
//
// With -demo (the default), built-in traffic generators emulate a mix
// of web, streaming and conferencing clients so the daemon is fully
// self-contained; without it, point any UDP sources at the printed
// gateway address. With -mixedsnr the daemon runs on the paper's
// 3-class x 2-SNR-level space, binning each client's (simulated)
// link quality into the matrix.
//
// With -rff each admission is scored through the random-Fourier-
// feature linearization of the RBF boundary (sub-microsecond instead
// of a walk over the support-vector slab); the model-health monitor
// compares the tier against exact scoring on every labeled sample and
// demotes back to the exact path when agreement drops below 0.9.
//
// With -snapshotdir the daemon persists each cell's learned model to
// DIR (atomically, one file per cell: after every background refit,
// on the periodic sweep, and on shutdown) and warm-boots from those
// files on the next start — restored cells serve admissions from the
// saved boundary immediately, with no cold refit. Corrupt or
// version-skewed files are rejected (counted in
// clf_snapshot_rejects_total and flagged on /debug/health) and the
// cell cold-starts.
//
// With -flightdir the daemon journals every admission verdict (with
// its margin and audit sequence number), health transition, retrain,
// snapshot event, ingest-ring drop burst and QoE SLO breach into
// crash-safe binary segment files in DIR. After any exit — including
// kill -9 — `exlog -dir DIR` reconstructs the post-mortem timeline
// from whatever was flushed. QoE SLO burn-rate accounting (objective
// -sloobj over the -slowindow sliding window, with a fast window at
// 1/15th of it) runs regardless and surfaces as the slo_burn check on
// /debug/health.
//
// With -http (e.g. -http :9090) the daemon serves its telemetry over
// HTTP: a plaintext /metrics page, the decision audit trail as
// /debug/admissions, windowed metric history as /debug/timeline
// (JSON; ?metric=, ?cell=, ?since= filters), expvar under
// /debug/vars, and net/http/pprof under /debug/pprof/. All counters,
// gauges and histograms come from one obs.Registry shared by the
// gateway, the middlebox core, the classifier and the flow table. The
// same server publishes each cell's encoded snapshot at
// /snapshot/{cell} with the fit sequence as ETag, so a cluster worker
// can poll cheaply with If-None-Match.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exbox/internal/classifier"
	"exbox/internal/exboxcore"
	"exbox/internal/excr"
	"exbox/internal/flowclass"
	"exbox/internal/flows"
	"exbox/internal/mathx"
	"exbox/internal/netsim"
	"exbox/internal/obs"
	"exbox/internal/obs/flightrec"
	"exbox/internal/obs/trace"
	"exbox/internal/obs/tsdb"
	"exbox/internal/ring"
	"exbox/internal/traffic"

	"exbox/internal/apps"
)

func main() {
	var opts gatewayOptions
	listen := flag.String("listen", "127.0.0.1:0", "gateway UDP listen address")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	demo := flag.Bool("demo", true, "spawn built-in demo traffic generators")
	flag.IntVar(&opts.workers, "workers", runtime.GOMAXPROCS(0), "packet-handling workers")
	flag.IntVar(&opts.shards, "shards", 32, "flow-table shards")
	flag.IntVar(&opts.burst, "burst", 64, "max packets a worker drains and processes per burst")
	flag.IntVar(&opts.ringSize, "ringsize", 1024, "per-worker ingest ring capacity (rounded up to a power of two)")
	mixed := flag.Bool("mixedsnr", false, "use the 3-class x 2-SNR-level space")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	flag.IntVar(&opts.traceSample, "tracesample", 16, "head-sample 1 in N flows for lifecycle tracing (1 = every flow, 0 = off)")
	flag.BoolVar(&opts.rff, "rff", false, "score admissions through the random-Fourier-feature tier (oracle-gated fallback to exact)")
	flag.StringVar(&opts.snapshotDir, "snapshotdir", "", "persist per-cell model snapshots to this directory and warm-boot from it on start")
	flightDir := flag.String("flightdir", "", "journal flight-recorder events (admissions, health, retrains, snapshots, SLO breaches) to segment files in this directory")
	flag.DurationVar(&opts.tsRes, "tsres", time.Second, "timeline sample resolution behind /debug/timeline")
	flag.DurationVar(&opts.tsRetain, "tsretain", 15*time.Minute, "timeline retention window")
	flag.DurationVar(&opts.sloWindow, "slowindow", 15*time.Minute, "QoE SLO slow burn-rate window (the fast window is 1/15th of it)")
	flag.Float64Var(&opts.sloObjective, "sloobj", 0.99, "QoE SLO objective: target good fraction of QoE ticks")
	flag.Parse()

	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if err := opts.validate(); err != nil {
		log.Fatalf("exboxd: %v", err)
	}

	space := excr.DefaultSpace
	if *mixed {
		space = excr.MixedSNRSpace
	}
	reg := obs.NewRegistry()
	revision, goVersion := buildIdentity()
	reg.Info("exbox_build_info", map[string]string{"revision": revision, "goversion": goVersion})
	log.Printf("exboxd build: revision %s, %s", revision, goVersion)
	var tracer *trace.Tracer
	if opts.traceSample > 0 {
		tracer = trace.New(traceRing, opts.traceSample)
	}

	// The flight recorder starts before the gateway and its stop is
	// deferred before gw.close — LIFO defers then guarantee the writer
	// outlives the shutdown snapshot sweep, so the final KindSnapshot
	// events reach the journal before the last fsync.
	if *flightDir != "" {
		opts.flight = flightrec.NewRecorder(0)
		frDone := make(chan struct{})
		frErr := make(chan error, 1)
		go func() { frErr <- opts.flight.RunWriter(flightrec.WriterConfig{Dir: *flightDir}, frDone) }()
		defer func() {
			close(frDone)
			if err := <-frErr; err != nil {
				log.Printf("flight recorder: %v", err)
			}
		}()
		log.Printf("flight recorder journaling to %s", *flightDir)
	}

	gw, err := newGateway(*listen, space, opts, reg, tracer)
	if err != nil {
		log.Fatalf("exboxd: %v", err)
	}
	defer gw.close()

	// The in-process timeline store: every registered metric sampled on
	// a fixed cadence into fixed-memory rings, served as JSON.
	timeline := tsdb.New(reg, tsdb.Config{Resolution: opts.tsRes, Retention: opts.tsRetain})
	log.Printf("gateway listening on %s, sink on %s (%d workers, %d shards, burst %d, ring %d, space %dx%d)",
		gw.conn.LocalAddr(), gw.sink.LocalAddr(), opts.workers, opts.shards, opts.burst, gw.rings[0].Cap(), space.Classes, space.Levels)

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("exboxd: telemetry listener: %v", err)
		}
		reg.PublishExpvar("exbox")
		mux := reg.ServeMux()
		mux.HandleFunc("/snapshot/", gw.serveSnapshot)
		mux.Handle("/debug/timeline", timeline.Handler())
		// ReadHeaderTimeout keeps a slow-header client from pinning a
		// connection forever; Serve's error no longer vanishes; Shutdown
		// (deferred, so it runs before gw.close) drains in-flight scrapes
		// instead of cutting them off with the listener.
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("telemetry server: %v", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("telemetry shutdown: %v", err)
			}
		}()
		log.Printf("telemetry on http://%s/metrics (also /debug/admissions, /debug/traces, /debug/health, /debug/timeline, /debug/vars, /debug/pprof/, /snapshot/{cell})", ln.Addr())
	}

	done := make(chan struct{})
	var loops sync.WaitGroup
	gw.spawn(done, &loops)
	loops.Add(1)
	go func() {
		defer loops.Done()
		gw.sweeper(done)
	}()
	loops.Add(1)
	go func() {
		defer loops.Done()
		timeline.Run(done)
	}()

	// The run ends when it has run its course (-duration, or the demo
	// generators finishing) or on SIGINT/SIGTERM; either way done closes,
	// the loops drain, and the deferred shutdown — HTTP drain, final
	// snapshot save, journal flush — runs.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	if *demo {
		var wg sync.WaitGroup
		rng := mathx.NewRand(time.Now().UnixNano())
		for i, class := range []excr.AppClass{
			excr.Web, excr.Streaming, excr.Conferencing,
			excr.Streaming, excr.Web, excr.Conferencing,
		} {
			wg.Add(1)
			go func(i int, class excr.AppClass, seed int64) {
				defer wg.Done()
				if err := sendTrace(gw.conn.LocalAddr().String(), class, *duration, seed, done); err != nil {
					log.Printf("generator %d (%v): %v", i, class, err)
				}
			}(i, class, rng.Int63())
		}
		go func() {
			wg.Wait()
			close(finished)
		}()
	} else {
		time.AfterFunc(*duration, func() { close(finished) })
	}
	select {
	case <-finished:
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
	}
	close(done)
	loops.Wait()
	gw.report()
}

// gateway is the UDP middlebox: one ingress socket shared by the
// packet workers, one upstream sink, a sharded flow table, a traffic
// classifier and the ExBox middlebox core. Statistics live in the
// shared obs registry — each is one atomic counter, so the workers
// never serialize on them, and the same numbers feed /metrics, the
// periodic stats line and the exit report.
type gateway struct {
	conn  *net.UDPConn
	sink  *net.UDPConn
	space excr.Space

	// The burst-batched ingest datapath: the read loop hashes each
	// datagram to its flow's shard, picks the worker owning that shard
	// (shard mod workers — a flow's packets always drain on one worker,
	// preserving per-flow order) and publishes into that worker's
	// bounded MPSC ring; a full ring drops the packet with a counter
	// instead of back-pressuring the socket. Workers drain up to burst
	// entries at a time and run the whole burst through two grouped
	// passes over the flow table plus one batched admission call.
	rings []*ring.MPSC[pkt]
	wake  []chan struct{} // one buffered wake signal per worker
	burst int

	table *flows.ShardedTable
	fc    *flowclass.Classifier
	mb    *exboxcore.Middlebox
	// oracle stands in for the QoE estimator's ground-truth feedback
	// in this self-contained demo: expired flows are labeled against
	// the simulated cell and fed back for online learning.
	oracle apps.Oracle
	start  time.Time
	// startNanos anchors the relative packet clock (seconds since start)
	// to wall time, so backfilled arrival spans carry real timestamps.
	startNanos int64

	// tracer is the flow-lifecycle tracer behind /debug/traces, nil when
	// tracing is off. lastHealth/healthSeen drive the transition log and
	// the exbox_health_status gauge the sweeper maintains.
	tracer     *trace.Tracer
	healthG    *obs.Gauge
	lastHealth exboxcore.HealthStatus
	healthSeen bool

	// flight mirrors the middlebox's recorder for the gateway's own
	// events: health transitions and ingest-ring drop deltas (nil = off).
	// lastRingDrops is the drop total already journaled.
	flight        *flightrec.Recorder
	lastRingDrops int64

	// snapDir is where snapshots persist ("" = off): the sweeper saves
	// periodically, close saves on shutdown, and the middlebox's retrain
	// workers save after every refit.
	snapDir string

	reg       *obs.Registry
	forwarded *obs.Counter // packets passed upstream
	dropped   *obs.Counter // packets of rejected flows dropped at the gate
	admitted  *obs.Counter // flows admitted
	rejected  *obs.Counter // flows rejected
	evicted   *obs.Counter // admitted flows discontinued by re-evaluation
	lateClass *obs.Counter // flows classified by the silence sweep
	expired   *obs.Counter // idle flows expired from the table
	feedback  *obs.Counter // labeled samples fed back for online learning
	admitLat  *obs.Histogram
	ingest    *obs.IngestMetrics // ring depth/drops and burst-size telemetry

	// The per-flow decision line is budgeted: applyDecision prints while
	// logLeft lasts and counts the rest in logSuppressed; the sweeper
	// refills logLeft every tick. Every decision is still in the audit
	// ring (/debug/admissions), the verdict counters and, with
	// -flightdir, the journal.
	logLeft       atomic.Int64
	logSuppressed *obs.Counter

	// noForwardIO makes processBurst account forwards without the sink
	// write. Benchmarks of the in-memory datapath set it so a per-packet
	// UDP syscall doesn't drown what they measure.
	noForwardIO bool
}

// pkt is one ingest-ring entry: the packet's metadata plus a pointer
// to its client's interned ingest state. Keeping the entry down to two
// words plus the metadata matters — every packet is copied into a ring
// slot and back out on drain, and the interned entry already carries
// the derived values (key, shard, SNR) the worker would otherwise
// recompute.
type pkt struct {
	ce   *clientEntry
	meta flows.PacketMeta
}

// clientEntry is the per-client ingest state the read loop interns on
// a client's first packet: the flow key built from its address, the
// key's shard slot, and the SNR level the AP reports for the station.
// Before interning, every packet paid an IP-string allocation, a key
// construction and a shard hash in the read loop; now a packet from a
// known client costs one map probe on its compact address.
type clientEntry struct {
	key   flows.Key
	snr   excr.SNRLevel
	shard int32
}

// clientAddr is the comparable compact form of a client address that
// keys the read loop's intern map.
type clientAddr struct {
	ip   [16]byte
	port int
}

// maxInternedClients bounds the read loop's intern map. When the cap
// is hit the map is dropped and rebuilt from live traffic — an
// amortized reset, not an LRU, because the map is a pure cache: losing
// it costs each active client one re-intern, never correctness.
const maxInternedClients = 1 << 16

// interner is the read loop's client cache. The one-entry memo in
// front of the map serves per-flow packet trains — UDP sources emit
// runs of back-to-back datagrams, so most probes are for the client
// the previous packet came from — and the map serves the interleave
// across clients.
type interner struct {
	gw      *gateway
	clients map[clientAddr]*clientEntry
	lastCA  clientAddr
	lastCE  *clientEntry
}

func newInterner(gw *gateway) *interner {
	return &interner{gw: gw, clients: make(map[clientAddr]*clientEntry)}
}

// get returns the interned ingest state for src, creating it on the
// client's first packet. A known client costs no allocation.
func (in *interner) get(src netip.AddrPort) *clientEntry {
	// As16 folds the 4-byte and IPv4-mapped 16-byte spellings of one
	// address (an AF_INET and a dual-stack socket report the same
	// client differently) into the same intern key.
	ca := clientAddr{ip: src.Addr().As16(), port: int(src.Port())}
	if in.lastCE != nil && ca == in.lastCA {
		return in.lastCE
	}
	ce := in.clients[ca]
	if ce == nil {
		// One string per new client, shared by the flow key and the SNR
		// bin: the dotted quad for either spelling of an IPv4 address,
		// and no zone — link quality and flow identity belong to the
		// address.
		ip := src.Addr().Unmap().WithZone("").String()
		key := flows.Key{
			Src: ip, Dst: "sink",
			SrcPort: src.Port(), DstPort: 9, Proto: flows.UDP,
		}
		// One hash at intern time: the shard slot both routes the
		// client's packets to their worker (shard mod workers keeps a
		// flow's packets in order on one worker) and is reused by the
		// drain path's grouped table pass.
		ce = &clientEntry{
			key:   key,
			snr:   snrFor(ip),
			shard: int32(in.gw.table.ShardIndex(key)),
		}
		if len(in.clients) >= maxInternedClients {
			in.clients = make(map[clientAddr]*clientEntry)
		}
		in.clients[ca] = ce
	}
	in.lastCA, in.lastCE = ca, ce
	return ce
}

const cellID = exboxcore.CellID("ap0")

// traceRing is how many flow traces the /debug/traces ring keeps.
const traceRing = 256

// gatewayOptions bundles the daemon's tunables — main parses the flags
// straight into it — that newGateway threads into the classifier, the
// ingest datapath and the telemetry layers: the budget-constrained RFF
// scoring tier, the ring/burst geometry, tracing and timeline sizing.
// In newGateway zero values pick the defaults, so tests can leave
// fields unset; validate judges the values the flags produced.
type gatewayOptions struct {
	rff         bool
	snapshotDir string
	shards      int // flow-table shards; <= 0 defaults to 32
	workers     int // ring count; <= 0 defaults to 1
	burst       int // max packets per drained burst; <= 0 defaults to 64
	ringSize    int // per-worker ring capacity; <= 0 defaults to 1024
	// Flow-lifecycle tracing (head-sample 1 in traceSample flows; 0 =
	// off) and the timeline store's resolution and retention. main
	// builds the tracer and the store from these; newGateway takes the
	// tracer ready-made.
	traceSample     int
	tsRes, tsRetain time.Duration
	// QoE SLO burn-rate accounting: zero values pick the SLOConfig
	// defaults (99% objective over a 15-minute slow window).
	sloObjective float64
	sloWindow    time.Duration
	// flight, when non-nil, journals admissions, health transitions,
	// retrains, snapshots and SLO breaches to the crash-safe recorder.
	flight *flightrec.Recorder
	// syncRetrain runs SVM fits inline in Observe instead of on the
	// cell's background worker. Production keeps the worker (fits must
	// never stall a packet); determinism tests set this so the model
	// version a decision sees does not depend on retrain timing.
	syncRetrain bool
}

// validate rejects nonsensical flag combinations before any socket is
// opened or goroutine started, so a typo'd invocation dies with one
// clear line instead of a zero-traffic run (or a divide/alloc panic
// deep in a worker). Pure so the table test can sweep it.
func (o gatewayOptions) validate() error {
	if o.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", o.workers)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if o.burst < 1 {
		return fmt.Errorf("-burst must be >= 1, got %d", o.burst)
	}
	if o.ringSize < o.burst {
		return fmt.Errorf("-ringsize must be >= -burst (%d), got %d", o.burst, o.ringSize)
	}
	if o.traceSample < 0 {
		return fmt.Errorf("-tracesample must be >= 0 (0 disables tracing), got %d", o.traceSample)
	}
	if o.sloObjective <= 0 || o.sloObjective >= 1 {
		return fmt.Errorf("-sloobj must be in (0, 1), got %g", o.sloObjective)
	}
	if o.tsRes <= 0 {
		return fmt.Errorf("-tsres must be > 0, got %v", o.tsRes)
	}
	if o.tsRetain < o.tsRes {
		return fmt.Errorf("-tsretain must be >= -tsres (%v), got %v", o.tsRes, o.tsRetain)
	}
	if o.sloWindow < 15*time.Second {
		return fmt.Errorf("-slowindow must be >= 15s (the fast window is 1/15th of it), got %v", o.sloWindow)
	}
	return nil
}

// buildIdentity reports the VCS revision and Go toolchain this binary
// was built from, for the exbox_build_info metric and the startup log.
func buildIdentity() (revision, goVersion string) {
	revision, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
				if len(revision) > 12 {
					revision = revision[:12]
				}
			}
		}
	}
	return revision, goVersion
}

// classifySilence is how long a flow with an unfilled head must stay
// quiet before the sweep classifies it anyway (the silence case).
const classifySilence = 2.0 // seconds

func newGateway(listen string, space excr.Space, opts gatewayOptions, reg *obs.Registry, tracer *trace.Tracer) (*gateway, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		conn.Close()
		return nil, err
	}

	// Train the flow classifier on synthetic per-class traces and the
	// admittance classifier against the simulated cell's ground truth
	// (the operator's bootstrap, done offline here for a snappy demo).
	rng := mathx.NewRand(7)
	fc, err := flowclass.Train(
		[]excr.AppClass{excr.Web, excr.Streaming, excr.Conferencing}, 40, 10, rng)
	if err != nil {
		conn.Close()
		sink.Close()
		return nil, fmt.Errorf("training flow classifier: %w", err)
	}
	mb := exboxcore.New(space, exboxcore.Discontinue)
	cfg := classifier.DefaultConfig()
	// Live gateway: batch SVM fits happen on the cell's background
	// worker, never on a packet worker, and each refit is seeded from
	// the previous boundary so the worker keeps up with the paper's
	// retrain-every-batch cadence.
	cfg.DeferRetrain = !opts.syncRetrain
	cfg.WarmStart = true
	// The RFF tier trades the exact SV-slab walk for a sub-microsecond
	// linearized score on every admission; the health monitor's oracle
	// gate demotes back to exact scoring if the tier misbehaves.
	cfg.SVM.RFF = opts.rff
	if _, err := mb.AddCell(cellID, cfg); err != nil {
		conn.Close()
		sink.Close()
		return nil, err
	}
	// Instrument before the bootstrap training below so the fit
	// metrics and training-size gauge cover it too. The tracer and the
	// health verdict hang off the same registry: /debug/traces serves
	// the tracer's ring, /debug/health the middlebox's report.
	mb.Instrument(reg, 256)
	mb.InstrumentTracing(tracer)
	mb.EnableSLO(exboxcore.SLOConfig{Objective: opts.sloObjective, SlowWindow: opts.sloWindow})
	if opts.flight != nil {
		mb.InstrumentFlightRecorder(opts.flight)
	}
	reg.SetTracer(tracer)
	reg.SetHealth(func() interface{} { return mb.Health() })
	oracle := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.TestbedWiFi()}}

	// Warm boot: restore the cell's learned boundary from the snapshot
	// directory when one is configured. A restored online cell serves
	// admissions from the saved fit immediately — the offline bootstrap
	// below is skipped entirely, so a warm boot performs zero cold
	// refits. A missing, corrupt or version-skewed file falls through to
	// the cold path (rejects are counted and flagged on /debug/health).
	warmBooted := false
	if opts.snapshotDir != "" {
		if err := os.MkdirAll(opts.snapshotDir, 0o755); err != nil {
			conn.Close()
			sink.Close()
			return nil, fmt.Errorf("snapshot dir: %w", err)
		}
		mb.EnableSnapshotPersistence(opts.snapshotDir)
		n, err := mb.LoadSnapshots(opts.snapshotDir)
		if err != nil {
			log.Printf("snapshot load: %v", err)
		}
		if n > 0 && !mb.Cell(cellID).Classifier.Bootstrapping() {
			warmBooted = true
			log.Printf("warm boot: restored %s from %s (model v%d)",
				cellID, opts.snapshotDir, mb.Cell(cellID).Classifier.ModelVersion())
		}
	}
	if !warmBooted {
		var assign func(excr.AppClass) excr.SNRLevel
		if space.Levels > 1 {
			assign = traffic.RandomLevels(rng, space)
		}
		for _, e := range traffic.Arrivals(traffic.Random(rng, 30, 10, 10, space), assign) {
			if err := mb.Observe(cellID, excr.Sample{Arrival: e.Arrival, Label: oracle.Label(e.Arrival)}); err != nil {
				conn.Close()
				sink.Close()
				return nil, err
			}
		}
		if mb.Cell(cellID).Classifier.Bootstrapping() {
			// Deferred retraining leaves graduation to the worker; the demo
			// wants admission control active from the first packet.
			if err := mb.Cell(cellID).Classifier.ForceOnline(); err != nil {
				conn.Close()
				sink.Close()
				return nil, err
			}
		}
	}

	// One registry wires every layer: the middlebox core (audit ring,
	// admission latency, per-cell classifier metrics), the flow table
	// (occupancy, expiries) and the gateway's own packet/flow counters.
	table := flows.NewShardedTable(opts.shards, 10, 30, space)
	table.Instrument(reg, "exbox_flows")

	// The ingest rings: one bounded MPSC per worker, plus the wake
	// signal the read loop taps after each publish. The depth gauge
	// sums occupancy across all rings at scrape time.
	if opts.workers <= 0 {
		opts.workers = 1
	}
	if opts.burst <= 0 {
		opts.burst = 64
	}
	if opts.ringSize <= 0 {
		opts.ringSize = 1024
	}
	rings := make([]*ring.MPSC[pkt], opts.workers)
	wake := make([]chan struct{}, opts.workers)
	for i := range rings {
		rings[i] = ring.New[pkt](opts.ringSize)
		wake[i] = make(chan struct{}, 1)
	}
	ingest := obs.NewIngestMetrics(reg, func() int64 {
		var d int64
		for _, r := range rings {
			d += int64(r.Depth())
		}
		return d
	})

	start := time.Now()
	gw := &gateway{
		conn:       conn,
		sink:       sink,
		space:      space,
		rings:      rings,
		wake:       wake,
		burst:      opts.burst,
		table:      table,
		fc:         fc,
		mb:         mb,
		oracle:     oracle,
		start:      start,
		startNanos: start.UnixNano(),
		tracer:     tracer,
		healthG:    reg.Gauge("exbox_health_status"),
		flight:     opts.flight,
		snapDir:    opts.snapshotDir,
		reg:        reg,
		forwarded:  reg.Counter("exbox_gw_forwarded_packets_total"),
		dropped:    reg.Counter("exbox_gw_dropped_packets_total"),
		admitted:   reg.Counter("exbox_gw_admitted_flows_total"),
		rejected:   reg.Counter("exbox_gw_rejected_flows_total"),
		evicted:    reg.Counter("exbox_gw_discontinued_flows_total"),
		lateClass:  reg.Counter("exbox_gw_late_classified_total"),
		// The flow table already counts expiries; the gateway reads the
		// same counter instead of keeping a shadow copy.
		expired:  reg.Counter("exbox_flows_expired_total"),
		feedback: reg.Counter("exbox_gw_feedback_samples_total"),
		admitLat: reg.Histogram("exbox_admit_seconds", nil),
		ingest:   ingest,

		logSuppressed: reg.Counter("exbox_gw_decision_lines_suppressed_total"),
	}
	gw.logLeft.Store(decisionLogBudget)
	return gw, nil
}

func (g *gateway) close() {
	g.conn.Close()
	g.sink.Close()
	g.mb.Close()
	// Final save after the retrain workers stopped: whatever the last
	// fit and training window were, the next start warm-boots from them.
	if g.snapDir != "" {
		if n, err := g.mb.SaveSnapshots(g.snapDir); err != nil {
			log.Printf("snapshot save: %v", err)
		} else if n > 0 {
			log.Printf("saved %d cell snapshot(s) to %s", n, g.snapDir)
		}
	}
}

// saveSnapshots is the sweeper's periodic persistence pass; unchanged
// cells cost an export but no write.
func (g *gateway) saveSnapshots() {
	if g.snapDir == "" {
		return
	}
	if _, err := g.mb.SaveSnapshots(g.snapDir); err != nil {
		log.Printf("snapshot save: %v", err)
	}
}

// serveSnapshot publishes /snapshot/{cell}: the cell's latest encoded
// snapshot with the fit sequence as ETag, so a subscriber polls with
// If-None-Match and pays nothing while the model hasn't changed.
func (g *gateway) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/snapshot/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	data, seq, err := g.mb.EncodeCellSnapshot(exboxcore.CellID(id))
	if err != nil {
		if errors.Is(err, exboxcore.ErrUnknownCell) {
			http.NotFound(w, r)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	etag := fmt.Sprintf("%q", fmt.Sprint(seq))
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// start spawns the ingest datapath: one socket read loop plus the
// ring-draining workers. main and the end-to-end tests share it, so
// the goroutine topology under test is the production one.
func (g *gateway) spawn(done chan struct{}, loops *sync.WaitGroup) {
	loops.Add(1)
	go func() {
		defer loops.Done()
		g.readLoop()
	}()
	// The read loop blocks in the socket read with no deadline; one
	// deadline in the past, set when done closes, is what ends it.
	loops.Add(1)
	go func() {
		defer loops.Done()
		<-done
		_ = g.conn.SetReadDeadline(time.Unix(1, 0)) // fails only on a closed socket, which ends the loop too
	}()
	for w := range g.rings {
		loops.Add(1)
		go func(w int) {
			defer loops.Done()
			g.worker(w, done)
		}(w)
	}
}

// readLoop owns the ingress socket: read a datagram, intern its
// client (key, shard and SNR are derived once per client, not once per
// packet), publish it on the owning worker's ring, and tap the
// worker's wake signal when the worker may be parked. A full ring
// drops the packet with a counter — bounded queues and explicit loss,
// never unbounded buffering. The wake signal is only sent when the
// push landed on the slot the consumer's cursor points at (see
// ring.TryPushWake); every other push already has a drain pass
// guaranteed by the entries queued ahead of it.
//
// The loop arms no deadline and allocates nothing per datagram; it ends
// on the first read error — the expired deadline spawn sets at
// shutdown, or a closed socket.
func (g *gateway) readLoop() {
	buf := make([]byte, 64*1024)
	nw := len(g.rings)
	in := newInterner(g)
	for {
		n, src, err := g.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		up := n > 0 && buf[0] == 'U'
		ce := in.get(src)
		w := int(ce.shard) % nw
		p := pkt{
			ce:   ce,
			meta: flows.PacketMeta{Time: time.Since(g.start).Seconds(), Bytes: n, Up: up},
		}
		pushed, wake := g.rings[w].TryPushWake(p)
		if !pushed {
			g.ingest.Drops.Inc()
			continue
		}
		if wake {
			select {
			case g.wake[w] <- struct{}{}:
			default:
			}
		}
	}
}

// worker drains its ring in bursts and runs each burst through the
// batched pipeline. An empty ring parks on the wake signal; the read
// loop taps it after every publish, so the handoff is one buffered
// channel operation per burst in steady state, not one per packet.
func (g *gateway) worker(w int, done chan struct{}) {
	ws := newWorkerState(g.burst)
	for {
		n := g.rings[w].Drain(ws.pkts)
		if n == 0 {
			select {
			case <-done:
				return
			case <-g.wake[w]:
			}
			continue
		}
		g.processBurst(ws, ws.pkts[:n])
	}
}

// workerState is one worker's reusable workspace: the drain buffer and
// every scratch the burst pipeline needs. Nothing in it is shared, so
// the steady-state burst path allocates only what the admission layer
// itself allocates (matrix snapshots and audit records).
type workerState struct {
	pkts    []pkt
	bsc     flows.BatchScratch
	burst   exboxcore.BurstScratch
	cands   []exboxcore.BurstCandidate
	conf    []float64 // classifier confidence per candidate, for the log line
	candIdx []int32   // packet index -> candidate index, -1 when none
	outs    []exboxcore.Outcome
	forward []bool
	payload []byte // forwarding buffer (the sink only sees sizes)
}

func newWorkerState(burst int) *workerState {
	return &workerState{
		pkts:    make([]pkt, burst),
		candIdx: make([]int32, burst),
		forward: make([]bool, burst),
		payload: make([]byte, 64*1024),
	}
}

// processBurst is the batched datapath for one drained burst:
//
//  1. One grouped pass over the flow table (each touched shard locked
//     once): account every packet, set up first-packet SNR/tracing,
//     classify flows whose head filled, and collect the admission
//     candidates in visit order.
//  2. One AdmitBurst call: the middlebox replays the per-packet matrix
//     dynamics across the burst's candidates against a single matrix
//     snapshot plus the burst's own admits.
//  3. Only when the burst produced candidates, a second grouped pass
//     (applyDecisions) applies each decision under the shard lock and
//     resettles the forward/drop verdicts; candidate-free bursts are
//     done after one pass.
//
// Within a shard, packets are processed in arrival order; a flow's
// packets all map to one shard, so per-flow semantics do not depend on
// the burst size (see flows/batch.go for the ordering contract).
func (g *gateway) processBurst(ws *workerState, pkts []pkt) {
	n := len(pkts)
	g.ingest.BurstSize.Observe(float64(n))
	ws.cands = ws.cands[:0]
	ws.conf = ws.conf[:0]
	candIdx := ws.candIdx[:n]
	for i := range candIdx {
		candIdx[i] = -1
	}
	forward := ws.forward[:n]

	// Same-flow memo: UDP traffic arrives in per-flow packet trains, and
	// the grouped pass keeps a train's packets adjacent under one
	// continuously held shard lock — so the previous packet's flow is
	// reusable for the next without a lookup. Pointer-equal interned
	// client entries prove the keys equal, so not even a key comparison
	// is needed (flows.ObserveOwned). The memo resets whenever the
	// visit moves to another shard (a different table, a different
	// lock).
	var lastT *flows.Table
	var lastCE *clientEntry
	var lastF *flows.Flow
	g.table.DoBatch(&ws.bsc, n,
		func(i int) int { return int(pkts[i].ce.shard) },
		func(i int, t *flows.Table) {
			p := &pkts[i]
			if t != lastT {
				lastT, lastCE, lastF = t, nil, nil
			}
			var f *flows.Flow
			if p.ce == lastCE {
				f = lastF
				t.ObserveOwned(f, p.meta)
			} else {
				f = t.Observe(p.ce.key, p.meta)
				lastCE, lastF = p.ce, f
			}
			if f.Packets == 1 {
				// The AP/eNodeB reports each client's link quality; the
				// demo derives a stable per-client SNR from its address.
				f.SNR = p.ce.snr
				// Head sampling: the tracing decision for the flow's whole
				// lifecycle is made here, once, from the key hash. Unsampled
				// flows leave f.Trace nil and never touch the tracer again.
				if id := traceID(f.Key); g.tracer.Sampled(id) {
					f.Trace = g.tracer.Start(id, string(cellID), -1, int(f.SNR), "sampled")
					f.Trace.Add(trace.Span{Kind: trace.KindArrival, UnixNanos: g.startNanos + int64(p.meta.Time*1e9)})
				}
			}
			if f.ReadyToClassify(t.HeadCap) {
				if cand, conf, ok := g.classify(t, f); ok {
					candIdx[i] = int32(len(ws.cands))
					ws.cands = append(ws.cands, cand)
					ws.conf = append(ws.conf, conf)
				}
			}
			// Settle the verdict from the flow's current state; when this
			// burst produces decisions, the second pass recomputes every
			// slot after they are applied.
			forward[i] = !(f.Decided && !f.Admitted)
		})

	// Candidate-free bursts — the steady state once long-lived flows are
	// decided — are done: every verdict above is final, so the second
	// table pass (and its per-packet flow lookup) is skipped entirely.
	if len(ws.cands) > 0 {
		var err error
		ws.outs, err = g.mb.AdmitBurst(cellID, g.table.Matrix(), ws.cands, ws.outs, &ws.burst)
		if err != nil {
			log.Printf("admit burst: %v", err)
			ws.cands = ws.cands[:0]
		}
		g.applyDecisions(ws, pkts, candIdx, forward)
	}

	sinkAddr := g.sink.LocalAddr().(*net.UDPAddr)
	nfwd := 0
	for i := range pkts {
		if !forward[i] {
			continue
		}
		nfwd++
		size := pkts[i].meta.Bytes
		if size > len(ws.payload) {
			size = len(ws.payload)
		}
		if size > 0 && !g.noForwardIO {
			if _, err := g.conn.WriteToUDP(ws.payload[:size], sinkAddr); err != nil {
				log.Printf("forward: %v", err)
			}
		}
	}
	// One counter add per burst, not one per packet.
	g.forwarded.Add(int64(nfwd))
	g.dropped.Add(int64(n - nfwd))
}

// applyDecisions is the burst pipeline's second grouped pass, run only
// when the burst produced admission candidates: apply each decision to
// its flow under the shard lock and resettle every packet's
// forward/drop verdict — packets behind a rejection in the same burst
// are dropped, as they would be had the decisions been made
// synchronously.
func (g *gateway) applyDecisions(ws *workerState, pkts []pkt, candIdx []int32, forward []bool) {
	g.table.DoBatch(&ws.bsc, len(pkts),
		func(i int) int { return int(pkts[i].ce.shard) },
		func(i int, t *flows.Table) {
			p := &pkts[i]
			f := t.Get(p.ce.key)
			if f == nil {
				// Expired between the passes by a concurrent sweep; the
				// packet has nothing to be dropped for.
				forward[i] = true
				return
			}
			if ci := candIdx[i]; ci >= 0 && int(ci) < len(ws.outs) {
				g.applyDecision(f, ws.outs[ci], ws.conf[ci])
			}
			// Pre-decision packets pass (classification needs them);
			// after the decision, rejected flows are dropped at the gate.
			forward[i] = !(f.Decided && !f.Admitted)
		})
}

// classify runs traffic classification for a flow whose head filled
// (processBurst) or that went quiet before it did (the silence sweep)
// and returns its admission candidate with the classifier's
// confidence; the flow's head goes back to its table t. Caller holds
// the flow's shard lock.
func (g *gateway) classify(t *flows.Table, f *flows.Flow) (exboxcore.BurstCandidate, float64, bool) {
	class, conf, err := g.fc.ClassifyFlow(f)
	if err != nil {
		return exboxcore.BurstCandidate{}, 0, false
	}
	t.MarkClassified(f, class)
	if f.Trace != nil {
		f.Trace.SetClass(int(class))
		f.Trace.Add(trace.Span{
			Kind: trace.KindClassify, UnixNanos: time.Now().UnixNano(),
			Note: fmt.Sprintf("%v p=%.2f", class, conf),
		})
	}
	return exboxcore.BurstCandidate{Class: class, Level: g.level(f.SNR), Trace: f.Trace}, conf, true
}

// applyDecision is the one place an AdmitBurst outcome lands on its
// flow, for head-filled and silence-classified flows alike: the
// verdict, the gateway counters, the admitted-traffic matrix, trace
// promotion on a rejection, and the (budgeted) per-flow log line.
// Caller holds the flow's shard lock.
func (g *gateway) applyDecision(f *flows.Flow, out exboxcore.Outcome, conf float64) {
	f.Decided = true
	f.Admitted = out.Verdict == exboxcore.Admit
	if f.Admitted {
		g.admitted.Inc()
		g.table.TrackAdmitted(f)
	} else {
		g.rejected.Inc()
		// Rejections are always worth a trace: promote the flow past
		// head sampling, backfilling the arrival and decision spans so
		// the exported trace is complete.
		if f.Trace == nil && g.tracer != nil {
			f.Trace = g.tracer.Promote(traceID(f.Key), string(cellID), int(f.Class), int(g.level(f.SNR)),
				"rejected", g.startNanos+int64(f.FirstSeen*1e9))
			f.Trace.Add(exboxcore.DecisionSpan(time.Now().UnixNano(), 0, out))
		}
	}
	if g.logLeft.Add(-1) < 0 {
		g.logSuppressed.Inc()
		return
	}
	log.Printf("flow %s classified %v (p=%.2f) snr=%v -> %v (margin %.2f)",
		f.Key, f.Class, conf, f.SNR, out.Verdict, out.Decision.Margin)
}

// decisionLogBudget is how many per-flow decision lines applyDecision
// may print per sweeper tick (500 ms). A console's worth of flows —
// the six-flow demo — prints every line; under churn the line costs
// more than the decision it reports, so the rest are only counted
// (log_suppressed on the stats line).
const decisionLogBudget = 8

// level collapses a flow's SNR into the space the middlebox runs on,
// the same rule ReevaluateWith applies.
func (g *gateway) level(snr excr.SNRLevel) excr.SNRLevel {
	if g.space.Levels == 1 {
		return 0
	}
	return snr
}

// traceID hashes a flow key into a trace ID without allocating (the
// fmt-based Key.String would): a manual FNV-64a over the key's fields,
// run once per flow on its first packet.
func traceID(k flows.Key) trace.ID {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(k.Src)
	mix(k.Dst)
	h ^= uint64(k.SrcPort)
	h *= prime
	h ^= uint64(k.DstPort)
	h *= prime
	h ^= uint64(k.Proto)
	h *= prime
	return trace.ID(h)
}

// snrFor bins a client into an SNR level deterministically from its
// IP address alone, standing in for the link quality a real AP would
// report. Link quality belongs to the radio, i.e. the host — hashing
// the source port too would hand every flow from one client its own
// SNR, which is not how a station's channel behaves.
func snrFor(ip string) excr.SNRLevel {
	h := fnv.New32a()
	h.Write([]byte(ip))
	if h.Sum32()%4 == 0 {
		return excr.SNRLow
	}
	return excr.SNRHigh
}

// sweeper is the periodic maintenance goroutine: late-classify silent
// short flows, expire idle flows (feeding their labels back for online
// learning), and re-evaluate admitted flows against the current
// matrix, discontinuing the ones whose classification turned negative.
func (g *gateway) sweeper(done chan struct{}) {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	// The sweeper's own burst workspace (the zero value grows on
	// demand): late admission reuses it tick after tick.
	var ws workerState
	n := 0
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			g.logLeft.Store(decisionLogBudget)
			g.sweep(time.Since(g.start).Seconds(), &ws)
			if n++; n%10 == 0 {
				g.logStats()
				g.checkHealth()
				g.saveSnapshots()
			}
		}
	}
}

// checkHealth recomputes the middlebox health verdict, mirrors it into
// the exbox_health_status gauge (0 green, 1 yellow, 2 red) and logs
// transitions — the operator sees the flip, not a heartbeat.
func (g *gateway) checkHealth() {
	rep := g.mb.Health()
	g.healthG.Set(int64(rep.Status))
	if g.flight != nil {
		// Journal ingest-ring drops as batched deltas at health cadence —
		// one record per burst of loss, never one per dropped packet.
		if d := g.ingest.Drops.Value(); d > g.lastRingDrops {
			g.flight.Record(flightrec.Record{
				UnixNanos: rep.UnixNanos,
				Kind:      flightrec.KindRingDrop,
				Value:     float64(d - g.lastRingDrops),
				Aux:       float64(d),
			})
			g.lastRingDrops = d
		}
	}
	if g.healthSeen && rep.Status == g.lastHealth {
		return
	}
	if g.flight != nil {
		prev := float64(g.lastHealth)
		if !g.healthSeen {
			prev = -1 // no prior observation
		}
		g.flight.Record(flightrec.Record{
			UnixNanos: rep.UnixNanos,
			Kind:      flightrec.KindHealth,
			Value:     float64(rep.Status),
			Aux:       prev,
		})
	}
	var checks []string
	for _, c := range rep.Checks {
		if c.Status != exboxcore.Green {
			checks = append(checks, fmt.Sprintf("%s=%.3g", c.Name, c.Value))
		}
	}
	for _, cell := range rep.Cells {
		for _, c := range cell.Checks {
			if c.Status != exboxcore.Green {
				checks = append(checks, fmt.Sprintf("%s/%s=%.3g", cell.Cell, c.Name, c.Value))
			}
		}
	}
	if g.healthSeen {
		log.Printf("health: %v -> %v %v", g.lastHealth, rep.Status, checks)
	} else {
		log.Printf("health: %v", rep.Status)
	}
	g.lastHealth, g.healthSeen = rep.Status, true
}

// logStats emits the periodic one-line gateway summary from the same
// registry the /metrics page serves.
func (g *gateway) logStats() {
	log.Printf("stats: fwd=%d drop=%d admit=%d reject=%d discont=%d expired=%d late=%d feedback=%d tracked=%d admit_p50=%.3gs p99=%.3gs ring_drops=%d burst_p50=%.3g p99=%.3g log_suppressed=%d",
		g.forwarded.Value(), g.dropped.Value(), g.admitted.Value(),
		g.rejected.Value(), g.evicted.Value(), g.expired.Value(),
		g.lateClass.Value(), g.feedback.Value(), g.table.Len(),
		g.admitLat.Quantile(0.5), g.admitLat.Quantile(0.99),
		g.ingest.Drops.Value(), g.ingest.BurstSize.Quantile(0.5), g.ingest.BurstSize.Quantile(0.99),
		g.logSuppressed.Value())
}

func (g *gateway) sweep(now float64, ws *workerState) {
	// Silence case: classify short flows whose head never filled under
	// the shard locks, then decide them exactly as processBurst decides
	// head-filled flows — one AdmitBurst outside any shard lock, each
	// outcome applied under its flow's lock.
	ws.cands, ws.conf = ws.cands[:0], ws.conf[:0]
	var silent []flows.Key
	quiet := func(f *flows.Flow) bool { return f.ReadyBySilence(now, classifySilence) }
	g.table.Sweep(func(t *flows.Table) {
		for _, f := range t.Select(quiet) {
			if cand, conf, ok := g.classify(t, f); ok {
				ws.cands = append(ws.cands, cand)
				ws.conf = append(ws.conf, conf)
				silent = append(silent, f.Key)
				g.lateClass.Inc()
			}
		}
	})
	if len(silent) > 0 {
		var err error
		if ws.outs, err = g.mb.AdmitBurst(cellID, g.table.Matrix(), ws.cands, ws.outs, &ws.burst); err != nil {
			log.Printf("admit burst: %v", err)
			silent = nil
		}
		for i, k := range silent {
			g.table.Do(k, func(t *flows.Table) {
				// Only this goroutine expires flows and the flow is
				// already marked classified, so it is still here and
				// still undecided.
				if f := t.Get(k); f != nil {
					g.applyDecision(f, ws.outs[i], ws.conf[i])
				}
			})
		}
	}

	// Expire idle flows (the table counts the expiries); their observed
	// tuples (labeled by the demo oracle, standing in for the QoE
	// estimator) drive online learning on the cell's background
	// retrainer. Rejected flows expire too — the gateway stops
	// refreshing their activity once the drop decision is made — so
	// negative outcomes feed the training set just like positives.
	// The whole expiry batch goes through ObserveBatch: one
	// training-lock hold and one retrain kick per sweep instead of one
	// per expired flow.
	current := g.table.Matrix()
	expired := g.table.Expire(now)
	var samples []excr.Sample
	var traces []*trace.FlowTrace
	for _, f := range expired {
		if f.Classified {
			arr := excr.Arrival{Matrix: current, Class: f.Class, Level: g.level(f.SNR)}
			samples = append(samples, excr.Sample{Arrival: arr, Label: g.oracle.Label(arr)})
			traces = append(traces, f.Trace)
		}
	}
	if len(samples) > 0 {
		_ = g.mb.ObserveBatch(cellID, samples, traces)
		g.feedback.Add(int64(len(samples)))
	}
	for _, f := range expired {
		if f.Trace != nil {
			f.Trace.Add(trace.Span{
				Kind: trace.KindExpiry, UnixNanos: time.Now().UnixNano(),
				Note: fmt.Sprintf("pkts=%d bytes=%d", f.Packets, f.Bytes),
			})
			f.Trace.Close()
		}
	}

	// Dynamics (Section 4.3): rebuild the admitted-flow list and its
	// matrix in one sweep so ReevaluateWith sees a self-consistent pair,
	// then discontinue flows whose re-classification turned negative.
	var active []exboxcore.ActiveFlow
	var keys []flows.Key
	matrix := excr.NewMatrix(g.space)
	admitted := func(f *flows.Flow) bool {
		return f.Classified && f.Decided && f.Admitted && int(f.Class) < g.space.Classes
	}
	g.table.Sweep(func(t *flows.Table) {
		for _, f := range t.Select(admitted) {
			lvl := g.level(f.SNR)
			active = append(active, exboxcore.ActiveFlow{ID: len(active), Class: f.Class, Level: lvl, Trace: f.Trace})
			keys = append(keys, f.Key)
			matrix = matrix.Inc(f.Class, lvl)
		}
	})
	if len(active) == 0 {
		return
	}
	evict, err := g.mb.ReevaluateWith(cellID, matrix, active, nil)
	if err != nil {
		log.Printf("reevaluate: %v", err)
		return
	}
	for _, ev := range evict {
		k := keys[ev.ID]
		g.table.Do(k, func(t *flows.Table) {
			if f := t.Get(k); f != nil && f.Decided && f.Admitted {
				g.table.UntrackAdmitted(f)
				f.Admitted = false
				g.evicted.Inc()
				// A re-evaluation flip is always worth a trace: promote
				// past head sampling so the eviction is on /debug/traces.
				if f.Trace == nil && g.tracer != nil {
					f.Trace = g.tracer.Promote(traceID(f.Key), string(cellID), int(f.Class), int(g.level(f.SNR)),
						"reevaluate-flip", g.startNanos+int64(f.FirstSeen*1e9))
					f.Trace.Add(trace.Span{Kind: trace.KindReevaluate, UnixNanos: time.Now().UnixNano(), Verdict: "evict"})
				}
				log.Printf("flow %s discontinued by re-evaluation", f.Key)
			}
		})
	}
}

func (g *gateway) report() {
	fmt.Printf("\n=== exboxd summary ===\n")
	fmt.Printf("flows admitted: %d, rejected: %d, discontinued: %d\n",
		g.admitted.Value(), g.rejected.Value(), g.evicted.Value())
	fmt.Printf("packets forwarded: %d, dropped: %d\n", g.forwarded.Value(), g.dropped.Value())
	fmt.Printf("flows expired: %d, late-classified: %d\n", g.expired.Value(), g.lateClass.Value())
	first, total := g.table.Oldest(reportFlows)
	for _, f := range first {
		verdict := "undecided"
		if f.Decided {
			verdict = "rejected"
			if f.Admitted {
				verdict = "admitted"
			}
		}
		fmt.Printf("  %-32s class=%-12v snr=%-4v pkts=%-6d bytes=%-8d %s\n",
			f.Key, f.Class, f.SNR, f.Packets, f.Bytes, verdict)
	}
	if more := total - len(first); more > 0 {
		fmt.Printf("  … and %d more\n", more)
	}
}

// reportFlows is how many live flows the exit report lists, oldest
// first; the rest are a count.
const reportFlows = 32

// sendTrace plays a synthetic class trace against the gateway from its
// own UDP socket (one socket = one flow) until the trace ends, d
// elapses or done closes.
func sendTrace(gwAddr string, class excr.AppClass, d time.Duration, seed int64, done <-chan struct{}) error {
	raddr, err := net.ResolveUDPAddr("udp", gwAddr)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	tr := traffic.Synthesize(class, d.Seconds(), mathx.NewRand(seed))
	start := time.Now()
	payload := make([]byte, 64*1024)
	for _, p := range tr.Packets {
		if p.Bytes <= 0 {
			continue
		}
		select {
		case <-done:
			return nil
		default:
		}
		at := time.Duration(p.TimeSec * float64(time.Second))
		if sleep := at - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		// First byte marks the direction so the gateway can fold both
		// directions of the flow, as it would from interface context.
		if p.Up {
			payload[0] = 'U'
		} else {
			payload[0] = 'D'
		}
		size := p.Bytes
		if size > len(payload) {
			size = len(payload)
		}
		if _, err := conn.Write(payload[:size]); err != nil {
			return err
		}
		if time.Since(start) > d {
			break
		}
	}
	_ = os.Stdout.Sync()
	return nil
}
