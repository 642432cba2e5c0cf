// Command perseas-stress drives a live PERSEAS deployment hard and
// reports sustained throughput — the tool to run after racking two
// mirror machines to see what the installation actually delivers.
//
// It either dials running perseas-server processes:
//
//	perseas-stress -servers host1:7070,host2:7070 -duration 10s
//
// or, with -selfcontained, spawns loopback TCP mirrors of its own. The
// workload is the paper's debit-credit; stats print once per second.
// With -workers N, N goroutines run concurrent transaction handles
// against the same library and their commits interleave on the wire.
// With -chaos, one mirror is killed halfway through and the run must
// finish on the survivor — a live demonstration of the availability
// claim. With -guardian, the run is self-contained with three mirrors
// plus a spare node and a guardian watching them: one mirror is killed
// halfway through, the guardian detects the death, rebuilds onto the
// spare while transactions keep committing, and the run must end with
// the replication factor restored and zero lost commits.
//
// With -shards N (N > 1), the run is self-contained and the namespace is
// partitioned across N complete PERSEAS instances behind the shard
// router, each with its own mirror set and — with -guardian — its own
// guardian and spare; transactions spanning tables on different shards
// take the coordinator-driven cross-shard commit, and the chaos kill
// hits shard 0 while the other shards keep committing undisturbed.
//
// Every run ends with the commit-path latency breakdown (the paper's
// Fig. 3 phases, p50/p95/p99) and the write combiner's batch-size
// distribution. -stats-every 1s additionally dumps the latency table
// periodically mid-run, and -metrics-addr :9090 serves all counters in
// Prometheus text form at /metrics for the duration of the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/bench"
	"github.com/ics-forth/perseas/internal/cluster"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/debugmux"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/guardian"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// config collects the run parameters so tests can call run directly.
type config struct {
	servers       string
	selfContained bool
	duration      time.Duration
	chaos         bool
	guardian      bool
	branches      int
	workers       int
	shards        int
	quorum        int
	statsEvery    time.Duration
	metricsAddr   string
	traceOut      string
	traceSlower   time.Duration
	remote        string
	remoteChaos   bool
	clients       int
	accounts      int
	// serverTraceOut captures the in-process tx server's spans on a
	// -remote-chaos run, so the client capture in traceOut and this file
	// merge into stitched cross-process transactions.
	serverTraceOut string
	// pprofBlock/pprofMutex enable the blocking and mutex-contention
	// profiles on the metrics mux at the given sampling rate/fraction.
	pprofBlock int
	pprofMutex int
	// recoverChaos runs the recovery-under-chaos audit: power-fail the
	// primary mid-load, re-attach with recoverParallel recovery workers,
	// and prove zero lost commits.
	recoverChaos    bool
	recoverParallel int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.servers, "servers", "", "comma-separated mirror addresses (empty with -selfcontained)")
	flag.BoolVar(&cfg.selfContained, "selfcontained", false, "spawn loopback mirror servers")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to run")
	flag.BoolVar(&cfg.chaos, "chaos", false, "kill one self-contained mirror halfway through")
	flag.BoolVar(&cfg.guardian, "guardian", false, "self-contained 3-mirror run with a spare: kill a mirror mid-run and let the guardian restore the replication factor")
	// TPC-B scales branches with offered load; 16 keeps 4+ workers from
	// serialising on a handful of branch rows.
	flag.IntVar(&cfg.branches, "branches", 16, "debit-credit scale")
	flag.IntVar(&cfg.workers, "workers", 1, "concurrent transaction workers")
	flag.IntVar(&cfg.shards, "shards", 1, "partition the namespace across this many self-contained PERSEAS instances behind the shard router")
	flag.IntVar(&cfg.quorum, "quorum", 0, "commit at this many mirror acks instead of all of them; stragglers catch up asynchronously (0 = all-ack)")
	flag.DurationVar(&cfg.statsEvery, "stats-every", 0, "dump the commit-path latency table this often mid-run (0 = only at the end)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address for the run (e.g. :9090)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write per-transaction spans as Chrome/Perfetto trace-event JSON to this file at the end of the run")
	flag.DurationVar(&cfg.traceSlower, "trace-slower-than", 0, "keep only transactions at least this slow in the trace (0 = keep all)")
	flag.StringVar(&cfg.remote, "remote", "", "drive a perseas-server -tx front door at this address with simulated client processes")
	flag.BoolVar(&cfg.remoteChaos, "remote-chaos", false, "self-contained -remote run: in-process tx server over loopback mirrors with a guardian; kill a mirror mid-run and prove zero lost commits")
	flag.IntVar(&cfg.clients, "clients", 64, "-remote: how many independent clients (each its own replica and connection) to simulate")
	flag.IntVar(&cfg.accounts, "accounts", 1000, "-remote: debit-credit accounts per branch (smaller replicas let more clients fit)")
	flag.StringVar(&cfg.serverTraceOut, "server-trace-out", "", "-remote-chaos: write the in-process server's spans here (merge with -trace-out via perseas-inspect)")
	flag.IntVar(&cfg.pprofBlock, "pprof-block", 0, "goroutine blocking profile sample rate for /debug/pprof/block on -metrics-addr (0 = off)")
	flag.IntVar(&cfg.pprofMutex, "pprof-mutex", 0, "mutex contention profile fraction for /debug/pprof/mutex on -metrics-addr (0 = off)")
	flag.BoolVar(&cfg.recoverChaos, "recover-chaos", false, "self-contained audit: power-fail the primary mid-load with transactions in flight, recover, and prove zero lost commits")
	flag.IntVar(&cfg.recoverParallel, "recover-parallel", 4, "-recover-chaos: recovery parallelism for the re-attach (1 = the serial recovery path)")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perseas-stress:", err)
		os.Exit(1)
	}
}

type mirrorHandle struct {
	addr string
	srv  *memserver.Server
	l    net.Listener
}

// syncWriter serialises output lines: the per-second reporter and the
// guardian's event callback write concurrently.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// workerCounters is one worker's outcome tally, updated atomically so
// the per-second reporter can read it live.
type workerCounters struct {
	committed atomic.Uint64
	aborted   atomic.Uint64
	conflicts atomic.Uint64
}

func run(out io.Writer, cfg config) error {
	if cfg.recoverChaos {
		return runRecoverChaos(out, cfg)
	}
	if cfg.remote != "" || cfg.remoteChaos {
		return runRemote(out, cfg)
	}
	if cfg.shards > 1 {
		return runSharded(out, cfg)
	}
	if cfg.workers < 1 {
		return fmt.Errorf("need at least 1 worker, got %d", cfg.workers)
	}
	out = &syncWriter{w: out}
	if cfg.guardian {
		cfg.selfContained = true // the guardian run owns its own rig
	}
	nLocal := 2
	if cfg.guardian {
		nLocal = 3
	}
	var addrs []string
	var local []mirrorHandle
	if cfg.selfContained {
		for i := 0; i < nLocal; i++ {
			srv := memserver.New(memserver.WithLabel(fmt.Sprintf("local-%d", i)))
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go func() { _ = transport.Serve(l, srv) }()
			defer l.Close()
			local = append(local, mirrorHandle{addr: l.Addr().String(), srv: srv, l: l})
			addrs = append(addrs, l.Addr().String())
		}
		fmt.Fprintf(out, "self-contained mirrors: %s\n", strings.Join(addrs, ", "))
	} else {
		for _, a := range strings.Split(cfg.servers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fmt.Errorf("no servers given (use -servers or -selfcontained)")
		}
	}
	if cfg.chaos && len(local) < 2 {
		return fmt.Errorf("-chaos requires -selfcontained")
	}
	if cfg.chaos && cfg.guardian {
		return fmt.Errorf("-chaos and -guardian are mutually exclusive")
	}

	// The span recorder exists unconditionally (mounted at /debug/traces)
	// but records only when -trace-out asks for a capture; disabled it
	// costs one atomic load per instrumentation point.
	rec := trace.NewRecorder()
	if cfg.traceOut != "" {
		rec.Enable()
		rec.SetSlowerThan(cfg.traceSlower)
	}
	// The flight recorder is always on: anomalies are rare by
	// definition, so the ring stays cheap, and a run that hit mirror
	// retries or admission pushback can explain itself afterwards.
	fr := flight.New(0)
	fr.Enable()
	clock := simclock.NewWall()
	rec.SetClock(clock)
	fr.SetClock(clock)

	var mirrors []netram.Mirror
	var tcps []*transport.TCP
	for _, addr := range addrs {
		tr, err := transport.DialTCP(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		defer tr.Close()
		tr.SetTracer(rec)
		mirrors = append(mirrors, netram.Mirror{Name: addr, T: tr})
		tcps = append(tcps, tr)
	}
	var nopts []netram.Option
	if cfg.quorum > 0 {
		nopts = append(nopts, netram.WithQuorum(cfg.quorum))
	}
	ram, err := netram.NewClient(mirrors, nopts...)
	if err != nil {
		return err
	}
	ram.SetTracer(rec)
	ram.SetFlight(fr)
	if cfg.quorum > 0 {
		fmt.Fprintf(out, "durability: quorum %d of %d mirrors (stragglers catch up asynchronously)\n", cfg.quorum, len(mirrors))
	} else {
		fmt.Fprintf(out, "durability: all-ack (%d mirrors)\n", len(mirrors))
	}
	lib, err := core.Init(ram, clock, core.WithTracer(rec))
	if err != nil {
		return err
	}

	// The guardian rig adds a standby node and a failure detector over
	// the mirror set.
	var guard *guardian.Guardian
	if cfg.guardian {
		spareSrv := memserver.New(memserver.WithLabel("spare-0"))
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = transport.Serve(sl, spareSrv) }()
		defer sl.Close()
		str, err := transport.DialTCP(sl.Addr().String())
		if err != nil {
			return fmt.Errorf("dial spare %s: %w", sl.Addr(), err)
		}
		defer str.Close()
		lagLimit := 0
		if cfg.quorum > 0 {
			// Lag-aware health: a reachable mirror drowning in catch-up
			// work gets rebuilt instead of silently eroding durability.
			lagLimit = 48
		}
		guard, err = guardian.New(ram, simclock.NewWall(), guardian.Config{
			Interval: 50 * time.Millisecond,
			Misses:   3,
			LagLimit: lagLimit,
			Spares:   []netram.Mirror{{Name: "spare " + sl.Addr().String(), T: str}},
			OnEvent: func(ev guardian.Event) {
				fmt.Fprintf(out, "GUARDIAN: mirror %s: %s -> %s\n", ev.Mirror, ev.From, ev.To)
			},
		})
		if err != nil {
			return err
		}
		guard.SetTracer(rec)
		guard.SetFlight(fr)
		fmt.Fprintf(out, "guardian: watching %d mirrors, spare at %s\n", len(addrs), sl.Addr())
		if err := guard.Start(); err != nil {
			return err
		}
		defer guard.Stop()
	}

	reg := obs.NewRegistry()
	lib.RegisterMetrics(reg)
	rec.RegisterMetrics(reg)
	fr.RegisterMetrics(reg)
	if guard != nil {
		guard.RegisterMetrics(reg)
	}
	for i, tr := range tcps {
		tr.RegisterMetrics(reg, fmt.Sprintf("perseas_tcp_mirror%d", i))
	}
	if cfg.metricsAddr != "" {
		ml, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ml.Close()
		mux := debugmux.Build(debugmux.Config{
			Registry: reg,
			Tracer:   rec,
			Flight:   fr,
			Cluster: &cluster.Config{
				Shards: []cluster.ShardSource{{Label: "perseas", Lib: lib, Net: ram, Guard: guard}},
				Flight: fr,
				Clock:  clock,
			},
			BlockProfileRate:     cfg.pprofBlock,
			MutexProfileFraction: cfg.pprofMutex,
		})
		go func() { _ = (&http.Server{Handler: mux}).Serve(ml) }()
		fmt.Fprintf(out, "metrics: http://%s/metrics (cluster at /debug/cluster, events at /debug/events)\n", ml.Addr())
	}

	w, err := bench.NewDebitCredit(cfg.branches, 1000)
	if err != nil {
		return err
	}
	if err := w.Setup(lib); err != nil {
		return err
	}
	fmt.Fprintf(out, "database: %d bytes across 4 tables, %d mirrors, %d workers\n",
		w.DBBytes(), len(addrs), cfg.workers)

	counters := make([]workerCounters, cfg.workers)
	workerErrs := make([]error, cfg.workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	seed := time.Now().UnixNano()
	start := time.Now()
	for i := 0; i < cfg.workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			for !stop.Load() {
				switch err := w.ConcurrentTx(lib, rng); {
				case err == nil:
					counters[i].committed.Add(1)
				case errors.Is(err, engine.ErrConflict):
					counters[i].aborted.Add(1)
					counters[i].conflicts.Add(1)
					// Back off briefly so the claim winner finishes with
					// the row instead of racing retries for the CPU.
					time.Sleep(time.Duration(50+rng.Intn(150)) * time.Microsecond)
				case errors.Is(err, engine.ErrBusy):
					// Every undo slot is held — at quorum, by commits whose
					// straggler mirror has not caught up. Nothing was
					// started: wait for slots to retire, as a remote
					// client does on a BUSY reply.
					time.Sleep(time.Duration(500+rng.Intn(500)) * time.Microsecond)
				default:
					workerErrs[i] = fmt.Errorf(
						"after %d transactions: %w", counters[i].committed.Load(), err)
					return
				}
			}
		}()
	}

	committedNow := func() uint64 {
		var n uint64
		for i := range counters {
			n += counters[i].committed.Load()
		}
		return n
	}
	lastReport := start
	lastStats := start
	var lastTotal uint64
	chaosFired := false
	for time.Since(start) < cfg.duration {
		time.Sleep(50 * time.Millisecond)
		if (cfg.chaos || cfg.guardian) && !chaosFired && time.Since(start) > cfg.duration/2 {
			chaosFired = true
			local[0].srv.Crash()
			local[0].l.Close()
			fmt.Fprintf(out, "CHAOS: killed mirror %s mid-run\n", local[0].addr)
		}
		if time.Since(lastReport) >= time.Second {
			total := committedNow()
			secs := time.Since(lastReport).Seconds()
			fmt.Fprintf(out, "%8.1fs  %10.0f tx/s  (live mirrors: %d)\n",
				time.Since(start).Seconds(), float64(total-lastTotal)/secs, ram.Live())
			lastTotal = total
			lastReport = time.Now()
		}
		if cfg.statsEvery > 0 && time.Since(lastStats) >= cfg.statsEvery {
			obs.WriteLatencyTable(out, "commit path", lib.CommitLatencyRows())
			lastStats = time.Now()
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range workerErrs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}

	var committed, aborted, conflicts uint64
	for i := range counters {
		c, a, cf := counters[i].committed.Load(), counters[i].aborted.Load(), counters[i].conflicts.Load()
		fmt.Fprintf(out, "worker %2d: %8d committed  %6d aborted  %6d conflicts\n", i, c, a, cf)
		committed += c
		aborted += a
		conflicts += cf
	}
	fmt.Fprintf(out, "total: %d committed, %d aborted (%d conflicts) in %v (%.0f tx/s over real TCP)\n",
		committed, aborted, conflicts, elapsed.Round(time.Millisecond),
		float64(committed)/elapsed.Seconds())

	obs.WriteLatencyTable(out, "commit path", lib.CommitLatencyRows())
	var batch obs.HistogramSnapshot
	for _, tr := range tcps {
		batch = batch.Merge(tr.Metrics().BatchSize.Snapshot())
	}
	obs.WriteValueDistribution(out, "combiner batch size (writes/exchange)", batch)

	if guard != nil {
		// The run must end with the replication factor restored: wait
		// out an in-flight rebuild, then audit every region on every
		// mirror (the spare included) byte for byte.
		deadline := time.Now().Add(30 * time.Second)
		for ram.Live() < len(addrs) {
			if time.Now().After(deadline) {
				return fmt.Errorf("guardian never restored the replication factor: %d/%d mirrors live",
					ram.Live(), len(addrs))
			}
			time.Sleep(50 * time.Millisecond)
		}
		guard.Stop()
		fmt.Fprintf(out, "MIRRORS:\n")
		for _, row := range guard.Status() {
			fmt.Fprintf(out, "  %d %-28s %-10s deaths=%d rebuilt=%d bytes\n",
				row.Slot, row.Mirror, row.State, row.Deaths, row.RebuildBytes)
		}
		if mm, err := ram.VerifyAll(); err != nil {
			return fmt.Errorf("post-rebuild verify: %w", err)
		} else if len(mm) != 0 {
			return fmt.Errorf("post-rebuild verify: %d mirror divergences, first: %v", len(mm), mm[0])
		}
		m := guard.Metrics()
		fmt.Fprintf(out, "guardian: %d death(s) detected, %d rebuild(s), replication factor restored (%d/%d live)\n",
			m.Deaths.Load(), m.Rebuilds.Load(), ram.Live(), len(addrs))
	}

	if cfg.traceOut != "" {
		spans := rec.Snapshot()
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		if err := trace.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d span(s) written to %s (open at ui.perfetto.dev)\n",
			len(spans), cfg.traceOut)
		trace.WriteSlowestReport(out, spans, 5)
	}

	if n := fr.Total(); n > 0 {
		fmt.Fprintf(out, "flight: %d anomaly event(s) recorded (%d dropped from the ring)\n", n, fr.Dropped())
	}

	if err := w.CheckConsistency(); err != nil {
		return err
	}
	fmt.Fprintln(out, "consistency: balance invariant holds")
	return nil
}
