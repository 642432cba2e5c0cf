// Command perseas-bench regenerates every table and figure of the
// paper's evaluation (Section 5) on the deterministic simulation rig:
//
//	perseas-bench -experiment fig5     # SCI remote-write latency curve
//	perseas-bench -experiment fig6     # transaction overhead vs tx size
//	perseas-bench -experiment table1   # PERSEAS debit-credit / order-entry
//	perseas-bench -experiment compare  # Section 5.1 cross-system table
//	perseas-bench -experiment dbsize   # throughput vs database size
//	perseas-bench -experiment ablate   # design-choice ablations
//	perseas-bench -experiment all      # everything above
//
// All timings are virtual: they come from the calibrated PCI-SCI, disk
// and memory models, so the output is identical on every host.
//
// -experiment commitpath additionally breaks the commit cost into the
// phases the code has (the local undo copy of the paper's Fig. 3, and the
// one commit push that carries the undo records, the ranges and the
// commit word). It runs only when named: the reference outputs
// of -experiment all predate the observability layer and stay
// byte-identical.
//
// -experiment shard sweeps the -shards counts (default 1,2,4) and
// reports aggregate single-shard-transaction throughput as the region
// namespace partitions across router shards, each with its own
// serialised mirror link. Named-only, wall-clock; -bench-out captures
// the rows as JSON.
//
// -trace-out FILE additionally records every transaction of the run as
// a span tree and writes Chrome/Perfetto trace-event JSON at the end
// (open at ui.perfetto.dev). The recorder only reads the simulated
// clock, so every figure is byte-identical with tracing on or off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ics-forth/perseas/internal/bench"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/disk"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/rig"
	"github.com/ics-forth/perseas/internal/router"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// tracer, when non-nil, records per-transaction spans in every PERSEAS
// lab the experiments build. It never advances the simulated clock, so
// the rendered figures are identical with tracing on or off (pinned by
// TestTracingKeepsOutputByteIdentical).
var tracer *trace.Recorder

// flightRec, when non-nil, is the anomaly flight recorder threaded
// into every lab's netram client. Like the tracer it only reads the
// clock, so the figures are byte-identical with it enabled (pinned by
// TestFlightRecorderKeepsOutputByteIdentical).
var flightRec *flight.Recorder

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: fig5, fig6, table1, compare, dbsize, ablate, commitpath, fanout, shard, all (commitpath, fanout and shard are excluded from all; name them explicitly)")
	txs := flag.Int("txs", 2000, "transactions per measurement")
	traceOut := flag.String("trace-out", "",
		"write per-transaction spans as Chrome/Perfetto trace-event JSON to this file at the end of the run")
	traceSlower := flag.Duration("trace-slower-than", 0,
		"keep only transactions at least this slow in modelled time (0 = keep all; with -trace-out)")
	eventsOut := flag.String("events-out", "",
		"record anomaly flight events in every lab and write them as JSON to this file at the end of the run")
	flag.IntVar(&mirrorsN, "mirrors", 1,
		"replication degree for the simulated PERSEAS labs (and the -tcp commitpath rig)")
	flag.BoolVar(&tcpCommitPath, "tcp", false,
		"with -experiment commitpath: also run real loopback-TCP mirrors and report wall-clock commit latency, serial vs parallel fan-out")
	flag.StringVar(&benchOutPath, "bench-out", "",
		"write machine-readable results of the fanout, shard or recovery experiment as JSON to this file (with -experiment recovery it also enables the parallel recovery and rebuild sweeps)")
	flag.DurationVar(&netDelay, "net-delay", 200*time.Microsecond,
		"with -tcp: extra per-write delay modelling LAN round-trip time on top of loopback (0 = raw loopback)")
	flag.StringVar(&shardCSV, "shards", "1,2,4",
		"with -experiment shard: comma-separated shard counts to sweep")
	flag.IntVar(&quorumW, "quorum", 0,
		"with -experiment fanout: also sweep a w-of-n quorum join against a 10x-slow straggler mirror (0 = skip)")
	flag.StringVar(&serverClientsCSV, "server-clients", "1,16,256,1024",
		"with -experiment server: comma-separated client counts to sweep")
	flag.DurationVar(&serverCellDur, "server-cell", 1500*time.Millisecond,
		"with -experiment server: measured duration per (clients, mode) cell")
	flag.Parse()

	if *traceOut != "" {
		tracer = trace.NewRecorder()
		tracer.Enable()
		tracer.SetSlowerThan(*traceSlower)
	}
	if *eventsOut != "" {
		flightRec = flight.New(0)
		flightRec.Enable()
	}
	if err := run(os.Stdout, *experiment, *txs); err != nil {
		fmt.Fprintln(os.Stderr, "perseas-bench:", err)
		os.Exit(1)
	}
	if benchOutPath != "" {
		if err := writeBenchFile(os.Stdout, benchOutPath); err != nil {
			fmt.Fprintln(os.Stderr, "perseas-bench:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeTraceFile(os.Stdout, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perseas-bench:", err)
			os.Exit(1)
		}
	}
	if *eventsOut != "" {
		if err := writeEventsFile(os.Stdout, *eventsOut); err != nil {
			fmt.Fprintln(os.Stderr, "perseas-bench:", err)
			os.Exit(1)
		}
	}
}

// writeEventsFile dumps the flight recorder's ring as JSON.
func writeEventsFile(out io.Writer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("events output: %w", err)
	}
	if err := flightRec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write events: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "flight: %d anomaly event(s) written to %s\n", flightRec.Total(), path)
	return nil
}

// writeTraceFile dumps the tracer's rings as Chrome trace-event JSON.
func writeTraceFile(out io.Writer, path string) error {
	spans := tracer.Snapshot()
	f, err := os.Create(path)
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
	fmt.Fprintf(out, "trace: %d span(s) written to %s (open at ui.perfetto.dev)\n", len(spans), path)
	return nil
}

// mirrorsN, tcpCommitPath and benchOutPath carry the -mirrors, -tcp
// and -bench-out flags into the experiment runners. The defaults leave
// every reference output byte-identical.
var (
	mirrorsN      = 1
	tcpCommitPath bool
	benchOutPath  string
	netDelay      time.Duration
	shardCSV      = "1,2,4"
	quorumW       int

	serverClientsCSV = "1,16,256,1024"
	serverCellDur    = 1500 * time.Millisecond
)

// routerSingle forces the shard router even for single-shard labs. Only
// the byte-identity regression test sets it: the single-shard router is
// a pass-through, so every figure must render identically either way.
var routerSingle bool

// benchResults holds whatever machine-readable payload the named
// experiment produced, for -bench-out.
var benchResults any

// writeBenchFile dumps benchResults as indented JSON.
func writeBenchFile(out io.Writer, path string) error {
	if benchResults == nil {
		return fmt.Errorf("-bench-out: the %s experiment produced no machine-readable results (use -experiment fanout)", "selected")
	}
	data, err := json.MarshalIndent(benchResults, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: results written to %s\n", path)
	return nil
}

// defaultConfig is rig.DefaultConfig plus the process-wide tracer and
// the -mirrors replication degree.
func defaultConfig() rig.Config {
	cfg := rig.DefaultConfig()
	cfg.Tracer = tracer
	cfg.Flight = flightRec
	cfg.Mirrors = mirrorsN
	cfg.RouterSingle = routerSingle
	return cfg
}

func run(w io.Writer, experiment string, txs int) error {
	type exp struct {
		name string
		fn   func(io.Writer, int) error
	}
	all := []exp{
		{"fig5", runFig5},
		{"fig6", runFig6},
		{"table1", runTable1},
		{"compare", runCompare},
		{"dbsize", runDBSize},
		{"ablate", runAblate},
		{"recovery", runRecovery},
		{"trend", runTrend},
		{"latency", runLatency},
		{"mixed", runMixed},
	}
	if experiment == "all" {
		for i, e := range all {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := e.fn(w, txs); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		fmt.Fprintln(w, "\n(not included: -experiment commitpath — run it by name for the Fig. 3 phase breakdown)")
		return nil
	}
	// commitpath and fanout are addressable by name only — adding them
	// to the all slice would change the reference -experiment all
	// output.
	named := append(all, exp{"commitpath", runCommitPath}, exp{"fanout", runFanout}, exp{"shard", runShard}, exp{"server", runServer})
	for _, e := range named {
		if e.name == experiment {
			return e.fn(w, txs)
		}
	}
	return fmt.Errorf("unknown experiment %q", experiment)
}

func perseasFactory(cfg rig.Config) bench.LabFactory {
	return func() (engine.Engine, *simclock.SimClock, error) {
		lab, err := rig.NewPerseas(cfg)
		if err != nil {
			return nil, nil, err
		}
		return lab.Engine, lab.Clock, nil
	}
}

func runFig5(w io.Writer, _ int) error {
	if err := bench.RenderFigure5(w, sci.DefaultParams()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return bench.RenderFigure5Offsets(w, sci.DefaultParams())
}

func runFig6(w io.Writer, txs int) error {
	perSize := txs / 10
	if perSize < 20 {
		perSize = 20
	}
	pts, err := bench.Sweep(perseasFactory(defaultConfig()), 2<<20, bench.Figure6Sizes(), perSize)
	if err != nil {
		return err
	}
	bench.RenderFigure6(w, pts)
	return nil
}

func runTable1(w io.Writer, txs int) error {
	var results []bench.Result
	for _, wl := range []func() (bench.Workload, error){
		func() (bench.Workload, error) { return bench.NewDebitCredit(0, 0) },
		func() (bench.Workload, error) { return bench.NewOrderEntry(0, 0, 0) },
	} {
		lab, err := rig.NewPerseas(defaultConfig())
		if err != nil {
			return err
		}
		workload, err := wl()
		if err != nil {
			return err
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		results = append(results, res)
	}
	bench.RenderTable1(w, results)
	return nil
}

func runCompare(w io.Writer, txs int) error {
	var results []bench.Result
	workloads := []struct {
		name string
		mk   func() (bench.Workload, error)
	}{
		{"synthetic-64", func() (bench.Workload, error) { return bench.NewSynthetic(1<<20, 64) }},
		{"debit-credit", func() (bench.Workload, error) { return bench.NewDebitCredit(0, 0) }},
		{"order-entry", func() (bench.Workload, error) { return bench.NewOrderEntry(0, 0, 0) }},
	}
	for _, wl := range workloads {
		for _, b := range rig.All() {
			lab, err := b.Build(defaultConfig())
			if err != nil {
				return err
			}
			workload, err := wl.mk()
			if err != nil {
				return err
			}
			n := txs
			if b.Name == "rvm" || b.Name == "rvm-group" {
				// Disk-bound engines: milliseconds of virtual time per
				// transaction; a few hundred suffice for a stable mean.
				n = min(n, 300)
			}
			res, err := bench.Run(lab.Engine, lab.Clock, workload, n, 42)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", wl.name, b.Name, err)
			}
			_ = lab.Close()
			results = append(results, res)
		}
	}
	bench.RenderComparison(w, results)
	return nil
}

func runDBSize(w io.Writer, txs int) error {
	var rows []bench.DBSizeRow
	for _, branches := range []int{1, 2, 4, 8, 16} {
		lab, err := rig.NewPerseas(defaultConfig())
		if err != nil {
			return err
		}
		workload, err := bench.NewDebitCredit(branches, 2500)
		if err != nil {
			return err
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		rows = append(rows, bench.DBSizeRow{
			Branches: branches,
			DBBytes:  workload.DBBytes(),
			TPS:      res.TPS,
		})
	}
	bench.RenderDBSize(w, rows)
	return nil
}

func runAblate(w io.Writer, txs int) error {
	configs := []struct {
		name   string
		mutate func(*rig.Config)
	}{
		{"default (1 mirror)", func(*rig.Config) {}},
		{"no 64B alignment", func(c *rig.Config) { c.NoAlignment = true }},
		{"no remote undo (unsafe)", func(c *rig.Config) { c.NoRemoteUndo = true }},
		{"2 mirrors", func(c *rig.Config) { c.Mirrors = 2 }},
		{"3 mirrors", func(c *rig.Config) { c.Mirrors = 3 }},
		// NICs with transparent mirroring support (PRAM, Telegraphos,
		// SHRIMP): replication degree stops costing anything.
		{"2 mirrors, hw mirroring", func(c *rig.Config) { c.Mirrors = 2; c.HardwareMirroring = true }},
		{"3 mirrors, hw mirroring", func(c *rig.Config) { c.Mirrors = 3; c.HardwareMirroring = true }},
	}
	var rows []bench.AblationRow
	for _, c := range configs {
		cfg := defaultConfig()
		c.mutate(&cfg)
		lab, err := rig.NewPerseas(cfg)
		if err != nil {
			return err
		}
		workload, err := bench.NewDebitCredit(0, 0)
		if err != nil {
			return err
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		rows = append(rows, bench.AblationRow{Config: c.name, TPS: res.TPS, PerTx: res.PerTx})
	}
	// The 64-byte expansion matters most for mid-size unaligned writes,
	// where edge chunks drain as several small packets: show it on the
	// 200-byte synthetic workload too.
	for _, noAlign := range []bool{false, true} {
		cfg := defaultConfig()
		cfg.NoAlignment = noAlign
		lab, err := rig.NewPerseas(cfg)
		if err != nil {
			return err
		}
		workload, err := bench.NewSynthetic(1<<20, 200)
		if err != nil {
			return err
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		name := "synthetic-200, aligned"
		if noAlign {
			name = "synthetic-200, no alignment"
		}
		rows = append(rows, bench.AblationRow{Config: name, TPS: res.TPS, PerTx: res.PerTx})
	}
	bench.RenderAblation(w, rows)
	return nil
}

func runRecovery(w io.Writer, _ int) error {
	var rows []bench.RecoveryRow
	for _, dbMB := range []uint64{1, 4, 16} {
		lab, err := rig.NewPerseas(defaultConfig())
		if err != nil {
			return err
		}
		size := dbMB << 20
		db, err := lab.Engine.CreateDB("db", size)
		if err != nil {
			return err
		}
		if err := lab.Engine.InitDB(db); err != nil {
			return err
		}
		// Leave a transaction with a handful of ranges caught mid-commit —
		// records and ranges on the mirror, no commit word, which is where
		// Prepare stops — so recovery exercises the remote-undo rollback
		// too.
		const ranges = 4
		tx, err := lab.Engine.Begin()
		if err != nil {
			return err
		}
		for r := 0; r < ranges; r++ {
			if err := tx.SetRange(db, uint64(r)*4096, 512); err != nil {
				return err
			}
		}
		half, ok := tx.(interface{ Prepare() error })
		if !ok {
			return fmt.Errorf("recovery experiment: %T cannot stop a commit before its word", tx)
		}
		if err := half.Prepare(); err != nil {
			return err
		}
		if err := lab.Engine.Crash(fault.CrashPower); err != nil {
			return err
		}
		t0 := lab.Clock.Now()
		if err := lab.Engine.Recover(); err != nil {
			return err
		}
		rows = append(rows, bench.RecoveryRow{
			DBBytes:        size,
			InFlightRanges: ranges,
			Elapsed:        lab.Clock.Now() - t0,
		})
		_ = lab.Close()
	}
	bench.RenderRecovery(w, rows)
	// The parallel recovery and rebuild sweeps time wall-clock speedups
	// on this host, so they run only when -bench-out asks for the
	// machine-readable results; the reference table above stays
	// byte-identical.
	if benchOutPath != "" {
		fmt.Fprintln(w)
		return runRecoverySweep(w)
	}
	return nil
}

// slowLink wraps a transport with a mutex-serialised fixed service time
// per remote data operation — read, write or server-side fill. It
// models one mirror's NIC link handling one transfer at a time: a
// serial recovery pays the sum of its reads on one link, while a
// striped recovery spreads them over the mirrors' independent links and
// pays roughly the per-link maximum. Unlike slowWrite/slowPipe it
// delays reads too, because recovery and rebuild are read-heavy.
type slowLink struct {
	transport.Transport
	delay time.Duration
	mu    sync.Mutex
	// load, when set, is shared by the links of one sweep arm and counts
	// how many of them are transferring at once.
	load *linkLoad
}

// linkLoad counts the links busy at one moment and remembers the most
// it saw: the overlap a sweep arm achieved, as a count — 1 for a serial
// arm whatever the host, and what the speedup column is made of.
type linkLoad struct {
	mu         sync.Mutex
	busy, peak int
}

func (l *linkLoad) add(d int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.busy += d
	l.peak = max(l.peak, l.busy)
	l.mu.Unlock()
}

func (s *slowLink) pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.load.add(1)
	time.Sleep(s.delay)
	s.load.add(-1)
}

func (s *slowLink) Write(seg uint32, offset uint64, data []byte) error {
	s.pause()
	return s.Transport.Write(seg, offset, data)
}

func (s *slowLink) WriteBatch(writes []transport.BatchWrite) error {
	s.pause()
	if bw, ok := s.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, wr := range writes {
		if err := s.Transport.Write(wr.Seg, wr.Offset, wr.Data); err != nil {
			return err
		}
	}
	return nil
}

func (s *slowLink) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	s.pause()
	return s.Transport.Read(seg, offset, n)
}

func (s *slowLink) Fill(seg uint32, offset, n uint64) error {
	s.pause()
	if f, ok := s.Transport.(transport.Filler); ok {
		return f.Fill(seg, offset, n)
	}
	return s.Transport.Write(seg, offset, make([]byte, n))
}

// recoverSweepRow is one row of the parallel-recovery sweep, for
// -bench-out.
type recoverSweepRow struct {
	Workers    int     `json:"workers"`
	WallNs     int64   `json:"wall_ns"`
	SpeedupVs1 float64 `json:"speedup_vs_serial"`
	// LinksBusyMax is the most mirror links transferring at once.
	LinksBusyMax int `json:"links_busy_max"`
}

// rebuildSweepRow is one row of the pipelined-rebuild sweep, for
// -bench-out.
type rebuildSweepRow struct {
	Depth      int     `json:"pipeline_depth"`
	WallNs     int64   `json:"wall_ns"`
	SpeedupVs1 float64 `json:"speedup_vs_depth_1"`
	// LinksBusyMax is the most links — survivors and spare —
	// transferring at once.
	LinksBusyMax int `json:"links_busy_max"`
}

// runRecoverySweep times crash recovery and mirror rebuild on the wall
// clock over serialised links. Each arm rebuilds the crashed state from
// scratch so every worker count recovers exactly the same bytes,
// rollback included.
func runRecoverySweep(w io.Writer) error {
	const (
		linkDelay  = 300 * time.Microsecond
		chunk      = 64 << 10
		recMirrors = 4
		recRegions = 8
		recSize    = uint64(1 << 20)
	)

	fmt.Fprintf(w, "Parallel recovery sweep — %d mirrors all-ack, %d × %d KiB databases, %d KiB read chunks, %v serialised link delay per op, wall-clock\n",
		recMirrors, recRegions, recSize>>10, chunk>>10, linkDelay)
	fmt.Fprintf(w, "%8s %14s %10s\n", "workers", "recover", "speedup")
	var recRows []recoverSweepRow
	for _, workers := range []int{1, 2, 4} {
		var load linkLoad
		elapsed, err := recoverOnce(workers, recMirrors, recRegions, recSize, chunk, linkDelay, &load)
		if err != nil {
			return err
		}
		speedup := 1.0
		if len(recRows) > 0 {
			speedup = float64(recRows[0].WallNs) / float64(elapsed.Nanoseconds())
		}
		recRows = append(recRows, recoverSweepRow{
			Workers: workers, WallNs: elapsed.Nanoseconds(),
			SpeedupVs1: math.Round(speedup*100) / 100, LinksBusyMax: load.peak,
		})
		fmt.Fprintf(w, "%8d %14s %9.2fx\n", workers, elapsed.Round(time.Microsecond), speedup)
	}

	const (
		rebMirrors = 3
		rebRegions = 2
		rebSize    = uint64(2 << 20)
	)
	fmt.Fprintf(w, "\nPipelined rebuild sweep — replace 1 of %d mirrors (%d survivors), %d × %d MiB regions, same links\n",
		rebMirrors, rebMirrors-1, rebRegions, rebSize>>20)
	fmt.Fprintf(w, "%8s %14s %10s\n", "depth", "rebuild", "speedup")
	var rebRows []rebuildSweepRow
	for _, depth := range []int{1, 2} {
		var load linkLoad
		elapsed, err := rebuildOnce(depth, rebMirrors, rebRegions, rebSize, chunk, linkDelay, &load)
		if err != nil {
			return err
		}
		speedup := 1.0
		if len(rebRows) > 0 {
			speedup = float64(rebRows[0].WallNs) / float64(elapsed.Nanoseconds())
		}
		rebRows = append(rebRows, rebuildSweepRow{
			Depth: depth, WallNs: elapsed.Nanoseconds(),
			SpeedupVs1: math.Round(speedup*100) / 100, LinksBusyMax: load.peak,
		})
		fmt.Fprintf(w, "%8d %14s %9.2fx\n", depth, elapsed.Round(time.Microsecond), speedup)
	}

	benchResults = map[string]any{
		"experiment":    "recovery",
		"link_delay_ns": linkDelay.Nanoseconds(),
		"read_chunk":    chunk,
		"recovery": map[string]any{
			"mirrors": recMirrors, "regions": recRegions, "region_bytes": recSize,
			"rows": recRows,
		},
		"rebuild": map[string]any{
			"mirrors": rebMirrors, "survivors": rebMirrors - 1,
			"regions": rebRegions, "region_bytes": rebSize,
			"rows": rebRows,
		},
	}
	return nil
}

// recoverOnce builds a mirrored database set over in-process servers,
// crashes it with a transaction in flight, and times a fresh Attach —
// connect, fetch, scan, roll back — through delay-serialised links at
// the given recovery parallelism.
func recoverOnce(workers, nMirrors, nRegions int, regionSize, chunk uint64, delay time.Duration, load *linkLoad) (time.Duration, error) {
	// Populate through undelayed transports: only recovery is timed.
	servers := make([]*memserver.Server, nMirrors)
	var seed []netram.Mirror
	for i := 0; i < nMirrors; i++ {
		servers[i] = memserver.New(memserver.WithLabel(fmt.Sprintf("rec-%d", i)))
		tr, err := transport.NewInProc(servers[i], sci.DefaultParams(), simclock.NewWall())
		if err != nil {
			return 0, err
		}
		seed = append(seed, netram.Mirror{Name: servers[i].Label(), T: tr})
	}
	ram, err := netram.NewClient(seed)
	if err != nil {
		return 0, err
	}
	lib, err := core.Init(ram, simclock.NewWall())
	if err != nil {
		return 0, err
	}
	var first engine.DB
	for r := 0; r < nRegions; r++ {
		db, err := lib.CreateDB(fmt.Sprintf("db%d", r), regionSize)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			first = db
		}
		tx, err := lib.BeginTx()
		if err != nil {
			return 0, err
		}
		buf := db.Bytes()
		for g := 0; g < 4; g++ {
			off := uint64(g) * (regionSize / 4)
			if err := tx.SetRange(db, off, 4096); err != nil {
				return 0, err
			}
			buf[off] = byte(r + g + 1)
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	// Leave a transaction in flight so every arm recovers the same
	// rollback work on top of the fetches.
	tx, err := lib.BeginTx()
	if err != nil {
		return 0, err
	}
	for g := 0; g < 4; g++ {
		if err := tx.SetRange(first, uint64(g)*4096, 512); err != nil {
			return 0, err
		}
	}
	if err := lib.Crash(fault.CrashPower); err != nil {
		return 0, err
	}
	ram.Close()

	// Recover on a fresh node: new transports, this time each behind a
	// serialised delayed link.
	var mirrors []netram.Mirror
	for i := 0; i < nMirrors; i++ {
		tr, err := transport.NewInProc(servers[i], sci.DefaultParams(), simclock.NewWall())
		if err != nil {
			return 0, err
		}
		mirrors = append(mirrors, netram.Mirror{
			Name: servers[i].Label(), T: &slowLink{Transport: tr, delay: delay, load: load},
		})
	}
	ram2, err := netram.NewClient(mirrors, netram.WithReadChunk(chunk))
	if err != nil {
		return 0, err
	}
	defer ram2.Close()
	var opts []core.Option
	if workers > 1 {
		opts = append(opts, core.WithRecoveryParallelism(workers))
	}
	start := time.Now()
	if _, err := core.Attach(ram2, simclock.NewWall(), opts...); err != nil {
		return 0, fmt.Errorf("attach with %d workers: %w", workers, err)
	}
	return time.Since(start), nil
}

// rebuildOnce populates regions on delay-serialised mirror links, kills
// one mirror, and times RebuildMirror onto a fresh spare at the given
// pipeline depth.
func rebuildOnce(depth, nMirrors, nRegions int, regionSize, chunk uint64, delay time.Duration, load *linkLoad) (time.Duration, error) {
	var links []*slowLink
	var mirrors []netram.Mirror
	for i := 0; i < nMirrors; i++ {
		srv := memserver.New(memserver.WithLabel(fmt.Sprintf("reb-%d", i)))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), simclock.NewWall())
		if err != nil {
			return 0, err
		}
		// Delay 0 during population; the links slow down for the timed
		// rebuild only.
		l := &slowLink{Transport: tr}
		links = append(links, l)
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: l})
	}
	opts := []netram.Option{netram.WithReadChunk(chunk)}
	if depth > 1 {
		opts = append(opts, netram.WithRebuildPipeline(depth))
	}
	c, err := netram.NewClient(mirrors, opts...)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for r := 0; r < nRegions; r++ {
		reg, err := c.Malloc(fmt.Sprintf("reg%d", r), regionSize)
		if err != nil {
			return 0, err
		}
		for i := range reg.Local {
			reg.Local[i] = byte(r + i)
		}
		if err := c.PushAcked(reg, 0, regionSize); err != nil {
			return 0, err
		}
	}
	for _, l := range links {
		l.delay, l.load = delay, load
	}
	if err := c.MarkMirrorDown(0); err != nil {
		return 0, err
	}
	spare := memserver.New(memserver.WithLabel("reb-spare"))
	tr, err := transport.NewInProc(spare, sci.DefaultParams(), simclock.NewWall())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := c.RebuildMirror(0, netram.Mirror{Name: spare.Label(), T: &slowLink{Transport: tr, delay: delay, load: load}}, nil); err != nil {
		return 0, fmt.Errorf("rebuild at depth %d: %w", depth, err)
	}
	return time.Since(start), nil
}

// runCommitPath runs the debit-credit workload and renders the library's
// per-phase commit histograms. On the simulated clock every duration is
// modelled time, so the table is deterministic across hosts.
func runCommitPath(w io.Writer, txs int) error {
	lab, err := rig.NewPerseas(defaultConfig())
	if err != nil {
		return err
	}
	lib, ok := lab.Engine.(*core.Library)
	if !ok {
		return fmt.Errorf("perseas lab engine is %T, not *core.Library", lab.Engine)
	}
	workload, err := bench.NewDebitCredit(0, 0)
	if err != nil {
		return err
	}
	if _, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42); err != nil {
		return err
	}
	fmt.Fprintln(w, "Commit-path phase breakdown — debit-credit, modelled time")
	obs.WriteLatencyTable(w, "commit path", lib.CommitLatencyRows())
	if err := lab.Close(); err != nil {
		return err
	}
	if tcpCommitPath {
		fmt.Fprintln(w)
		return runCommitPathTCP(w, txs, mirrorsN)
	}
	return nil
}

// runCommitPathTCP measures the real commit path over loopback TCP
// mirrors on the wall clock, once with the serial mirror loop and once
// with the parallel fan-out. With N mirrors the serial data push costs
// roughly the sum of the per-mirror round trips while the parallel one
// costs roughly the slowest — the numbers printed here are the
// evidence.
func runCommitPathTCP(w io.Writer, txs, nMirrors int) error {
	if nMirrors < 2 {
		nMirrors = 2
	}
	iters := txs
	if iters > 400 {
		iters = 400
	}

	measure := func(serial bool) (commits []time.Duration, pushMean []time.Duration, err error) {
		var listeners []net.Listener
		defer func() {
			for _, l := range listeners {
				l.Close()
			}
		}()
		var mirrors []netram.Mirror
		var conns []*transport.TCP
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for i := 0; i < nMirrors; i++ {
			srv := memserver.New(memserver.WithLabel(fmt.Sprintf("tcp-%d", i)))
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			listeners = append(listeners, l)
			go func() { _ = transport.Serve(l, srv) }()
			tr, err := transport.DialTCP(l.Addr().String())
			if err != nil {
				return nil, nil, err
			}
			conns = append(conns, tr)
			var tp transport.Transport = tr
			if netDelay > 0 {
				tp = &slowWrite{Transport: tr, delay: netDelay}
			}
			mirrors = append(mirrors, netram.Mirror{Name: fmt.Sprintf("tcp-%d", i), T: tp})
		}
		var opts []netram.Option
		if serial {
			opts = append(opts, netram.WithSerialFanout())
		}
		ram, err := netram.NewClient(mirrors, opts...)
		if err != nil {
			return nil, nil, err
		}
		defer ram.Close()
		lib, err := core.Init(ram, simclock.NewWall(), core.WithStoreGather())
		if err != nil {
			return nil, nil, err
		}
		db, err := lib.CreateDB("bank", 1<<20)
		if err != nil {
			return nil, nil, err
		}
		buf := db.Bytes()
		cycle := func(k int) error {
			tx, err := lib.BeginTx()
			if err != nil {
				return err
			}
			for r := 0; r < 4; r++ {
				off := uint64(r) * (1 << 18)
				if err := tx.SetRange(db, off, 4<<10); err != nil {
					return err
				}
				buf[off] = byte(k)
			}
			start := time.Now()
			if err := tx.Commit(); err != nil {
				return err
			}
			commits = append(commits, time.Since(start))
			return nil
		}
		for k := 0; k < 8; k++ { // warm connections, pools and slots
			if err := cycle(k); err != nil {
				return nil, nil, err
			}
		}
		commits = commits[:0]
		for k := 0; k < iters; k++ {
			if err := cycle(k); err != nil {
				return nil, nil, err
			}
		}
		for i := range mirrors {
			snap := ram.Metrics().MirrorPush[i].Snapshot()
			pushMean = append(pushMean, time.Duration(snap.Mean()))
		}
		return commits, pushMean, lib.Close()
	}

	stats := func(ds []time.Duration) (mean, p99 time.Duration) {
		if len(ds) == 0 {
			return 0, 0
		}
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, d := range sorted {
			sum += d
		}
		return sum / time.Duration(len(sorted)), sorted[len(sorted)*99/100]
	}

	fmt.Fprintf(w, "Commit path over loopback TCP — %d mirrors, %d txs, %v modelled RTT per write, wall-clock\n", nMirrors, iters, netDelay)
	fmt.Fprintf(w, "%12s %14s %14s   %s\n", "fan-out", "commit mean", "commit p99", "per-mirror push mean")
	var means [2]time.Duration
	for i, mode := range []string{"serial", "parallel"} {
		commits, pushMean, err := measure(mode == "serial")
		if err != nil {
			return err
		}
		mean, p99 := stats(commits)
		means[i] = mean
		var per []string
		for _, d := range pushMean {
			per = append(per, d.Round(time.Microsecond).String())
		}
		fmt.Fprintf(w, "%12s %14s %14s   %s\n", mode,
			mean.Round(time.Microsecond), p99.Round(time.Microsecond), strings.Join(per, " "))
	}
	fmt.Fprintf(w, "parallel/serial commit mean: %.2fx (sum across mirrors → max across mirrors; 1/%d = %.2fx is the data-push ideal)\n",
		float64(means[1])/float64(means[0]), nMirrors, 1/float64(nMirrors))
	return nil
}

// fanoutResult is one row of the fanout microbenchmark, for -bench-out.
type fanoutResult struct {
	Mirrors int    `json:"mirrors"`
	Mode    string `json:"mode"`
	Quorum  int    `json:"quorum,omitempty"`
	NsPerOp int64  `json:"ns_per_op"`
}

// slowWrite wraps a transport, adding a fixed real-time delay to every
// remote write — a stand-in for a LAN round trip, so the fan-out
// speedup is visible on the wall clock even with in-process mirrors.
type slowWrite struct {
	transport.Transport
	delay time.Duration
}

func (s *slowWrite) Write(seg uint32, offset uint64, data []byte) error {
	time.Sleep(s.delay)
	return s.Transport.Write(seg, offset, data)
}

func (s *slowWrite) WriteBatch(writes []transport.BatchWrite) error {
	time.Sleep(s.delay)
	if bw, ok := s.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, wr := range writes {
		if err := s.Transport.Write(wr.Seg, wr.Offset, wr.Data); err != nil {
			return err
		}
	}
	return nil
}

// runFanout times Push over 1, 2 and 4 delayed mirrors, serial loop vs
// parallel fan-out, on the wall clock. Named-only: its output is timing
// of this host, not a reproduced figure.
func runFanout(w io.Writer, txs int) error {
	const delay = 200 * time.Microsecond
	iters := txs / 10
	if iters < 50 {
		iters = 50
	}
	if iters > 300 {
		iters = 300
	}
	fmt.Fprintf(w, "Mirror fan-out microbenchmark — %v per-write mirror delay, %d pushes of 4 KiB, wall-clock\n", delay, iters)
	fmt.Fprintf(w, "%8s %14s %14s %10s\n", "mirrors", "serial/op", "parallel/op", "speedup")
	var results []fanoutResult
	for _, nm := range []int{1, 2, 4} {
		perOp := map[string]time.Duration{}
		for _, mode := range []string{"serial", "parallel"} {
			var opts []netram.Option
			if mode == "serial" {
				opts = append(opts, netram.WithSerialFanout())
			}
			var mirrors []netram.Mirror
			for i := 0; i < nm; i++ {
				srv := memserver.New(memserver.WithLabel(fmt.Sprintf("m%d", i)))
				tr, err := transport.NewInProc(srv, sci.DefaultParams(), simclock.NewWall())
				if err != nil {
					return err
				}
				mirrors = append(mirrors, netram.Mirror{
					Name: srv.Label(), T: &slowWrite{Transport: tr, delay: delay},
				})
			}
			c, err := netram.NewClient(mirrors, opts...)
			if err != nil {
				return err
			}
			reg, err := c.Malloc("bench", 64<<10)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ { // warm workers and pools
				if err := c.Push(reg, 0, 4096); err != nil {
					return err
				}
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := c.Push(reg, uint64(i%16)*4096, 4096); err != nil {
					return err
				}
			}
			perOp[mode] = time.Since(start) / time.Duration(iters)
			results = append(results, fanoutResult{Mirrors: nm, Mode: mode, NsPerOp: perOp[mode].Nanoseconds()})
			c.Close()
		}
		fmt.Fprintf(w, "%8d %14s %14s %9.2fx\n", nm,
			perOp["serial"].Round(time.Microsecond), perOp["parallel"].Round(time.Microsecond),
			float64(perOp["serial"])/float64(perOp["parallel"]))
	}
	// Quorum sweep: same rig plus one 10x-slow straggler mirror. The
	// all-ack arm pays the straggler on every push; the w-of-n arm
	// returns at the fast mirrors' pace while the straggler catches up
	// asynchronously — the gap is the headline number BENCH_quorum.json
	// tracks.
	if quorumW > 0 {
		const slowFactor = 10
		const nm = 3
		if quorumW >= nm {
			return fmt.Errorf("-quorum %d must be below the %d-mirror sweep rig so a straggler exists", quorumW, nm)
		}
		fmt.Fprintf(w, "\nQuorum sweep — %d mirrors, one with %v per-write delay (%dx straggler), %d pushes of 4 KiB\n",
			nm, slowFactor*delay, slowFactor, iters)
		fmt.Fprintf(w, "%12s %14s\n", "join", "latency/op")
		arms := []struct {
			label string
			qw    int
		}{{"all-ack", 0}, {fmt.Sprintf("quorum-%d", quorumW), quorumW}}
		for _, arm := range arms {
			var opts []netram.Option
			if arm.qw > 0 {
				opts = append(opts, netram.WithQuorum(arm.qw))
			}
			var mirrors []netram.Mirror
			for i := 0; i < nm; i++ {
				srv := memserver.New(memserver.WithLabel(fmt.Sprintf("q%d", i)))
				tr, err := transport.NewInProc(srv, sci.DefaultParams(), simclock.NewWall())
				if err != nil {
					return err
				}
				d := delay
				if i == nm-1 {
					d = slowFactor * delay
				}
				mirrors = append(mirrors, netram.Mirror{
					Name: srv.Label(), T: &slowWrite{Transport: tr, delay: d},
				})
			}
			c, err := netram.NewClient(mirrors, opts...)
			if err != nil {
				return err
			}
			reg, err := c.Malloc("bench", 64<<10)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ { // warm workers and pools
				if err := c.Push(reg, 0, 4096); err != nil {
					return err
				}
			}
			c.WaitCatchUp()
			var timed time.Duration
			for i := 0; i < iters; i++ {
				t0 := time.Now()
				if err := c.Push(reg, uint64(i%16)*4096, 4096); err != nil {
					return err
				}
				timed += time.Since(t0)
				if arm.qw > 0 && (i+1)%32 == 0 {
					// Drain the straggler outside the timed window so the
					// bounded catch-up queue never overflows into a
					// degrade mid-measurement.
					c.WaitCatchUp()
				}
			}
			c.WaitCatchUp()
			perOp := timed / time.Duration(iters)
			fmt.Fprintf(w, "%12s %14s\n", arm.label, perOp.Round(time.Microsecond))
			results = append(results, fanoutResult{
				Mirrors: nm, Mode: "slow-" + arm.label, Quorum: arm.qw, NsPerOp: perOp.Nanoseconds(),
			})
			c.Close()
		}
	}
	out := map[string]any{
		"experiment":     "fanout",
		"write_delay_ns": delay.Nanoseconds(),
		"pushes":         iters,
		"results":        results,
	}
	if quorumW > 0 {
		// The fan-out rows plus the straggler arms: its own artifact
		// (BENCH_quorum.json), so it says which.
		out["experiment"] = "quorum"
		out["quorum"] = quorumW
	}
	benchResults = out
	return nil
}

// slowPipe wraps a transport with a mutex-serialised fixed service time
// per remote write: a model of one mirror link that handles one write at
// a time. Concurrent committers on the same shard queue behind its pipe;
// committers on different shards proceed on independent pipes — which is
// exactly the capacity argument for sharding, made measurable on the
// wall clock.
type slowPipe struct {
	transport.Transport
	delay time.Duration
	mu    sync.Mutex
}

func (s *slowPipe) Write(seg uint32, offset uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.delay)
	return s.Transport.Write(seg, offset, data)
}

func (s *slowPipe) WriteBatch(writes []transport.BatchWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.delay)
	if bw, ok := s.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, wr := range writes {
		if err := s.Transport.Write(wr.Seg, wr.Offset, wr.Data); err != nil {
			return err
		}
	}
	return nil
}

// shardResult is one row of the shard scaling experiment, for -bench-out.
type shardResult struct {
	Shards       int     `json:"shards"`
	Workers      int     `json:"workers"`
	Txs          int     `json:"txs"`
	AggregateTPS float64 `json:"aggregate_tps"`
	SpeedupVs1   float64 `json:"speedup_vs_1"`
}

// runShard measures aggregate single-shard-transaction throughput as the
// region namespace partitions across more router shards. Each shard owns
// one mirror behind a serialised slow pipe; with one shard every worker
// queues behind the same link, with N shards the load spreads over N
// independent links. Named-only: the numbers are wall-clock timing of
// this host, not a reproduced figure.
func runShard(w io.Writer, txs int) error {
	counts, err := parseShardCounts(shardCSV)
	if err != nil {
		return err
	}
	const (
		// A commit is one write exchange per mirror, so one exchange's
		// service time is the whole of a transaction's claim on its
		// link: 300µs keeps that claim what it was when a commit was
		// three exchanges of 100µs, and the sweep link-bound — which is
		// what it exists to show — rather than bound by this host's CPUs.
		delay   = 300 * time.Microsecond
		workers = 8
	)
	perWorker := txs / workers
	if perWorker < 10 {
		perWorker = 10
	}
	if perWorker > 250 {
		perWorker = 250
	}
	fmt.Fprintf(w, "Shard scaling — %d workers, %d single-shard txs each, %v serialised link delay per write, wall-clock\n",
		workers, perWorker, delay)
	fmt.Fprintf(w, "%8s %14s %10s\n", "shards", "aggregate tps", "speedup")
	var results []shardResult
	var baseTPS float64
	for _, nShards := range counts {
		tps, err := runShardOnce(nShards, workers, perWorker, delay)
		if err != nil {
			return err
		}
		if baseTPS == 0 {
			baseTPS = tps
		}
		speedup := tps / baseTPS
		results = append(results, shardResult{
			Shards: nShards, Workers: workers, Txs: workers * perWorker,
			AggregateTPS: math.Round(tps), SpeedupVs1: math.Round(speedup*100) / 100,
		})
		fmt.Fprintf(w, "%8d %14.0f %9.2fx\n", nShards, tps, speedup)
	}
	benchResults = map[string]any{
		"experiment":     "shard",
		"write_delay_ns": delay.Nanoseconds(),
		"results":        results,
	}
	return nil
}

// parseShardCounts parses the -shards CSV.
func parseShardCounts(csv string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("-shards: bad shard count %q", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-shards: no shard counts in %q", csv)
	}
	return counts, nil
}

// runShardOnce builds an nShards router over slow-piped mirrors and
// drives it with workers concurrent committers, each touching only its
// own database, spread evenly across the shards.
func runShardOnce(nShards, workers, perWorker int, delay time.Duration) (tps float64, err error) {
	clock := simclock.NewWall()
	var libs []*core.Library
	for s := 0; s < nShards; s++ {
		srv := memserver.New(memserver.WithLabel(fmt.Sprintf("shard%d-remote-0", s)))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			return 0, err
		}
		ram, err := netram.NewClient([]netram.Mirror{
			{Name: srv.Label(), T: &slowPipe{Transport: tr, delay: delay}},
		})
		if err != nil {
			return 0, err
		}
		lib, err := core.Init(ram, clock)
		if err != nil {
			return 0, err
		}
		libs = append(libs, lib)
	}
	r, err := router.New(libs)
	if err != nil {
		return 0, err
	}
	defer r.Close()

	// One database per worker, placed round-robin across the shards by
	// picking names whose hash lands on the wanted shard.
	dbs := make([]engine.DB, workers)
	for w := 0; w < workers; w++ {
		want := w % nShards
		var name string
		for i := 0; ; i++ {
			name = fmt.Sprintf("acct-%d-%d", w, i)
			if r.ShardFor(name) == want {
				break
			}
		}
		db, err := r.CreateDB(name, 1<<20)
		if err != nil {
			return 0, err
		}
		if err := r.InitDB(db); err != nil {
			return 0, err
		}
		dbs[w] = db
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db := dbs[w]
			buf := db.Bytes()
			for k := 0; k < perWorker; k++ {
				tx, err := r.Begin()
				if err != nil {
					errs[w] = err
					return
				}
				// Four 64-byte account updates per transaction, like the
				// debit-credit records.
				for rg := 0; rg < 4; rg++ {
					off := uint64(rg)*(256<<10) + uint64(k%64)*64
					if err := tx.SetRange(db, off, 64); err != nil {
						errs[w] = err
						_ = tx.Abort()
						return
					}
					buf[off] = byte(k)
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(workers*perWorker) / elapsed.Seconds(), nil
}

func runLatency(w io.Writer, txs int) error {
	var results []bench.Result
	for _, b := range rig.All() {
		lab, err := b.Build(defaultConfig())
		if err != nil {
			return err
		}
		workload, err := bench.NewDebitCredit(0, 0)
		if err != nil {
			return err
		}
		n := txs
		if b.Name == "rvm" || b.Name == "rvm-group" {
			n = min(n, 300)
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, n, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		results = append(results, res)
	}
	bench.RenderLatency(w, results)
	return nil
}

func runMixed(w io.Writer, txs int) error {
	fmt.Fprintln(w, "Read/write mix — PERSEAS (reads are local loads)")
	fmt.Fprintf(w, "%12s %12s %12s\n", "read frac", "tps", "per-tx")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99} {
		lab, err := rig.NewPerseas(defaultConfig())
		if err != nil {
			return err
		}
		workload, err := bench.NewMixed(1<<20, frac, 64)
		if err != nil {
			return err
		}
		res, err := bench.Run(lab.Engine, lab.Clock, workload, txs, 42)
		if err != nil {
			return err
		}
		_ = lab.Close()
		fmt.Fprintf(w, "%12.2f %12.0f %12v\n", frac, res.TPS, res.PerTx)
	}
	return nil
}

// scaleSCI speeds every interconnect constant up by factor f.
func scaleSCI(p sci.Params, f float64) sci.Params {
	scale := func(d time.Duration) time.Duration {
		v := time.Duration(float64(d) / f)
		if v < time.Nanosecond {
			v = time.Nanosecond
		}
		return v
	}
	p.PIOWordCost = scale(p.PIOWordCost)
	p.PacketBase = scale(p.PacketBase)
	p.Packet64Cost = scale(p.Packet64Cost)
	p.Packet64Streamed = scale(p.Packet64Streamed)
	p.Packet16Cost = scale(p.Packet16Cost)
	p.Packet16Streamed = scale(p.Packet16Streamed)
	p.HopCost = scale(p.HopCost)
	return p
}

// scaleDisk speeds the disk up by factor f.
func scaleDisk(p disk.Params, f float64) disk.Params {
	p.SeekAvg = time.Duration(float64(p.SeekAvg) / f)
	p.RotationalHalf = time.Duration(float64(p.RotationalHalf) / f)
	p.BytesPerSecond *= f
	return p
}

func runTrend(w io.Writer, txs int) error {
	var rows []bench.TrendRow
	for year := 0; year <= 10; year += 2 {
		netF := math.Pow(1.30, float64(year))
		diskF := math.Pow(1.15, float64(year))

		cfg := defaultConfig()
		sp := scaleSCI(sci.DefaultParams(), netF)
		cfg.SCIParams = &sp
		perseasLab, err := rig.NewPerseas(cfg)
		if err != nil {
			return err
		}
		wl, err := bench.NewDebitCredit(0, 0)
		if err != nil {
			return err
		}
		pres, err := bench.Run(perseasLab.Engine, perseasLab.Clock, wl, txs, 42)
		if err != nil {
			return err
		}
		_ = perseasLab.Close()

		dcfg := defaultConfig()
		dp := scaleDisk(disk.DefaultParams(dcfg.DeviceSize), diskF)
		dcfg.DiskParams = &dp
		dcfg.GroupCommit = true
		rvmLab, err := rig.NewRVM(dcfg)
		if err != nil {
			return err
		}
		wl2, err := bench.NewDebitCredit(0, 0)
		if err != nil {
			return err
		}
		dres, err := bench.Run(rvmLab.Engine, rvmLab.Clock, wl2, min(txs, 400), 42)
		if err != nil {
			return err
		}
		_ = rvmLab.Close()

		rows = append(rows, bench.TrendRow{
			Year:       year,
			PerseasTPS: pres.TPS,
			DiskTPS:    dres.TPS,
		})
	}
	bench.RenderTrend(w, rows)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
