// Package rig assembles ready-to-run laboratory set-ups: each transaction
// engine wired to its substrates over a shared deterministic clock. The
// benchmark harness, the command-line tools and the Go benchmarks all
// build their engines here so every reproduced figure uses identical
// configurations.
package rig

import (
	"fmt"

	"github.com/ics-forth/perseas/internal/aries"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/disk"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/riofs"
	"github.com/ics-forth/perseas/internal/riorvm"
	"github.com/ics-forth/perseas/internal/router"
	"github.com/ics-forth/perseas/internal/rvm"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/vista"
	"github.com/ics-forth/perseas/internal/walnet"
)

// Config sizes the laboratory.
type Config struct {
	// Mirrors is the PERSEAS/WAL-net replication degree (>= 1).
	Mirrors int
	// Spares is how many standby memory nodes to provision beyond the
	// mirror set. Spares idle until a guardian promotes one to replace
	// a dead mirror.
	Spares int
	// DeviceSize is the simulated disk capacity for disk-backed
	// engines.
	DeviceSize uint64
	// StoreSize is the image+log store size for Rio/WAL-net engines.
	StoreSize uint64
	// LogSize is the redo log capacity for WAL engines.
	LogSize uint64
	// UndoLogSize is the PERSEAS/Vista undo log capacity.
	UndoLogSize uint64
	// UPS marks Rio machines as UPS-protected.
	UPS bool
	// NoAlignment disables the PERSEAS 64-byte push expansion
	// (ablation).
	NoAlignment bool
	// NoRemoteUndo disables the PERSEAS remote undo-log push
	// (ablation; breaks recoverability, measurement only).
	NoRemoteUndo bool
	// HardwareMirroring models a NIC with transparent mirroring support
	// (PRAM / Telegraphos / SHRIMP): one store reaches every mirror for
	// the price of one.
	HardwareMirroring bool
	// SCIParams overrides the interconnect timing constants (used by
	// the technology-trend experiment). Zero value selects the
	// calibrated defaults.
	SCIParams *sci.Params
	// DiskParams overrides the magnetic-disk timing for disk-backed
	// engines; nil selects the defaults for DeviceSize.
	DiskParams *disk.Params
	// GroupCommit enables RVM group commit.
	GroupCommit bool
	// GroupSize is the RVM group-commit batch bound.
	GroupSize int
	// Tracer, when non-nil, records per-transaction span trees in
	// PERSEAS labs. The recorder's clock is pointed at the lab's
	// SimClock, so span timestamps are modelled time; recording never
	// advances the clock, leaving reproduced figures untouched.
	Tracer *trace.Recorder
	// Flight, when non-nil, is the anomaly flight recorder every
	// shard's netram client reports into. Like the tracer it only
	// reads the clock, so enabling it must not move a figure.
	Flight *flight.Recorder
	// Shards partitions the PERSEAS region namespace across this many
	// independent instances behind a router (0 and 1 both mean the plain
	// unsharded library). Each shard gets its own mirror set, conflict
	// table and undo logs on the shared clock.
	Shards int
	// RouterSingle forces the router wrapper even at one shard. The
	// single-shard router is a pure pass-through — identical mirrors,
	// labels and commit path — so figures must not move; the byte-identity
	// regression test builds labs both ways and compares output.
	RouterSingle bool
	// Quorum, when positive, makes pushes durable at this many mirror
	// acks instead of all of them (netram.WithQuorum); stragglers catch
	// up asynchronously. Zero keeps the historical all-ack join, so
	// every reproduced figure is untouched.
	Quorum int
	// RecoveryParallelism, when > 1, is the width of PERSEAS crash
	// recovery's phase pipeline (core.WithRecoveryParallelism). 0 and 1
	// run the same pipeline inline; the modelled recovery figures are
	// the same at every width.
	RecoveryParallelism int
	// RebuildPipeline, when > 1, keeps that many chunks of the guardian
	// rebuild's copy in flight and stripes their reads across the
	// surviving mirrors (netram.WithRebuildPipeline). 0 and 1 run the
	// same chunk loop inline.
	RebuildPipeline int
}

// DefaultConfig fits the paper's benchmarks: databases up to a few tens
// of megabytes, logs sized generously.
func DefaultConfig() Config {
	return Config{
		Mirrors:     1,
		DeviceSize:  96 << 20,
		StoreSize:   64 << 20,
		LogSize:     16 << 20,
		UndoLogSize: 8 << 20,
		GroupSize:   32,
	}
}

// Lab is one wired engine plus the handles tests and benchmarks poke at.
type Lab struct {
	Engine engine.Engine
	Clock  *simclock.SimClock
	// Servers holds the remote memory nodes of network-RAM engines.
	Servers []*memserver.Server
	// Net is the network-RAM client of PERSEAS/WAL-net labs.
	Net *netram.Client
	// SpareServers holds the standby memory nodes (Config.Spares of
	// them) a guardian may promote.
	SpareServers []*memserver.Server
	// Spares are the standby nodes as ready replacement mirrors, in
	// promotion order.
	Spares []netram.Mirror
	// Dev is the magnetic disk of disk-backed labs.
	Dev *disk.Disk
	// Rio is the file cache of Rio-backed labs.
	Rio *riofs.Store
	// Router is the shard router of sharded PERSEAS labs (also set with
	// RouterSingle). Engine aliases it.
	Router *router.Router
	// ShardLabs holds each shard's substrate handles in shard order. For
	// compatibility, the Lab-level Servers/Net/Spares fields alias shard
	// 0's.
	ShardLabs []*ShardLab
}

// Close closes the engine and stops the sender workers of every
// network-RAM client behind it. The workers reference their client, and
// through it every region the lab mapped, for as long as they run: a
// process that builds labs in a loop must close each one.
func (l *Lab) Close() error {
	err := l.Engine.Close()
	if l.Net != nil {
		l.Net.Close()
	}
	for _, sl := range l.ShardLabs {
		sl.Net.Close()
	}
	return err
}

// ShardLab is one shard's slice of a sharded PERSEAS lab.
type ShardLab struct {
	Lib          *core.Library
	Net          *netram.Client
	Servers      []*memserver.Server
	Spares       []netram.Mirror
	SpareServers []*memserver.Server
}

// Builder constructs one lab; the string names the engine it builds.
type Builder struct {
	Name  string
	Build func(Config) (*Lab, error)
}

// sciParams picks the configured or default interconnect constants.
func (cfg Config) sciParams() sci.Params {
	if cfg.SCIParams != nil {
		return *cfg.SCIParams
	}
	return sci.DefaultParams()
}

// diskParams picks the configured or default disk constants.
func (cfg Config) diskParams() disk.Params {
	if cfg.DiskParams != nil {
		return *cfg.DiskParams
	}
	return disk.DefaultParams(cfg.DeviceSize)
}

// newNetRAM wires a mirror set over one clock. With hardware mirroring
// the whole group hides behind one transport whose NIC duplicates every
// store; otherwise each mirror is a separate software-managed node.
func newNetRAM(cfg Config, clock *simclock.SimClock, opts ...netram.Option) (*netram.Client, []*memserver.Server, error) {
	return newNetRAMLabeled(cfg, clock, "", opts...)
}

// newNetRAMLabeled is newNetRAM with a node-label prefix, so each shard
// of a sharded lab gets a distinguishable mirror set. The empty prefix
// reproduces the historical labels exactly.
func newNetRAMLabeled(cfg Config, clock *simclock.SimClock, prefix string, opts ...netram.Option) (*netram.Client, []*memserver.Server, error) {
	if cfg.Mirrors < 1 {
		return nil, nil, fmt.Errorf("rig: mirrors = %d, need >= 1", cfg.Mirrors)
	}
	params := cfg.sciParams()
	var servers []*memserver.Server
	for i := 0; i < cfg.Mirrors; i++ {
		servers = append(servers, memserver.New(memserver.WithLabel(fmt.Sprintf("%sremote-%d", prefix, i))))
	}
	var mirrors []netram.Mirror
	if cfg.HardwareMirroring {
		hw, err := transport.NewHWMirror(servers, params, clock)
		if err != nil {
			return nil, nil, err
		}
		mirrors = []netram.Mirror{{Name: prefix + "hw-group", T: hw}}
	} else {
		for i, srv := range servers {
			// Mirror i sits i hops further down the SCI ring.
			tr, err := transport.NewInProc(srv, params, clock, transport.WithHops(i, params))
			if err != nil {
				return nil, nil, err
			}
			mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
		}
	}
	client, err := netram.NewClient(mirrors, opts...)
	if err != nil {
		return nil, nil, err
	}
	return client, servers, nil
}

// newSpares provisions the standby node pool on the same clock and
// interconnect model as the mirror set. A spare sits one hop past the
// farthest mirror — the next idle workstation down the ring.
func newSpares(cfg Config, clock *simclock.SimClock) ([]netram.Mirror, []*memserver.Server, error) {
	return newSparesLabeled(cfg, clock, "")
}

// newSparesLabeled is newSpares with a node-label prefix (see
// newNetRAMLabeled).
func newSparesLabeled(cfg Config, clock *simclock.SimClock, prefix string) ([]netram.Mirror, []*memserver.Server, error) {
	params := cfg.sciParams()
	var spares []netram.Mirror
	var servers []*memserver.Server
	for i := 0; i < cfg.Spares; i++ {
		srv := memserver.New(memserver.WithLabel(fmt.Sprintf("%sspare-%d", prefix, i)))
		tr, err := transport.NewInProc(srv, params, clock, transport.WithHops(cfg.Mirrors+i, params))
		if err != nil {
			return nil, nil, err
		}
		spares = append(spares, netram.Mirror{Name: srv.Label(), T: tr})
		servers = append(servers, srv)
	}
	return spares, servers, nil
}

// NewPerseas builds the PERSEAS lab: the plain library by default, or
// Config.Shards independent instances behind a router. Every shard rides
// the same simulated clock and interconnect model; at one shard without
// RouterSingle the construction is exactly the historical one.
func NewPerseas(cfg Config) (*Lab, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	clock := simclock.NewSim()
	var nopts []netram.Option
	if cfg.NoAlignment {
		nopts = append(nopts, netram.WithoutAlignment())
	}
	if cfg.Quorum > 0 {
		nopts = append(nopts, netram.WithQuorum(cfg.Quorum))
	}
	if cfg.RebuildPipeline > 1 {
		nopts = append(nopts, netram.WithRebuildPipeline(cfg.RebuildPipeline))
	}
	copts := []core.Option{core.WithUndoLogSize(cfg.UndoLogSize)}
	if cfg.NoRemoteUndo {
		copts = append(copts, core.WithUnsafeNoRemoteUndo())
	}
	if cfg.Tracer != nil {
		copts = append(copts, core.WithTracer(cfg.Tracer))
	}
	if cfg.Flight != nil {
		copts = append(copts, core.WithFlightRecorder(cfg.Flight))
	}
	if cfg.RecoveryParallelism > 1 {
		copts = append(copts, core.WithRecoveryParallelism(cfg.RecoveryParallelism))
	}

	buildShard := func(prefix string) (*ShardLab, error) {
		net, servers, err := newNetRAMLabeled(cfg, clock, prefix, nopts...)
		if err != nil {
			return nil, err
		}
		if cfg.Tracer != nil {
			net.SetTracer(cfg.Tracer)
		}
		if cfg.Flight != nil {
			net.SetFlight(cfg.Flight)
		}
		lib, err := core.Init(net, clock, copts...)
		if err != nil {
			return nil, err
		}
		spares, spareServers, err := newSparesLabeled(cfg, clock, prefix)
		if err != nil {
			return nil, err
		}
		return &ShardLab{Lib: lib, Net: net, Servers: servers,
			Spares: spares, SpareServers: spareServers}, nil
	}

	if shards == 1 && !cfg.RouterSingle {
		sl, err := buildShard("")
		if err != nil {
			return nil, err
		}
		return &Lab{Engine: sl.Lib, Clock: clock, Servers: sl.Servers, Net: sl.Net,
			Spares: sl.Spares, SpareServers: sl.SpareServers}, nil
	}

	lab := &Lab{Clock: clock}
	var libs []*core.Library
	for s := 0; s < shards; s++ {
		prefix := ""
		if shards > 1 {
			prefix = fmt.Sprintf("shard%d-", s)
		}
		sl, err := buildShard(prefix)
		if err != nil {
			return nil, err
		}
		lab.ShardLabs = append(lab.ShardLabs, sl)
		libs = append(libs, sl.Lib)
	}
	r, err := router.New(libs)
	if err != nil {
		return nil, err
	}
	lab.Engine = r
	lab.Router = r
	lab.Servers = lab.ShardLabs[0].Servers
	lab.Net = lab.ShardLabs[0].Net
	lab.Spares = lab.ShardLabs[0].Spares
	lab.SpareServers = lab.ShardLabs[0].SpareServers
	return lab, nil
}

// NewRVM builds the classic disk-backed RVM lab.
func NewRVM(cfg Config) (*Lab, error) {
	clock := simclock.NewSim()
	dev, err := disk.New(cfg.diskParams(), clock)
	if err != nil {
		return nil, err
	}
	opts := rvm.DefaultOptions()
	opts.LogSize = cfg.LogSize
	opts.GroupCommit = cfg.GroupCommit
	opts.GroupSize = cfg.GroupSize
	eng, err := rvm.New(rvm.NewDiskStore(dev), clock, opts)
	if err != nil {
		return nil, err
	}
	return &Lab{Engine: engine.NewSequential(eng), Clock: clock, Dev: dev}, nil
}

// NewRioRVM builds the RVM-on-Rio lab.
func NewRioRVM(cfg Config) (*Lab, error) {
	clock := simclock.NewSim()
	p := riofs.DefaultParams()
	p.HasUPS = cfg.UPS
	rio := riofs.New(p, clock)
	opts := rvm.DefaultOptions()
	opts.LogSize = cfg.LogSize
	eng, err := riorvm.New(rio, cfg.StoreSize, clock, opts)
	if err != nil {
		return nil, err
	}
	return &Lab{Engine: engine.NewSequential(eng), Clock: clock, Rio: rio}, nil
}

// NewVista builds the Vista lab.
func NewVista(cfg Config) (*Lab, error) {
	clock := simclock.NewSim()
	p := riofs.DefaultParams()
	p.HasUPS = cfg.UPS
	rio := riofs.New(p, clock)
	opts := vista.DefaultOptions()
	opts.UndoLogSize = cfg.UndoLogSize
	eng, err := vista.New(rio, clock, opts)
	if err != nil {
		return nil, err
	}
	return &Lab{Engine: engine.NewSequential(eng), Clock: clock, Rio: rio}, nil
}

// NewWalnet builds the WAL-on-network-memory lab.
func NewWalnet(cfg Config) (*Lab, error) {
	clock := simclock.NewSim()
	net, servers, err := newNetRAM(cfg, clock, netram.WithoutAlignment())
	if err != nil {
		return nil, err
	}
	dev, err := disk.New(cfg.diskParams(), clock)
	if err != nil {
		return nil, err
	}
	opts := rvm.DefaultOptions()
	opts.LogSize = cfg.LogSize
	eng, err := walnet.New(net, dev, cfg.StoreSize, clock, opts)
	if err != nil {
		return nil, err
	}
	return &Lab{Engine: engine.NewSequential(eng), Clock: clock, Servers: servers, Net: net, Dev: dev}, nil
}

// NewARIES builds the ARIES reference baseline (cited by the paper as a
// WAL exemplar; not part of its measured comparison, so not in All).
func NewARIES(cfg Config) (*Lab, error) {
	clock := simclock.NewSim()
	dev, err := disk.New(cfg.diskParams(), clock)
	if err != nil {
		return nil, err
	}
	opts := aries.DefaultOptions()
	opts.LogSize = cfg.LogSize
	eng, err := aries.New(rvm.NewDiskStore(dev), clock, opts)
	if err != nil {
		return nil, err
	}
	return &Lab{Engine: engine.NewSequential(eng), Clock: clock, Dev: dev}, nil
}

// All returns the builders of every engine, in the order the comparison
// tables report them.
func All() []Builder {
	return []Builder{
		{Name: "perseas", Build: NewPerseas},
		{Name: "rvm", Build: NewRVM},
		{Name: "rvm-group", Build: func(cfg Config) (*Lab, error) {
			cfg.GroupCommit = true
			return NewRVM(cfg)
		}},
		{Name: "rvm-rio", Build: NewRioRVM},
		{Name: "vista", Build: NewVista},
		{Name: "wal-net", Build: NewWalnet},
	}
}
