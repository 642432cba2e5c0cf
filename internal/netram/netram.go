// Package netram implements the client side of the paper's reliable
// network RAM: a layer of main memory mirrored in the memories of one or
// more remote workstations, reachable through three major operations —
// remote malloc, remote free and remote memory copy — plus the
// reconnection call used after a crash.
//
// A Region couples a local buffer with one exported segment per mirror
// node. Push propagates a modified byte range from the local buffer to
// every mirror using the optimised sci_memcpy strategy the paper
// describes: copies of 32 bytes or more are expanded to whole 64-byte
// regions aligned on 64-byte boundaries, so the PCI-SCI card transmits
// full 64-byte packets and its store-gathering and buffer-streaming
// machinery works at peak efficiency.
package netram

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// Errors returned by the client.
var (
	// ErrNoMirrors is returned when a client is built without mirrors.
	ErrNoMirrors = errors.New("netram: at least one mirror is required")
	// ErrBadRange is returned for accesses outside a region.
	ErrBadRange = errors.New("netram: range outside region")
	// ErrAllMirrorsDown is returned when no mirror can service a fetch.
	ErrAllMirrorsDown = errors.New("netram: all mirrors are down")
	// ErrRebuildInProgress is returned by topology operations that
	// cannot run while an online mirror rebuild is in flight.
	ErrRebuildInProgress = errors.New("netram: mirror rebuild in progress")
)

// DefaultAlignThreshold is the copy size, in bytes, at and above which
// sci_memcpy expands the copy to whole 64-byte aligned regions (Section 4
// of the paper).
const DefaultAlignThreshold = 32

// maxReadChunk bounds a single remote read. Fetch and Verify split
// larger transfers into chunks of this size, so regions past 4 GiB are
// read back correctly (a single Read carries a uint32 length) and no
// transfer ever exceeds the wire protocol's frame limit.
const maxReadChunk = 16 << 20

// Mirror names one remote node and the transport reaching it.
type Mirror struct {
	// Name labels the node in errors ("remote-0", a hostname, ...).
	Name string
	// T is the connection to the node's memory server.
	T transport.Transport
}

// Stats aggregates client traffic. It is a plain comparable snapshot
// assembled from the client's lock-free metrics.
type Stats struct {
	// Pushes counts Push calls; PushedBytes counts the payload bytes
	// the caller asked to propagate.
	Pushes      uint64
	PushedBytes uint64
	// WireBytes counts bytes actually sent per mirror write, including
	// alignment expansion.
	WireBytes uint64
	// Fetches counts recovery reads.
	Fetches      uint64
	FetchedBytes uint64
}

// Metrics are the client's lock-free observability primitives: the
// legacy Stats counters plus latency histograms and failure-handling
// counters. Latencies are measured as clock deltas — on a simulated
// clock they report modelled time without ever advancing it.
type Metrics struct {
	Pushes       obs.Counter
	PushedBytes  obs.Counter
	WireBytes    obs.Counter
	Fetches      obs.Counter
	FetchedBytes obs.Counter
	// PushLatency / FetchLatency are nanoseconds per successful
	// Push/PushMany and Fetch call.
	PushLatency  obs.Histogram
	FetchLatency obs.Histogram
	// Retries counts write attempts replayed after a transient failure
	// on a mirror that still answered pings.
	Retries obs.Counter
	// Degradations counts mirrors marked down (each transition counts
	// once; Revive re-arms the mirror).
	Degradations obs.Counter
	// Rebuilds counts completed mirror rebuilds; RebuildBytes counts
	// the bytes copied onto replacement nodes (bulk copy plus catch-up
	// epochs).
	Rebuilds     obs.Counter
	RebuildBytes obs.Counter
	// MirrorPush holds one latency histogram per mirror slot, so a
	// slow replica is visible individually instead of hiding in the
	// aggregate PushLatency.
	MirrorPush []obs.Histogram
	// Fanouts counts pushes whose jobs ran on the sender workers (two or
	// more eligible mirrors, not inline).
	Fanouts obs.Counter
	// AckDepth is the number of mirror acks a push had collected when it
	// returned to the caller.
	AckDepth obs.Histogram
	// CatchUpOverflows counts writes dropped because a lagging mirror's
	// bounded catch-up queue was full; each drop degrades the mirror and
	// hands it to the guardian's revive/rebuild path.
	CatchUpOverflows obs.Counter
	// RebuildSourceBytes holds one counter per mirror slot: the bytes
	// that slot served as the read side of rebuild copies. With striped
	// rebuild reads the load spreads across the survivors; these
	// counters are the evidence.
	RebuildSourceBytes []obs.Counter
}

// Client is a reliable-network-RAM client bound to a fixed mirror set.
// It is safe for concurrent use: data-path operations (Push, PushMany,
// Fetch) of different transactions interleave freely, while topology
// changes (Malloc, Free, Connect, Revive, ReplaceMirror) exclude them.
type Client struct {
	alignThreshold int
	alignDisabled  bool
	readChunk      uint64
	// clock timestamps the latency histograms; it is only ever read
	// (Now), never advanced, so instrumentation cannot perturb a
	// simulated run. Defaults to the wall clock.
	clock simclock.Clock
	// tracer records infrastructure spans (rebuild phases); nil disables.
	// Set once during wiring, before the data path runs.
	tracer *trace.Recorder
	// flight records mirror anomalies (degradations, push retries,
	// catch-up overflows); nil disables. Set once during wiring.
	flight *flight.Recorder

	// topoMu guards the mirror set, the region list and every region's
	// handles. Data-path operations hold the read lock for their whole
	// duration, so a reintegration never swaps a mirror out from under an
	// in-flight push.
	topoMu  sync.RWMutex
	mirrors []Mirror
	// regions tracks every live region in creation order so a repaired
	// mirror can be reintegrated with full contents.
	regions []*Region

	// stateMu guards changes to the health flags, which the data path
	// makes while holding only the topology read lock. Traffic counters
	// live in metrics and are lock-free.
	stateMu sync.Mutex
	// down[i] marks mirror i as failed: the paper's design keeps the
	// database available through the surviving mirrors, so pushes skip
	// dead nodes instead of stalling the application. Written under
	// stateMu (one degradation per outage); read lock-free, because
	// every job of every push reads it.
	down []atomic.Bool
	// rebuildSlot is the index of the mirror an online rebuild is
	// replacing (-1 when idle), guarded by stateMu. One rebuild runs at
	// a time; Revive and ReplaceMirror refuse while it is in flight.
	rebuildSlot int
	metrics     Metrics

	// While a rebuild's bulk copy runs, tracking is on and the data
	// path records every pushed wire range in dirty, so the catch-up
	// epochs replay exactly what changed without ever blocking pushes.
	// The flag is checked lock-free on the push fast path.
	tracking atomic.Bool
	dirtyMu  sync.Mutex
	dirty    map[string][]Range

	// rebuildPipeline is the depth of RebuildMirror's chunk loop: at 1
	// (the default) it runs on the caller's goroutine, strictly
	// read-then-write from the first survivor; n >= 2 keeps up to n
	// chunks in flight, their reads striped round-robin across the
	// surviving replicas.
	rebuildPipeline int

	// Fan-out state (fanout.go): one long-lived sender goroutine per
	// mirror slot, started lazily on the first push that hands jobs to
	// them; callPool recycles per-push join state and scratch so the
	// steady-state push path allocates nothing. serialFanout runs every
	// push's jobs inline instead. inflight[i] is set while slot i's
	// sender is executing a job; betweenJobs, when non-nil, is called by
	// a sender after each job (a test seam for parking a worker).
	serialFanout bool
	workerOnce   sync.Once
	senders      []chan *fanoutJob
	inflight     []atomic.Bool
	betweenJobs  func(slot int)
	closed       atomic.Bool
	callPool     sync.Pool
	// straggler is the last observed fan-out spread: slowest minus
	// fastest mirror completion, in clock nanoseconds.
	straggler atomic.Uint64

	// quorumW is the ack quorum: Push/PushMany return to the caller
	// after min(quorumW, mirrors written) acks, and the remaining
	// mirrors (the stragglers) complete asynchronously on their sender
	// workers. All-ack is quorumW == len(mirrors). The per-mirror
	// pending counters account every job handed to a sender: pendEnq[i]
	// counts jobs put on mirror i's queue, pendDone[i] counts those its
	// worker finished (acked, failed, or dropped because the mirror went
	// down) — both in queue order, which is what lets a Fence name "every
	// write so far" with one number per mirror. pendMu guards them and
	// pendCond wakes drainers when a job retires; sendMu[i] makes
	// send-then-count one step against other dispatchers (see enqueue).
	quorumW           int
	sendMu            []sync.Mutex
	pendMu            sync.Mutex
	pendCond          *sync.Cond
	pendEnq, pendDone []uint64
}

// Option configures a Client.
type Option func(*Client)

// WithAlignThreshold overrides the copy size at which alignment expansion
// kicks in.
func WithAlignThreshold(n int) Option {
	return func(c *Client) { c.alignThreshold = n }
}

// WithoutAlignment disables the 64-byte expansion entirely (used by the
// ablation benchmarks).
func WithoutAlignment() Option {
	return func(c *Client) { c.alignDisabled = true }
}

// WithReadChunk overrides the maximum bytes moved per remote read
// during Fetch and Verify. Tests use a tiny chunk to exercise the
// splitting without gigabyte regions.
func WithReadChunk(n uint64) Option {
	return func(c *Client) {
		if n > 0 {
			c.readChunk = n
		}
	}
}

// WithRebuildPipeline sets the depth of the rebuild's chunk loop: up to
// n chunks are in flight, their reads striped round-robin across the
// surviving replicas while completed chunks write to the replacement.
// At 1 (and any n below it) the same loop runs inline, strictly
// read-then-write from the first survivor.
func WithRebuildPipeline(n int) Option {
	return func(c *Client) {
		if n > 1 {
			c.rebuildPipeline = n
		}
	}
}

// WithSerialFanout runs every push's mirror writes inline, one after
// the other in slot order on the caller's goroutine, instead of on the
// per-mirror sender workers. Used by the fan-out benchmark's baseline
// arm and available as an escape hatch.
func WithSerialFanout() Option {
	return func(c *Client) { c.serialFanout = true }
}

// WithQuorum makes a push durable at w mirror acks instead of all of
// them: the caller returns as soon as w mirrors confirmed the write,
// while the stragglers complete asynchronously on their per-mirror
// sender workers (a bounded catch-up queue; a mirror that falls more
// than the queue length behind is degraded and handed to the guardian's
// revive/rebuild path). w is validated against the mirror count by
// NewClient; w equal to the mirror count is the all-ack default.
func WithQuorum(w int) Option {
	return func(c *Client) { c.quorumW = w }
}

// NewClient builds a client replicating to the given mirrors.
func NewClient(mirrors []Mirror, opts ...Option) (*Client, error) {
	if len(mirrors) == 0 {
		return nil, ErrNoMirrors
	}
	for i, m := range mirrors {
		if m.T == nil {
			return nil, fmt.Errorf("netram: mirror %d (%s) has no transport", i, m.Name)
		}
	}
	c := &Client{
		mirrors:        append([]Mirror(nil), mirrors...),
		alignThreshold: DefaultAlignThreshold,
		readChunk:      maxReadChunk,
		clock:          simclock.NewWall(),
		down:           make([]atomic.Bool, len(mirrors)),
		rebuildSlot:    -1,
	}
	c.metrics.MirrorPush = make([]obs.Histogram, len(mirrors))
	c.metrics.RebuildSourceBytes = make([]obs.Counter, len(mirrors))
	c.rebuildPipeline = 1
	for _, o := range opts {
		o(c)
	}
	if c.alignThreshold < 1 {
		c.alignThreshold = 1
	}
	if c.readChunk > maxReadChunk {
		// A single Read carries a uint32 length and one wire frame;
		// never exceed what both can hold.
		c.readChunk = maxReadChunk
	}
	if c.quorumW < 0 || c.quorumW > len(mirrors) {
		return nil, fmt.Errorf("netram: quorum %d outside 1..%d mirrors", c.quorumW, len(mirrors))
	}
	if c.quorumW == 0 {
		// All-ack is quorum with w = n.
		c.quorumW = len(mirrors)
	}
	if c.quorumW < len(mirrors) && c.serialFanout {
		// An inline join cannot return before the last mirror wrote.
		return nil, errors.New("netram: WithQuorum requires the parallel fan-out (drop WithSerialFanout)")
	}
	c.inflight = make([]atomic.Bool, len(mirrors))
	c.pendCond = sync.NewCond(&c.pendMu)
	c.sendMu = make([]sync.Mutex, len(mirrors))
	c.pendEnq = make([]uint64, len(mirrors))
	c.pendDone = make([]uint64, len(mirrors))
	return c, nil
}

// Quorum reports the configured ack quorum; zero means all-ack (the
// default, including clients built with WithQuorum(n) for n mirrors).
func (c *Client) Quorum() int {
	if c.quorumW == len(c.mirrors) {
		return 0
	}
	return c.quorumW
}

// CatchUpPending reports how many writes mirror i's sender has been
// handed but not yet completed — the depth of its queue. On a quorum
// client that is the mirror's catch-up lag in writes; on an all-ack
// client it is at most the number of pushes in flight.
func (c *Client) CatchUpPending(i int) int {
	if i < 0 || i >= len(c.mirrors) {
		return 0
	}
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	// A worker can retire a job before its dispatcher counted it.
	return int(max(c.pendEnq[i], c.pendDone[i]) - c.pendDone[i])
}

// WaitCatchUp blocks until every mirror has completed every write
// dispatched so far — the repair-before-read barrier: after it returns
// (and absent concurrent pushes) no live mirror lags a quorum-committed
// write.
func (c *Client) WaitCatchUp() { c.drainCatchUp() }

// drainCatchUp waits for every mirror's sender queue to empty.
// Callers that hold topoMu (read or write) rely on stragglers never
// taking the topology lock: a queued job needs only its captured Mirror
// value and segment handle to finish, so draining under topoMu.Lock
// cannot deadlock — and it is exactly what makes topology mutations
// safe, because no straggler can still reference the old topology once
// the drain returns.
func (c *Client) drainCatchUp() {
	for i := range c.pendEnq {
		c.waitIdle(i)
	}
}

// Fence captures the set of quorum writes in flight at creation time;
// Done reports whether all of them have since completed. The zero value
// (and every fence from an all-ack client, whose pushes join on every
// job before they return) is trivially done, so fence checks cost
// nothing on the default path.
type Fence struct {
	c      *Client
	target []uint64
}

// Fence snapshots the current per-mirror dispatch counts.
func (c *Client) Fence() Fence {
	if c.Quorum() == 0 {
		return Fence{}
	}
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return Fence{c: c, target: append([]uint64(nil), c.pendEnq...)}
}

// Done reports whether every write the fence covers has completed.
func (f Fence) Done() bool {
	if f.c == nil {
		return true
	}
	f.c.pendMu.Lock()
	defer f.c.pendMu.Unlock()
	for i, t := range f.target {
		if f.c.pendDone[i] < t {
			return false
		}
	}
	return true
}

// SetClock points the latency histograms at clk (the library's clock,
// so simulated runs report modelled time). The clock is only read.
func (c *Client) SetClock(clk simclock.Clock) {
	if clk != nil {
		c.clock = clk
	}
}

// SetTracer attaches a span recorder for rebuild-phase infrastructure
// spans. Call during wiring, before traffic flows; every recorder
// method is nil-safe, so a nil tracer simply records nothing.
func (c *Client) SetTracer(rec *trace.Recorder) { c.tracer = rec }

// SetFlight attaches a flight recorder for mirror anomalies. Call
// during wiring, before traffic flows; nil records nothing.
func (c *Client) SetFlight(r *flight.Recorder) { c.flight = r }

// Mirrors reports the number of mirror nodes.
func (c *Client) Mirrors() int { return len(c.mirrors) }

// Live reports how many mirrors are still considered healthy.
func (c *Client) Live() int {
	n := 0
	for i := range c.down {
		if !c.down[i].Load() {
			n++
		}
	}
	return n
}

// MirrorDown reports mirror i's health flag, for status snapshots.
func (c *Client) MirrorDown(i int) bool { return c.isDown(i) }

// isDown reads mirror i's health flag.
func (c *Client) isDown(i int) bool { return c.down[i].Load() }

// markDown records mirror i as failed; only the first transition per
// outage counts as a degradation event. The flight event carries the
// slot, not the name: markDown runs under stateMu only, and the mirror
// set may be mid-swap under topoMu.
func (c *Client) markDown(i int) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if !c.down[i].Load() {
		c.down[i].Store(true)
		c.metrics.Degradations.Inc()
		c.flight.Record(flight.MirrorDegrade, "netram", "mirror marked down", uint64(i))
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() Stats {
	return Stats{
		Pushes:       c.metrics.Pushes.Load(),
		PushedBytes:  c.metrics.PushedBytes.Load(),
		WireBytes:    c.metrics.WireBytes.Load(),
		Fetches:      c.metrics.Fetches.Load(),
		FetchedBytes: c.metrics.FetchedBytes.Load(),
	}
}

// Metrics exposes the client's lock-free counters and histograms.
func (c *Client) Metrics() *Metrics { return &c.metrics }

// RegisterMetrics registers the client's counters on reg.
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	c.RegisterMetricsPrefixed(reg, "perseas_netram")
}

// RegisterMetricsPrefixed registers the same series under a caller-chosen
// name prefix, so the clients of several shards can share one registry
// without colliding.
func (c *Client) RegisterMetricsPrefixed(reg *obs.Registry, prefix string) {
	m := &c.metrics
	reg.RegisterCounter(prefix+"_pushes_total", "Push/PushMany range propagations", &m.Pushes)
	reg.RegisterCounter(prefix+"_pushed_bytes_total", "payload bytes pushed", &m.PushedBytes)
	reg.RegisterCounter(prefix+"_wire_bytes_total", "bytes sent including alignment expansion", &m.WireBytes)
	reg.RegisterCounter(prefix+"_fetches_total", "recovery reads", &m.Fetches)
	reg.RegisterCounter(prefix+"_fetched_bytes_total", "bytes fetched back", &m.FetchedBytes)
	reg.RegisterHistogram(prefix+"_push_latency_ns", "ns per successful push", &m.PushLatency)
	reg.RegisterHistogram(prefix+"_fetch_latency_ns", "ns per successful fetch", &m.FetchLatency)
	reg.RegisterCounter(prefix+"_retries_total", "writes replayed after transient failures", &m.Retries)
	reg.RegisterCounter(prefix+"_degradations_total", "mirrors marked down", &m.Degradations)
	reg.RegisterCounter(prefix+"_rebuilds_total", "completed mirror rebuilds", &m.Rebuilds)
	reg.RegisterCounter(prefix+"_rebuild_bytes_total", "bytes re-replicated onto replacement mirrors", &m.RebuildBytes)
	reg.RegisterGauge(prefix+"_live_mirrors", "mirrors considered healthy", func() uint64 {
		return uint64(c.Live())
	})
	reg.RegisterCounter(prefix+"_fanouts_total", "pushes whose jobs ran on the per-mirror sender workers", &m.Fanouts)
	reg.RegisterGauge(prefix+"_fanout_straggler_ns", "last fan-out spread: slowest minus fastest mirror completion", c.straggler.Load)
	reg.RegisterGauge(prefix+"_quorum_width", "configured ack quorum (0 = all-ack)", func() uint64 {
		return uint64(c.Quorum())
	})
	reg.RegisterHistogram(prefix+"_push_ack_depth", "mirror acks collected when a push returned", &m.AckDepth)
	reg.RegisterCounter(prefix+"_catchup_overflows_total", "writes dropped on a lagging mirror's full catch-up queue", &m.CatchUpOverflows)
	reg.RegisterGauge(prefix+"_rebuild_pipeline_depth", "rebuild chunk-loop depth (1 = inline)", func() uint64 {
		return uint64(c.RebuildPipeline())
	})
	for i := range m.MirrorPush {
		reg.RegisterHistogram(
			fmt.Sprintf("%s_mirror%d_push_latency_ns", prefix, i),
			fmt.Sprintf("ns per push on mirror slot %d", i),
			&m.MirrorPush[i])
		i := i
		reg.RegisterGauge(
			fmt.Sprintf("%s_mirror%d_catchup_pending", prefix, i),
			fmt.Sprintf("writes queued on mirror slot %d's sender and not yet completed", i),
			func() uint64 { return uint64(c.CatchUpPending(i)) })
		reg.RegisterCounter(
			fmt.Sprintf("%s_mirror%d_rebuild_source_bytes_total", prefix, i),
			fmt.Sprintf("bytes mirror slot %d served as a rebuild read source", i),
			&m.RebuildSourceBytes[i])
	}
}

// ResetStats zeroes the traffic counters and latency histograms.
func (c *Client) ResetStats() {
	c.metrics.Pushes.Reset()
	c.metrics.PushedBytes.Reset()
	c.metrics.WireBytes.Reset()
	c.metrics.Fetches.Reset()
	c.metrics.FetchedBytes.Reset()
	c.metrics.PushLatency.Reset()
	c.metrics.FetchLatency.Reset()
	for i := range c.metrics.MirrorPush {
		c.metrics.MirrorPush[i].Reset()
	}
}

// Region is a mirrored memory region: a local buffer plus one remote
// segment per mirror, all sharing the region's name.
type Region struct {
	// Name is the reconnection name of the region's remote segments.
	Name string
	// Local is the local copy the application reads and writes.
	Local []byte

	handles []transport.SegmentHandle
}

// Size returns the region length in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.Local)) }

// Handle returns the remote segment handle on mirror i (for tests and
// tooling).
func (r *Region) Handle(i int) transport.SegmentHandle { return r.handles[i] }

// Malloc allocates a local buffer of the given size and exports an
// equivalent segment on every mirror (the paper's remote malloc).
func (c *Client) Malloc(name string, size uint64) (*Region, error) {
	if size == 0 {
		return nil, errors.New("netram: size must be positive")
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	r := &Region{
		Name:    name,
		Local:   make([]byte, size),
		handles: make([]transport.SegmentHandle, len(c.mirrors)),
	}
	exported := 0
	for i, m := range c.mirrors {
		if c.isDown(i) {
			// A dead mirror cannot export the segment now; it receives
			// the region when it is revived or rebuilt, both of which
			// re-export every live region.
			continue
		}
		h, err := m.T.Malloc(name, size)
		if err != nil {
			// Unwind partial allocations so a failed malloc leaks
			// nothing on the mirrors that did succeed.
			for j := 0; j < i; j++ {
				if r.handles[j].ID != 0 {
					_ = c.mirrors[j].T.Free(r.handles[j].ID)
				}
			}
			return nil, fmt.Errorf("netram: malloc on mirror %s: %w", m.Name, err)
		}
		r.handles[i] = h
		exported++
	}
	if exported == 0 {
		return nil, fmt.Errorf("netram: malloc %q: %w", name, ErrAllMirrorsDown)
	}
	c.regions = append(c.regions, r)
	return r, nil
}

// Free releases the region's remote segments (the paper's remote free).
// The local buffer is left to the garbage collector.
func (c *Client) Free(r *Region) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	// Stragglers may still hold r's segment handles; let them finish
	// before the segments are released underneath them.
	c.drainCatchUp()
	for i, reg := range c.regions {
		if reg == r {
			c.regions = append(c.regions[:i], c.regions[i+1:]...)
			break
		}
	}
	var firstErr error
	for i, m := range c.mirrors {
		if r.handles[i].ID == 0 || c.isDown(i) {
			// Nothing mapped there, or the node is dead — its segments
			// died with it (or are dropped when it is rebuilt).
			continue
		}
		if err := m.T.Free(r.handles[i].ID); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("netram: free on mirror %s: %w", m.Name, err)
		}
	}
	return firstErr
}

// Push propagates r.Local[offset:offset+n] to every mirror — the paper's
// remote memory copy. Copies of alignThreshold bytes or more are expanded
// to whole 64-byte aligned regions (clamped to the region bounds; see
// WireSpan). The widened bytes are read from r.Local like the range's
// own, so they must not have a concurrent writer: callers that share a
// region between writers claim the span first and push it as an exact
// PushBatch entry.
func (c *Client) Push(r *Region, offset, n uint64) error {
	return c.pushOpts(r, offset, n, false)
}

// PushAcked is Push joined on every eligible mirror even in quorum
// mode. Metadata whose latest version recovery must be able to read
// from any single mirror — the directory, decision records — takes
// this path; on all-ack clients it is identical to Push.
func (c *Client) PushAcked(r *Region, offset, n uint64) error {
	return c.pushOpts(r, offset, n, true)
}

// pushOpts is the shared Push body; allAck forces the full join even on
// quorum clients.
func (c *Client) pushOpts(r *Region, offset, n uint64, allAck bool) error {
	if err := r.checkRange(offset, n); err != nil {
		return err
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	call := c.getCall()
	defer c.releaseCall(call)
	call.single = true
	c.addSpan(call, r, Range{offset, n}, false)
	return c.pushCall(call, nil, allAck, -1)
}

// addSpan appends one bounds-checked range of r to call's payload,
// widened as WireSpan says unless exact.
func (c *Client) addSpan(call *fanoutCall, r *Region, rg Range, exact bool) {
	if rg.Length == 0 {
		return
	}
	lo, hi := rg.Offset, rg.Offset+rg.Length
	if !exact {
		lo, hi = c.WireSpan(r, rg.Offset, rg.Length)
	}
	call.spans = append(call.spans, wireSpan{r, lo, hi})
	call.payload += rg.Length
	call.wire += hi - lo
}

// pushCall sends the payload assembled on call (nothing, if every range
// was empty) and accounts it. The caller holds the topology read lock
// from before getCall and releases its call reference afterwards:
// releaseCall (via the last reference) records the wire ranges in the
// rebuild's dirty set after the mirror writes land — including error
// paths, where some survivors may already hold the bytes. A push that
// joined on every job releases the last reference under the topology
// read lock, so a catch-up epoch can never consume a range before the
// surviving replica has it; a quorum push with stragglers releases it
// from the last finishing worker instead.
func (c *Client) pushCall(call *fanoutCall, tt *trace.TxTrace, allAck bool, only int) error {
	if len(call.spans) == 0 {
		return nil
	}
	start := c.clock.Now()
	if err := c.pushMirrors(call, tt, allAck, only); err != nil {
		return err
	}
	c.metrics.Pushes.Add(uint64(len(call.spans)))
	c.metrics.PushedBytes.Add(call.payload)
	c.metrics.PushLatency.ObserveDuration(c.clock.Now() - start)
	return nil
}

// withRetry performs one mirror operation, classifying failures: if the
// node is gone (its ping fails too) the mirror is degraded and the
// failure is absorbed by degradation; if the node is alive the failure
// may be a transient hiccup, so the attempt is replayed once before the
// error is surfaced. It may run on a sender worker, so it must not
// touch a TxTrace — it reports retried instead.
func (c *Client) withRetry(m Mirror, slot int, attempt func() error) (retried bool, err error) {
	err = attempt()
	if err == nil {
		return false, nil
	}
	if pingErr := m.T.Ping(); pingErr != nil {
		c.markDown(slot)
		return false, err
	}
	// The node answers pings: transient failure — one retry.
	c.metrics.Retries.Inc()
	c.flight.Record(flight.MirrorRetry, "netram", m.Name, uint64(slot))
	if retryErr := attempt(); retryErr != nil {
		// Surface the retry's error — it is the failure the mirror is
		// failing with NOW; the first attempt rides along for context.
		return true, fmt.Errorf("%w (first attempt: %v)", retryErr, err)
	}
	return true, nil
}

// PushAll propagates the entire region, used by InitRemoteDB.
func (c *Client) PushAll(r *Region) error {
	return c.Push(r, 0, r.Size())
}

// PushAllAcked propagates the entire region joined on every eligible
// mirror (see PushAcked).
func (c *Client) PushAllAcked(r *Region) error {
	return c.PushAcked(r, 0, r.Size())
}

// Range is one (offset, length) pair for PushMany.
type Range struct {
	Offset uint64
	Length uint64
}

// PushMany propagates several ranges of r to every mirror, using one
// batched exchange per mirror when its transport supports it (one TCP
// round trip instead of one per range). Alignment expansion applies per
// range exactly as in Push; on the SCI model the cost is identical to
// pushing the ranges one by one.
func (c *Client) PushMany(r *Region, ranges []Range) error {
	for _, rg := range ranges {
		if err := r.checkRange(rg.Offset, rg.Length); err != nil {
			return err
		}
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	call := c.getCall()
	defer c.releaseCall(call)
	for _, rg := range ranges {
		c.addSpan(call, r, rg, false)
	}
	return c.pushCall(call, nil, false, -1)
}

// Entry is one range of a PushBatch: Length bytes at Offset of
// Region.Local. Exact sends the range as given; otherwise it is widened
// as Push widens it.
type Entry struct {
	Region *Region
	Range
	Exact bool
}

// PushBatch propagates ranges of any number of regions to every mirror
// as ONE ordered batch: a mirror applies the entries in the order given,
// all of them or none (the transport's batch is validated whole and its
// frame is all-or-nothing), so on every mirror an earlier entry is never
// missing where a later one landed. Nothing orders the entries across
// mirrors — one mirror may hold the whole batch while another holds none
// of it. The transaction library's commit is this push: the undo
// records, then the claimed database spans (exact — it fixed them with
// WireSpan when it claimed them, and widening again could reach into
// bytes another transaction holds), then the commit word. acked joins
// on every mirror even on a quorum client; tt (may be nil) receives one
// netram span per mirror exchange.
func (c *Client) PushBatch(entries []Entry, tt *trace.TxTrace, acked bool) error {
	return c.pushEntries(entries, tt, acked, -1)
}

// PushBatchTo is PushBatch to mirror i alone, for recovery's republish:
// a mirror found to differ from the elected state receives exactly the
// bytes it lacks, in commit order, and the others nothing.
func (c *Client) PushBatchTo(i int, entries []Entry) error {
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	return c.pushEntries(entries, nil, true, i)
}

func (c *Client) pushEntries(entries []Entry, tt *trace.TxTrace, allAck bool, only int) error {
	for _, e := range entries {
		if err := e.Region.checkRange(e.Offset, e.Length); err != nil {
			return err
		}
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	call := c.getCall()
	defer c.releaseCall(call)
	for _, e := range entries {
		c.addSpan(call, e.Region, e.Range, e.Exact)
	}
	return c.pushCall(call, tt, allAck, only)
}

// WireSpan reports the span [lo,hi) that Push and PushMany put on the
// wire for r.Local[offset:offset+n]: the range itself below the
// alignment threshold (or with alignment disabled), else its
// expandEdges widening. Every byte of the span is read from r.Local when
// the push runs, so a caller sharing the region between writers must
// hold the whole span, not just the range.
func (c *Client) WireSpan(r *Region, offset, n uint64) (lo, hi uint64) {
	lo, hi = offset, offset+n
	if !c.alignDisabled && n >= uint64(c.alignThreshold) {
		lo, hi = expandEdges(lo, hi, r.Size())
	}
	return lo, hi
}

// Fetch reads n bytes at offset from the first mirror that answers,
// in declaration order. Used during recovery, when the local buffer's
// content is gone. Transfers larger than the read chunk are split into
// several remote reads, so regions past 4 GiB (or the wire frame
// limit) arrive intact instead of silently truncated.
func (c *Client) Fetch(r *Region, offset, n uint64) ([]byte, error) {
	return c.FetchTraced(r, offset, n, nil)
}

// FetchTraced is Fetch recording one netram span per mirror attempt
// into the transaction's trace (tt may be nil).
func (c *Client) FetchTraced(r *Region, offset, n uint64, tt *trace.TxTrace) ([]byte, error) {
	if err := r.checkRange(offset, n); err != nil {
		return nil, err
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	start := c.clock.Now()
	var lastErr error
	for i, m := range c.mirrors {
		if r.handles[i].ID == 0 {
			continue
		}
		sp := tt.Start(trace.LayerNetram, m.Name)
		data, err := c.readChunked(m, r.handles[i].ID, offset, n)
		if err != nil {
			sp.End()
			lastErr = fmt.Errorf("netram: fetch from mirror %s: %w", m.Name, err)
			continue
		}
		sp.EndN(n)
		c.metrics.Fetches.Inc()
		c.metrics.FetchedBytes.Add(n)
		c.metrics.FetchLatency.ObserveDuration(c.clock.Now() - start)
		return data, nil
	}
	if lastErr == nil {
		lastErr = ErrAllMirrorsDown
	}
	return nil, fmt.Errorf("%w (last: %v)", ErrAllMirrorsDown, lastErr)
}

// readChunked reads n bytes at offset from one mirror, splitting the
// transfer into reads of at most c.readChunk bytes. A mid-transfer
// failure fails the whole read — the caller falls over to the next
// mirror, never stitching two nodes' bytes together.
func (c *Client) readChunked(m Mirror, seg uint32, offset, n uint64) ([]byte, error) {
	if n <= c.readChunk {
		return m.T.Read(seg, offset, uint32(n))
	}
	out := make([]byte, 0, n)
	for done := uint64(0); done < n; {
		step := n - done
		if step > c.readChunk {
			step = c.readChunk
		}
		data, err := m.T.Read(seg, offset+done, uint32(step))
		if err != nil {
			return nil, err
		}
		if uint64(len(data)) != step {
			return nil, fmt.Errorf("netram: short read from mirror %s: got %d of %d bytes",
				m.Name, len(data), step)
		}
		out = append(out, data...)
		done += step
	}
	return out, nil
}

// FetchInto restores r.Local[offset:offset+n] from the mirrors.
func (c *Client) FetchInto(r *Region, offset, n uint64) error {
	data, err := c.Fetch(r, offset, n)
	if err != nil {
		return err
	}
	copy(r.Local[offset:], data)
	return nil
}

// FetchMirror reads n bytes at offset from mirror i specifically,
// bypassing the first-answering fallback. Recovery uses it to compare
// replicas and to repair lagging mirrors from a current one; the mirror
// is read even when marked down, since a degraded replica's (stale but
// prefix-consistent) state is exactly what the reconciliation needs to
// see. The returned bytes are the caller's to keep.
func (c *Client) FetchMirror(i int, r *Region, offset, n uint64) ([]byte, error) {
	if err := r.checkRange(offset, n); err != nil {
		return nil, err
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if i < 0 || i >= len(c.mirrors) {
		return nil, fmt.Errorf("netram: no mirror %d", i)
	}
	if r.handles[i].ID == 0 {
		return nil, fmt.Errorf("netram: region %q not mapped on mirror %s", r.Name, c.mirrors[i].Name)
	}
	data, err := c.readChunked(c.mirrors[i], r.handles[i].ID, offset, n)
	if err != nil {
		return nil, fmt.Errorf("netram: fetch from mirror %s: %w", c.mirrors[i].Name, err)
	}
	c.metrics.Fetches.Inc()
	c.metrics.FetchedBytes.Add(n)
	return data, nil
}

// Connect re-maps an existing named region after the local node crashed:
// it allocates a fresh local buffer and connects to the surviving remote
// segments by name (the paper's sci_connect_segment). The local buffer is
// NOT filled; recovery decides what to copy back.
func (c *Client) Connect(name string) (*Region, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	r, err := c.connectRegion(name)
	if err != nil {
		return nil, err
	}
	c.regions = append(c.regions, r)
	return r, nil
}

// connectRegion maps name on every reachable mirror and allocates the
// local buffer, without touching the region list. The caller holds the
// topology write lock; ConnectMany runs several of these concurrently
// (only c.mirrors is read, and transports are safe for concurrent use)
// and appends the results in input order itself.
func (c *Client) connectRegion(name string) (*Region, error) {
	r := &Region{Name: name, handles: make([]transport.SegmentHandle, len(c.mirrors))}
	var size uint64
	connected := 0
	for i, m := range c.mirrors {
		h, err := m.T.Connect(name)
		if err != nil {
			continue
		}
		r.handles[i] = h
		if size == 0 {
			size = h.Size
		} else if h.Size != size {
			// Release every reference taken so far (including this
			// mirror's) before erroring, so the abandoned region leaves
			// no handles attached anywhere.
			c.releaseHandles(r, i+1)
			return nil, fmt.Errorf("netram: mirror %s disagrees on size of %q: %d vs %d",
				m.Name, name, h.Size, size)
		}
		connected++
	}
	if connected == 0 {
		return nil, fmt.Errorf("netram: connect %q: %w", name, ErrAllMirrorsDown)
	}
	r.Local = make([]byte, size)
	return r, nil
}

// releaseHandles disconnects the references r holds on the first n
// mirrors; best-effort, for error-path cleanup.
func (c *Client) releaseHandles(r *Region, n int) {
	for j := 0; j < n && j < len(c.mirrors); j++ {
		if r.handles[j].ID == 0 {
			continue
		}
		if dc, ok := c.mirrors[j].T.(transport.Disconnector); ok {
			_ = dc.Disconnect(r.handles[j].ID)
		}
		r.handles[j] = transport.SegmentHandle{}
	}
}

// Revive reintegrates mirror i after its node was repaired: every live
// region is re-exported there (reconnecting when the node still holds
// the segment, re-allocating when its memory was lost) and refilled from
// the local copy, after which the mirror resumes receiving pushes. This
// restores the replication degree the paper's reliability argument rests
// on — data are lost only if all mirrors fail in the same interval, so a
// repaired node should rejoin as soon as it is back.
func (c *Client) Revive(i int) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if err := c.checkNoRebuild(); err != nil {
		return err
	}
	// Quorum stragglers still hold the old topology's Mirror values and
	// segment handles; let them land before the resync reads r.Local, so
	// the revived mirror's full copy includes every completed write.
	c.drainCatchUp()
	if err := c.reviveLocked(i); err != nil {
		return err
	}
	// The fan-out spread changed shape with the topology; drop the stale
	// sample rather than reporting the pre-revive gap forever.
	c.straggler.Store(0)
	return nil
}

// checkNoRebuild refuses a topology change while an online rebuild is
// replacing a mirror: the rebuild owns its slot, and a concurrent swap
// of any slot would invalidate the surviving-replica copy in flight.
func (c *Client) checkNoRebuild() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.rebuildSlot >= 0 {
		return ErrRebuildInProgress
	}
	return nil
}

// reviveLocked is Revive with the topology lock already held.
func (c *Client) reviveLocked(i int) error {
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	m := c.mirrors[i]
	if err := m.T.Ping(); err != nil {
		return fmt.Errorf("netram: mirror %s not back yet: %w", m.Name, err)
	}
	for _, r := range c.regions {
		h, err := m.T.Connect(r.Name)
		if err != nil || h.Size != r.Size() {
			// The node lost (or never had) the segment: export afresh.
			if h.ID != 0 && h.Size != r.Size() {
				_ = m.T.Free(h.ID)
			}
			h, err = m.T.Malloc(r.Name, r.Size())
			if err != nil {
				return fmt.Errorf("netram: re-export %q on %s: %w", r.Name, m.Name, err)
			}
		}
		if err := m.T.Write(h.ID, 0, r.Local); err != nil {
			return fmt.Errorf("netram: resync %q to %s: %w", r.Name, m.Name, err)
		}
		r.handles[i] = h
	}
	c.stateMu.Lock()
	c.down[i].Store(false)
	c.stateMu.Unlock()
	return nil
}

// ReplaceMirror substitutes a brand-new node for mirror i — the case
// where a workstation leaves the pool for good (its owner reclaimed it,
// or the hardware died) and a different machine donates its idle memory
// instead. Every live region is exported on the newcomer and filled from
// the local copies; the old transport is closed.
func (c *Client) ReplaceMirror(i int, m Mirror) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if err := c.checkNoRebuild(); err != nil {
		return err
	}
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	if m.T == nil {
		return fmt.Errorf("netram: replacement mirror %q has no transport", m.Name)
	}
	if err := m.T.Ping(); err != nil {
		return fmt.Errorf("netram: replacement mirror %s unreachable: %w", m.Name, err)
	}
	// No straggler may still write through the old transport once it is
	// swapped out and closed.
	c.drainCatchUp()
	old := c.mirrors[i]
	c.mirrors[i] = m
	c.markDown(i) // fence pushes off the slot while it refills
	for _, r := range c.regions {
		r.handles[i] = transport.SegmentHandle{}
	}
	if err := c.reviveLocked(i); err != nil {
		// Roll the slot back so the client stays usable degraded.
		c.mirrors[i] = old
		return fmt.Errorf("netram: replacement resync failed: %w", err)
	}
	c.straggler.Store(0)
	_ = old.T.Close()
	return nil
}

// Mismatch describes one divergence Verify found.
type Mismatch struct {
	// Mirror names the diverging node.
	Mirror string
	// Region names the diverging region.
	Region string
	// Offset is the first differing byte.
	Offset uint64
}

// Error implements the error interface.
func (m Mismatch) Error() string {
	return fmt.Sprintf("netram: mirror %s diverges from local %q at byte %d",
		m.Mirror, m.Region, m.Offset)
}

// Verify audits a region: it fetches the full contents from every live
// mirror and compares them with the local copy, returning one Mismatch
// per diverging mirror. Intended for operational tooling and tests; it
// moves the whole region over the interconnect.
func (c *Client) Verify(r *Region) ([]Mismatch, error) {
	// Repair-before-read: a quorum-lagging mirror is not readable until
	// its catch-up queue drains, so the audit never reports (or worse,
	// trusts) a replica that is merely behind.
	c.WaitCatchUp()
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.verifyLocked(r)
}

// VerifyAll audits every live region against every live mirror — the
// post-rebuild acceptance check that the restored replica set is
// byte-identical. Like Verify it moves each region's full contents over
// the interconnect once per mirror.
func (c *Client) VerifyAll() ([]Mismatch, error) {
	c.WaitCatchUp() // repair-before-read, as in Verify
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	var out []Mismatch
	for _, r := range c.regions {
		ms, err := c.verifyLocked(r)
		if err != nil {
			return out, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// verifyLocked is Verify's body, with the topology read lock held.
func (c *Client) verifyLocked(r *Region) ([]Mismatch, error) {
	var out []Mismatch
	checked := 0
	for i, m := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		// Compare chunk by chunk so regions past 4 GiB (or the frame
		// limit) are audited in full instead of silently truncated.
		diverged := false
		for done := uint64(0); done < r.Size() && !diverged; {
			step := r.Size() - done
			if step > c.readChunk {
				step = c.readChunk
			}
			remote, err := m.T.Read(r.handles[i].ID, done, uint32(step))
			if err != nil {
				return nil, fmt.Errorf("netram: verify %q on %s: %w", r.Name, m.Name, err)
			}
			for off := range remote {
				if remote[off] != r.Local[done+uint64(off)] {
					out = append(out, Mismatch{Mirror: m.Name, Region: r.Name, Offset: done + uint64(off)})
					diverged = true
					break
				}
			}
			done += step
		}
		checked++
	}
	if checked == 0 {
		return nil, fmt.Errorf("netram: verify %q: %w", r.Name, ErrAllMirrorsDown)
	}
	return out, nil
}

// Ping checks that every mirror is alive, returning the first failure.
func (c *Client) Ping() error {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	for _, m := range c.mirrors {
		if err := m.T.Ping(); err != nil {
			return fmt.Errorf("netram: mirror %s: %w", m.Name, err)
		}
	}
	return nil
}

// expandEdges applies the optimised sci_memcpy strategy: a partially
// covered 64-byte edge chunk drains as a set of 16-byte packets, so when
// the copy touches three or more 16-byte slots of an edge chunk it is
// cheaper to widen the copy and send the whole chunk as one full 64-byte
// packet. Interior chunks are full either way. The widened bytes carry
// whatever the local buffer holds when the push runs; they equal the
// mirrors' only while nobody is writing them (see WireSpan).
func expandEdges(lo, hi, size uint64) (uint64, uint64) {
	const slot = sci.SmallPacketSize
	if head := lo % sci.BufferSize; head != 0 {
		chunkEnd := sci.AlignDown(lo) + sci.BufferSize
		edgeHi := hi
		if edgeHi > chunkEnd {
			edgeHi = chunkEnd
		}
		slots := (edgeHi-1)/slot - lo/slot + 1
		if slots >= 3 {
			lo = sci.AlignDown(lo)
		}
	}
	if tail := hi % sci.BufferSize; tail != 0 && sci.AlignUp(hi) <= size {
		chunkStart := sci.AlignDown(hi - 1)
		edgeLo := lo
		if edgeLo < chunkStart {
			edgeLo = chunkStart
		}
		slots := (hi-1)/slot - edgeLo/slot + 1
		if slots >= 3 {
			hi = sci.AlignUp(hi)
		}
	}
	return lo, hi
}

func (r *Region) checkRange(offset, n uint64) error {
	if offset > r.Size() || n > r.Size()-offset {
		return fmt.Errorf("%w: [%d,+%d) in %d-byte region %q",
			ErrBadRange, offset, n, r.Size(), r.Name)
	}
	return nil
}
