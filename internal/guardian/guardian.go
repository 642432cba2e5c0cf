// Package guardian watches a network-RAM client's mirrors and restores
// the replication degree automatically when one dies.
//
// The paper's reliability argument says committed data survive as long
// as no two mirrors fail within the same repair interval — which makes
// the length of that interval the whole story. PERSEAS as published
// leaves the repair to an operator; the guardian closes the loop: a
// heartbeat failure detector confirms a mirror dead after a configured
// number of consecutive missed probes, then either revives the node in
// place (it answered again — a partition healed, a process restarted)
// or picks a replacement from a spare-node pool and re-replicates every
// live region onto it online, without pausing in-flight transactions.
//
// Every mirror walks a small state machine:
//
//	Healthy → Suspect → Dead → Rebuilding → Restored (→ Healthy)
//
// Suspect means probes are being missed but the threshold hasn't been
// reached; Dead fences the mirror off the data path; Rebuilding covers
// the bulk copy and catch-up; Restored is the first beat after a
// successful revive or rebuild, relaxing back to Healthy on the next
// good probe.
//
// Time discipline: the detector reads the client's clock — under
// SimClock, reproduced figures drive Tick explicitly and probes charge
// no virtual time (transport.Prober), so a guardian that never fires
// leaves every figure byte-identical. Start/Stop run the same Tick loop
// off a wall-clock ticker for live deployments. Only wall-clock
// metrics may use real time; the detector itself never does.
package guardian

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
)

// State is a mirror's position in the guardian's health state machine.
type State int

// The guardian health states, in escalation order.
const (
	// Healthy: the mirror answers probes.
	Healthy State = iota
	// Suspect: one or more consecutive probes missed, threshold not yet
	// reached.
	Suspect
	// Dead: the miss threshold fired; the mirror is fenced off the data
	// path and awaits revival or replacement.
	Dead
	// Rebuilding: a replacement from the spare pool is being filled by
	// the online copy.
	Rebuilding
	// Restored: revived or rebuilt this cycle; relaxes to Healthy on the
	// next good probe.
	Restored
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Rebuilding:
		return "rebuilding"
	case Restored:
		return "restored"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrNoSpares is returned (and recorded in MirrorHealth.LastError) when
// a mirror is confirmed dead but the spare pool is empty.
var ErrNoSpares = errors.New("guardian: mirror dead and no spare nodes left")

// Config parameterises a Guardian.
type Config struct {
	// Interval is the heartbeat period on the client's clock. Zero
	// defaults to one second.
	Interval time.Duration
	// Misses is how many consecutive failed probes confirm a mirror
	// dead. Zero defaults to 3.
	Misses int
	// Spares is the pool of standby nodes used as replacements, in
	// order. Each must carry a ready transport.
	Spares []netram.Mirror
	// OnEvent, when non-nil, observes every state transition (for logs
	// and CLIs). Called without guardian locks held.
	OnEvent func(Event)
	// LagLimit, when positive, treats a quorum mirror whose catch-up
	// queue holds more than this many pending writes as missing a
	// heartbeat even when it still answers probes: a reachable replica
	// that cannot keep up is as much a durability risk as a silent one,
	// and the miss path walks it through Suspect to the rebuild that
	// resyncs it. Zero disables the check (leave it off for all-ack
	// clients: their queue depth is in-flight pushes, not lag).
	LagLimit int
}

// Event is one state transition of one mirror.
type Event struct {
	// Slot is the mirror's index in the client topology.
	Slot int
	// Mirror is the mirror's label at the time of the event.
	Mirror string
	// From and To are the transition endpoints.
	From, To State
	// When is the clock reading (virtual under SimClock) at the
	// transition.
	When time.Duration
	// Err carries the probe or rebuild error behind the transition, if
	// any.
	Err error
}

// MirrorHealth is one row of the guardian's queryable status.
type MirrorHealth struct {
	// Slot is the mirror's index in the client topology.
	Slot int
	// Mirror is the current label occupying the slot.
	Mirror string
	// State is the slot's position in the health state machine.
	State State
	// Misses is the current consecutive-miss count.
	Misses int
	// LastBeat is the clock reading of the last successful probe.
	LastBeat time.Duration
	// Deaths counts how many times the slot was confirmed dead.
	Deaths int
	// RebuildBytes is the payload copied onto replacements for this
	// slot, cumulative.
	RebuildBytes uint64
	// SourceBytes is the payload this slot's mirror served as the read
	// source of other slots' rebuilds, cumulative. Under a pipelined
	// rebuild the bulk-copy reads stripe round-robin across the
	// survivors, so roughly equal values here mean the copy rode their
	// aggregate bandwidth instead of hammering the first live node.
	SourceBytes uint64
	// LastError is the most recent probe or rebuild error, nil when
	// healthy.
	LastError error
	// CatchUp is the mirror's pending quorum catch-up queue depth at
	// the time of the snapshot (always zero on all-ack clients).
	CatchUp int
}

// Metrics are the guardian's counters and histograms.
type Metrics struct {
	// Heartbeats counts successful probes.
	Heartbeats obs.Counter
	// Misses counts failed probes.
	Misses obs.Counter
	// Deaths counts confirmed mirror deaths.
	Deaths obs.Counter
	// Revives counts mirrors that rejoined in place.
	Revives obs.Counter
	// Rebuilds counts successful spare-node rebuilds.
	Rebuilds obs.Counter
	// RebuildFailures counts rebuilds that errored (the spare returns to
	// the pool).
	RebuildFailures obs.Counter
	// DetectionLatency observes, per death, the microseconds between the
	// last good beat and the death confirmation (clock delta — virtual
	// under SimClock).
	DetectionLatency obs.Histogram
	// RebuildDuration observes, per successful rebuild, its clock delta
	// in microseconds.
	RebuildDuration obs.Histogram
}

// mirrorState is the guardian's per-slot bookkeeping.
type mirrorState struct {
	state        State
	misses       int
	lastBeat     time.Duration
	deaths       int
	rebuildBytes uint64
	lastErr      error
}

// Guardian runs the failure detector and repair loop for one client.
type Guardian struct {
	client *netram.Client
	clock  simclock.Clock
	cfg    Config

	mu      sync.Mutex
	slots   []mirrorState
	spares  []netram.Mirror
	nextDue time.Duration
	metrics Metrics

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}

	// tracer records state transitions as instants and repairs as
	// infrastructure spans; nil disables. Set during wiring, before
	// Start.
	tracer *trace.Recorder
	// flight records state transitions as anomaly events; nil disables.
	// Set during wiring, before Start.
	flight *flight.Recorder
}

// stateSpanNames are the static span names for transition instants,
// indexed by the destination state (the trace recorder stores span
// names without copying, so they must be long-lived).
var stateSpanNames = [...]string{
	Healthy:    "mirror_healthy",
	Suspect:    "mirror_suspect",
	Dead:       "mirror_dead",
	Rebuilding: "mirror_rebuilding",
	Restored:   "mirror_restored",
}

// SetTracer attaches a span recorder. Every recorder method is
// nil-safe, so a nil tracer records nothing.
func (g *Guardian) SetTracer(rec *trace.Recorder) { g.tracer = rec }

// SetFlight attaches a flight recorder for transition anomaly events.
// Call during wiring, before Start; nil records nothing.
func (g *Guardian) SetFlight(r *flight.Recorder) { g.flight = r }

// New builds a Guardian over client, reading time from clock (pass the
// client's clock: the rig's SimClock for deterministic runs, a
// WallClock for live ones).
func New(client *netram.Client, clock simclock.Clock, cfg Config) (*Guardian, error) {
	if client == nil {
		return nil, errors.New("guardian: nil client")
	}
	if clock == nil {
		return nil, errors.New("guardian: nil clock")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	for _, s := range cfg.Spares {
		if s.T == nil {
			return nil, fmt.Errorf("guardian: spare %q has no transport", s.Name)
		}
	}
	g := &Guardian{
		client: client,
		clock:  clock,
		cfg:    cfg,
		slots:  make([]mirrorState, client.Mirrors()),
		spares: append([]netram.Mirror(nil), cfg.Spares...),
	}
	now := clock.Now()
	for i := range g.slots {
		g.slots[i].lastBeat = now
	}
	g.nextDue = now + cfg.Interval
	return g, nil
}

// Metrics exposes the guardian's counters for registration or tests.
func (g *Guardian) Metrics() *Metrics { return &g.metrics }

// RegisterMetrics publishes the guardian's metrics on reg under the
// perseas_guardian_* names.
func (g *Guardian) RegisterMetrics(reg *obs.Registry) {
	m := &g.metrics
	reg.RegisterCounter("perseas_guardian_heartbeats_total", "successful mirror probes", &m.Heartbeats)
	reg.RegisterCounter("perseas_guardian_misses_total", "failed mirror probes", &m.Misses)
	reg.RegisterCounter("perseas_guardian_deaths_total", "mirrors confirmed dead", &m.Deaths)
	reg.RegisterCounter("perseas_guardian_revives_total", "mirrors revived in place", &m.Revives)
	reg.RegisterCounter("perseas_guardian_rebuilds_total", "spare-node rebuilds completed", &m.Rebuilds)
	reg.RegisterCounter("perseas_guardian_rebuild_failures_total", "spare-node rebuilds failed", &m.RebuildFailures)
	reg.RegisterGauge("perseas_guardian_spares_available", "standby nodes left in the pool", func() uint64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return uint64(len(g.spares))
	})
	reg.RegisterGauge("perseas_guardian_rebuild_bytes_total", "payload copied onto replacement mirrors, all slots", func() uint64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		var sum uint64
		for i := range g.slots {
			sum += g.slots[i].rebuildBytes
		}
		return sum
	})
	reg.RegisterHistogram("perseas_guardian_detection_latency_us", "last good beat to death confirmation", &m.DetectionLatency)
	reg.RegisterHistogram("perseas_guardian_rebuild_duration_us", "rebuild start to restored", &m.RebuildDuration)
}

// RebuildPipeline reports the depth of the client's rebuild chunk loop
// (1 = inline, strictly read-then-write).
func (g *Guardian) RebuildPipeline() int { return g.client.RebuildPipeline() }

// SparesLeft reports how many standby nodes remain in the pool.
func (g *Guardian) SparesLeft() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.spares)
}

// Status reports one MirrorHealth row per slot, in slot order.
func (g *Guardian) Status() []MirrorHealth {
	g.mu.Lock()
	rows := make([]MirrorHealth, len(g.slots))
	for i, s := range g.slots {
		rows[i] = MirrorHealth{
			Slot:         i,
			State:        s.state,
			Misses:       s.misses,
			LastBeat:     s.lastBeat,
			Deaths:       s.deaths,
			RebuildBytes: s.rebuildBytes,
			LastError:    s.lastErr,
		}
	}
	g.mu.Unlock()
	src := g.client.RebuildSourceBytes()
	for i := range rows {
		rows[i].Mirror = g.client.MirrorName(i)
		rows[i].CatchUp = g.client.CatchUpPending(i)
		if i < len(src) {
			rows[i].SourceBytes = src[i]
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Slot < rows[j].Slot })
	return rows
}

// Tick runs one detector pass if the heartbeat interval has elapsed on
// the guardian's clock, and reports whether a pass ran. Deterministic
// harnesses call Tick after advancing the SimClock; Start's loop calls
// it off a wall-clock ticker.
func (g *Guardian) Tick() bool {
	now := g.clock.Now()
	g.mu.Lock()
	if now < g.nextDue {
		g.mu.Unlock()
		return false
	}
	g.nextDue = now + g.cfg.Interval
	g.mu.Unlock()
	g.pass(now)
	return true
}

// Poll forces a detector pass immediately, regardless of the interval.
// CLIs use it for a one-shot health snapshot.
func (g *Guardian) Poll() {
	g.pass(g.clock.Now())
}

// Start launches the wall-clock heartbeat loop. It is an error to
// Start a guardian twice without an intervening Stop.
func (g *Guardian) Start() error {
	g.loopMu.Lock()
	defer g.loopMu.Unlock()
	if g.stop != nil {
		return errors.New("guardian: already started")
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.loop(g.stop, g.done)
	return nil
}

// Stop halts the heartbeat loop and waits for an in-flight pass
// (including a rebuild) to finish.
func (g *Guardian) Stop() {
	g.loopMu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (g *Guardian) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(g.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			g.Poll()
		}
	}
}

// pass probes every slot once and repairs what it finds dead. The
// guardian lock is never held across client calls: probes, revives and
// rebuilds run unlocked, so the data path and Status stay responsive
// during a long copy.
func (g *Guardian) pass(now time.Duration) {
	for i := 0; i < g.client.Mirrors(); i++ {
		err := g.client.ProbeMirror(i)
		if err == nil && g.cfg.LagLimit > 0 {
			// Lag-aware health: a mirror that answers probes but has
			// fallen too far behind the quorum counts as a miss, so the
			// ordinary Suspect→Dead→rebuild machinery resyncs it.
			if lag := g.client.CatchUpPending(i); lag > g.cfg.LagLimit {
				err = fmt.Errorf("guardian: catch-up lag %d writes exceeds limit %d", lag, g.cfg.LagLimit)
			}
		}

		g.mu.Lock()
		s := &g.slots[i]
		if s.state == Rebuilding {
			// A concurrent pass owns this slot's repair.
			g.mu.Unlock()
			continue
		}
		var ev *Event
		if err == nil {
			g.metrics.Heartbeats.Inc()
			s.lastBeat = now
			s.misses = 0
			s.lastErr = nil
			if s.state == Dead || g.client.MirrorDown(i) {
				// The node answers but is off the data path: a healed
				// partition, a restarted process, or a mirror the client
				// itself degraded (for lag, or a failed write) that no
				// probe ever missed. Reintegrate it in place.
				g.mu.Unlock()
				g.revive(i, now)
				continue
			}
			if s.state == Suspect || s.state == Restored {
				ev = g.transitionLocked(i, Healthy, nil, now)
			}
			g.mu.Unlock()
			g.emit(ev)
			continue
		}

		g.metrics.Misses.Inc()
		s.misses++
		s.lastErr = err
		if s.misses < g.cfg.Misses {
			if s.state == Healthy || s.state == Restored {
				ev = g.transitionLocked(i, Suspect, err, now)
			}
			g.mu.Unlock()
			g.emit(ev)
			continue
		}
		if s.state != Dead {
			g.metrics.Deaths.Inc()
			g.metrics.DetectionLatency.ObserveDuration(now - s.lastBeat)
			s.deaths++
			ev = g.transitionLocked(i, Dead, err, now)
		}
		g.mu.Unlock()
		g.emit(ev)
		// Confirmed dead (freshly or still, after an earlier repair could
		// not complete): fence it, then repair.
		_ = g.client.MarkMirrorDown(i)
		g.repair(i, now)
	}
}

// revive reintegrates a dead mirror that answers probes again.
func (g *Guardian) revive(slot int, now time.Duration) {
	sp := g.tracer.Start(trace.LayerGuardian, "revive")
	err := g.client.Revive(slot)
	sp.EndN(uint64(slot))
	g.mu.Lock()
	var ev *Event
	if err != nil {
		g.slots[slot].lastErr = err
		// Still Dead; the next pass retries or rebuilds.
	} else {
		g.metrics.Revives.Inc()
		ev = g.transitionLocked(slot, Restored, nil, now)
	}
	g.mu.Unlock()
	g.emit(ev)
}

// repair replaces a confirmed-dead mirror: revive if it answers again,
// else rebuild onto the next spare.
func (g *Guardian) repair(slot int, now time.Duration) {
	// One more probe before burning a spare: transient blips (a healed
	// partition) are reintegrated in place.
	if g.client.ProbeMirror(slot) == nil {
		g.revive(slot, now)
		return
	}

	g.mu.Lock()
	if len(g.spares) == 0 {
		g.slots[slot].lastErr = ErrNoSpares
		g.mu.Unlock()
		return
	}
	spare := g.spares[0]
	g.spares = g.spares[1:]
	ev := g.transitionLocked(slot, Rebuilding, nil, now)
	g.mu.Unlock()
	g.emit(ev)

	start := g.clock.Now()
	g.mu.Lock()
	base := g.slots[slot].rebuildBytes // cumulative across this slot's deaths
	g.mu.Unlock()
	sp := g.tracer.Start(trace.LayerGuardian, "rebuild")
	err := g.client.RebuildMirror(slot, spare, func(p netram.RebuildProgress) {
		g.mu.Lock()
		g.slots[slot].rebuildBytes = base + p.CopiedBytes
		g.mu.Unlock()
	})
	sp.EndN(uint64(slot))
	end := g.clock.Now()

	g.mu.Lock()
	if err != nil {
		g.metrics.RebuildFailures.Inc()
		g.slots[slot].lastErr = err
		// The spare was not consumed; return it to the head of the pool.
		g.spares = append([]netram.Mirror{spare}, g.spares...)
		ev = g.transitionLocked(slot, Dead, err, end)
		g.mu.Unlock()
		g.emit(ev)
		return
	}
	g.metrics.Rebuilds.Inc()
	g.metrics.RebuildDuration.ObserveDuration(end - start)
	g.slots[slot].misses = 0
	g.slots[slot].lastBeat = end
	g.slots[slot].lastErr = nil
	ev = g.transitionLocked(slot, Restored, nil, end)
	g.mu.Unlock()
	g.emit(ev)
}

// transitionLocked moves slot to state to, returning the Event to emit
// after the lock is released (nil when the state is unchanged).
func (g *Guardian) transitionLocked(slot int, to State, err error, now time.Duration) *Event {
	s := &g.slots[slot]
	if s.state == to {
		return nil
	}
	from := s.state
	s.state = to
	return &Event{Slot: slot, From: from, To: to, When: now, Err: err}
}

// emit delivers ev to the trace recorder and the configured observer,
// filling the mirror label outside the guardian lock.
func (g *Guardian) emit(ev *Event) {
	if ev == nil {
		return
	}
	g.tracer.Event(trace.LayerGuardian, stateSpanNames[ev.To], uint64(ev.Slot))
	if g.flight.Enabled() {
		g.flight.Record(flight.GuardianTransition, "guardian",
			fmt.Sprintf("%s: %s -> %s", g.client.MirrorName(ev.Slot), ev.From, ev.To),
			uint64(ev.Slot))
	}
	if g.cfg.OnEvent == nil {
		return
	}
	ev.Mirror = g.client.MirrorName(ev.Slot)
	g.cfg.OnEvent(*ev)
}
