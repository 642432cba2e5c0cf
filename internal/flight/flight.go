// Package flight is the anomaly flight recorder: a bounded in-memory
// ring of structured events capturing the moments that matter when a
// cluster misbehaves — admission-control rejections, mirror
// degradations and push retries, guardian state transitions, quorum
// catch-up overflows, in-doubt commit repairs. Metrics say THAT these
// happened; the flight recorder says WHEN, in what order, and with
// what detail, which is what an operator actually needs at 3am.
//
// The recorder is deliberately cheap: a disabled recorder costs one
// atomic load per Record call and a nil recorder costs a nil check, so
// it can be threaded through hot paths unconditionally. Enabled, each
// event is one short critical section on a fixed-size ring — no
// allocation beyond the detail string the caller already built, no
// unbounded growth; when the ring wraps, the oldest events are dropped
// and counted.
//
// Snapshots serve over HTTP as JSON (mount the recorder on the metrics
// mux at /debug/events) and dump to a writer on shutdown, so a crash
// post-mortem has the last few thousand anomalies in order.
package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
)

// Kind classifies a recorded anomaly.
type Kind uint8

// The anomaly kinds, one per class of event worth replaying after an
// incident.
const (
	// BusyReject: the server's admission control rejected a request
	// (transaction, pipeline, or connection limit).
	BusyReject Kind = iota
	// ConnReject: a connection was refused at the listener limit.
	ConnReject
	// MalformedFrame: a connection died on an undecodable frame.
	MalformedFrame
	// MirrorDegrade: a mirror was marked down and writes continue
	// degraded.
	MirrorDegrade
	// MirrorRetry: a push to a mirror failed transiently and was
	// retried in place.
	MirrorRetry
	// GuardianTransition: the failure-detector state machine moved
	// (Healthy→Suspect, Suspect→Dead, Dead→Rebuilding, ...).
	GuardianTransition
	// CatchUpOverflow: a quorum-commit straggler's catch-up queue
	// overflowed and the mirror fell back to a full rebuild. The detail
	// names the mirror and the queue depth behind its in-flight exchange.
	CatchUpOverflow
	// InDoubtRepair: a decided cross-shard commit stuck in doubt was
	// re-driven to completion.
	InDoubtRepair
	// RecoveryPhase: crash recovery entered a phase (metadata fetch,
	// slot scan, database fetch, rollback, repair publish); the arg is
	// the recovery's parallelism.
	RecoveryPhase
	// RebuildPhase: an online mirror rebuild entered a phase (bulk
	// copy, catch-up epochs, final drain); the arg is the slot being
	// rebuilt.
	RebuildPhase
	// RecoveryRepair: crash recovery found the mirrors disagreeing and
	// acted — an undo slot's head transaction rolled back or repaired
	// forward (the arg is the slot), a mirror sent what it lacked, a
	// rolled-back transaction's records retired (the arg is the mirror,
	// the record count). A recovery whose mirrors agree records none.
	RecoveryRepair
	numKinds
)

var kindNames = [numKinds]string{
	"busy_reject",
	"conn_reject",
	"malformed_frame",
	"mirror_degrade",
	"mirror_retry",
	"guardian_transition",
	"catchup_overflow",
	"indoubt_repair",
	"recovery_phase",
	"rebuild_phase",
	"recovery_repair",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, so /debug/events is
// readable without a decoder ring.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one recorded anomaly.
type Event struct {
	// Seq is the event's position in the recorder's total order,
	// starting at 1; gaps at the front of a snapshot mean the ring
	// wrapped and older events were dropped.
	Seq uint64 `json:"seq"`
	// At is the recorder clock's reading when the event was recorded.
	At time.Duration `json:"at_ns"`
	// Kind classifies the anomaly.
	Kind Kind `json:"kind"`
	// Source names the component that recorded it ("txserver",
	// "netram", "guardian[ram1]", "router").
	Source string `json:"source"`
	// Detail is a short human-readable specifics string.
	Detail string `json:"detail,omitempty"`
	// Arg is an optional numeric payload (a limit, a retry count, a
	// decision id).
	Arg uint64 `json:"arg,omitempty"`
}

// DefaultCapacity is the ring size when New is given none.
const DefaultCapacity = 1024

// Recorder is the bounded event ring. The zero value is unusable; use
// New. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops), so components thread an optional recorder without
// guarding every call site.
type Recorder struct {
	enabled atomic.Bool
	dropped obs.Counter
	total   obs.Counter

	mu    sync.Mutex
	clock simclock.Clock
	ring  []Event
	next  uint64 // total events ever recorded; Seq of the next is next+1
}

// New builds a recorder with the given ring capacity (<= 0 selects
// DefaultCapacity). It starts disabled.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, 0, capacity)}
}

// Enable turns recording on.
func (r *Recorder) Enable() {
	if r != nil {
		r.enabled.Store(true)
	}
}

// Enabled reports whether Record stores events.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetClock sets the clock stamping events (nil keeps events unstamped;
// processes sharing a clock with their trace recorder get events that
// line up with spans).
func (r *Recorder) SetClock(clk simclock.Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = clk
	r.mu.Unlock()
}

// Record stores one event. Disabled or nil recorders return
// immediately — this is the hot-path cost.
func (r *Recorder) Record(kind Kind, source, detail string, arg uint64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	var at time.Duration
	if r.clock != nil {
		at = r.clock.Now()
	}
	r.next++
	ev := Event{Seq: r.next, At: at, Kind: kind, Source: source, Detail: detail, Arg: arg}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[(r.next-1)%uint64(cap(r.ring))] = ev
		r.dropped.Inc()
	}
	r.mu.Unlock()
	r.total.Inc()
}

// Snapshot returns the retained events, oldest first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	// Full ring: the oldest retained event sits just past the newest.
	head := int(r.next % uint64(cap(r.ring)))
	out = append(out, r.ring[head:]...)
	return append(out, r.ring[:head]...)
}

// Total reports how many events were ever recorded; Dropped how many
// fell off the ring.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Dropped reports how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// RegisterMetrics publishes the recorder's volume counters on reg.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	if r == nil {
		return
	}
	reg.RegisterCounter("perseas_flight_events_total", "anomaly events recorded", &r.total)
	reg.RegisterCounter("perseas_flight_events_dropped_total", "anomaly events dropped off the ring", &r.dropped)
}

// dump is the JSON document served at /debug/events and written on
// shutdown.
type dump struct {
	Total   uint64  `json:"total"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// WriteJSON writes the recorder's state as one indented JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	d := dump{Total: r.Total(), Dropped: r.Dropped(), Events: r.Snapshot()}
	if d.Events == nil {
		d.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ServeHTTP implements http.Handler: mount the recorder at
// /debug/events next to the metrics registry.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteJSON(w)
}
