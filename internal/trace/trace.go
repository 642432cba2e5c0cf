// Package trace records per-transaction commit-path spans: where obs
// (histograms) shows the commit path's cost in aggregate, trace keeps
// the causal timeline of individual transactions — which copy, which
// mirror, which combiner handoff ate the time in *this* commit — plus
// the infrastructure activity (transport batches, guardian transitions,
// rebuild epochs) interleaved with them.
//
// The design follows obs's discipline exactly: the recorder never
// advances a clock (it only samples Now), charges no virtual time, and
// collapses to a single atomic load when disabled, so reproduced
// figures stay byte-identical with tracing compiled in, enabled, or
// off. Span storage is a sharded ring buffer: the newest spans win,
// writers touch one shard mutex for a few words (uncontended in
// practice — shards are keyed by trace id), and a transaction's spans
// are buffered in a goroutine-owned TxTrace with no locking at all
// until Finish flushes the whole tree at once. That buffering is also
// what makes slow-transaction capture cheap: Finish compares the
// transaction's total duration against the configured threshold and
// discards the tree wholesale when it is ordinary.
//
// Span trees reconstruct from (Trace, ID, Parent): every span of one
// transaction carries the transaction's trace id, infrastructure spans
// use trace id 0. Renderers live in export.go (Chrome/Perfetto JSON)
// and report.go (text top-K slowest transactions).
package trace

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
)

// Layer identifies which layer of the stack emitted a span.
type Layer uint8

// The instrumented layers, top of the stack first.
const (
	// LayerEngine is the engine.Tx lifecycle: tx, set_range, commit,
	// abort, conflict.
	LayerEngine Layer = iota
	// LayerCore is the PERSEAS commit-path phases inside core: the
	// local undo copy and the commit push.
	LayerCore
	// LayerNetram is the network-RAM client: per-mirror writes,
	// fetches, retries, rebuild copies.
	LayerNetram
	// LayerTransport is the wire transport: combined write exchanges
	// and leader handoffs.
	LayerTransport
	// LayerGuardian is the failure detector: state transitions,
	// revives, rebuilds.
	LayerGuardian
	// LayerServer is the transaction front door: per-request serving
	// spans and group-commit convoys.
	LayerServer
	// LayerClient is the remote client library: pool acquisition,
	// request round trips, busy backoff — the half of a transaction's
	// life the server never sees.
	LayerClient

	numLayers
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerEngine:
		return "engine"
	case LayerCore:
		return "core"
	case LayerNetram:
		return "netram"
	case LayerTransport:
		return "transport"
	case LayerGuardian:
		return "guardian"
	case LayerServer:
		return "server"
	case LayerClient:
		return "client"
	default:
		return "unknown"
	}
}

// ParseLayer maps a layer name back to its Layer (the inverse of
// String); ok reports whether the name is known.
func ParseLayer(s string) (Layer, bool) {
	for l := Layer(0); l < numLayers; l++ {
		if l.String() == s {
			return l, true
		}
	}
	return 0, false
}

// Span is one recorded interval (or instant) of work. Within one trace
// id, (ID, Parent) links spans into a tree; infrastructure spans carry
// trace id 0. Name must be a static (or long-lived) string — the
// recorder stores it without copying.
type Span struct {
	// Trace groups the spans of one transaction; 0 is infrastructure.
	Trace uint64
	// ID identifies the span within its trace; Parent is the enclosing
	// span's ID, 0 for roots.
	ID, Parent uint64
	// Layer is the stack layer that emitted the span.
	Layer Layer
	// Name labels the work ("commit", "commit_push", a mirror label).
	Name string
	// Start is the recorder clock's reading when the span opened; Dur
	// is how long it stayed open (0 for instants).
	Start, Dur time.Duration
	// Arg is an optional payload: bytes moved, batch entries, a slot.
	Arg uint64
	// Proc names the process that recorded the span ("client",
	// "server-shard0"); empty for single-process captures. Merged
	// multi-process captures rely on it to tell which side of a stitched
	// transaction each span came from.
	Proc string
	// Instant marks a point event rather than an interval.
	Instant bool
}

// End reports when the span closed.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Ring geometry. Shards spread writer contention; each holds a
// fixed-size span ring where the newest spans overwrite the oldest.
// Transaction trees hash across numShards rings by trace id;
// infrastructure spans get one ring per layer, so a chatty layer
// (transport combine batches) can never evict the rare events of a
// quiet one (guardian transitions).
const (
	numShards  = 8
	shardSpans = 2048 // tx spans kept per shard; 16384 total
	infraSpans = 1024 // infrastructure spans kept per layer
)

// shard is one ring segment, guarded by its own mutex. The enabled
// gate keeps the mutex off the disabled path entirely, and tx spans
// arrive pre-batched, so in practice a lock covers one short copy.
type shard struct {
	mu  sync.Mutex
	buf []Span
	// pos counts spans ever written; pos % len(buf) is the next slot.
	pos uint64
	// pad keeps neighbouring shards off one cache line.
	_ [32]byte
}

// clockBox wraps the clock interface so it can swap atomically.
type clockBox struct{ c simclock.Clock }

// Metrics are the recorder's drop/overflow counters, registerable on an
// obs.Registry next to the metrics they complement.
type Metrics struct {
	// Spans counts spans written into the ring.
	Spans obs.Counter
	// KeptTxs counts transaction span trees flushed to the ring;
	// FilteredTxs counts trees discarded by the slower-than threshold.
	KeptTxs     obs.Counter
	FilteredTxs obs.Counter
	// Overflows counts ring slots overwritten before ever being read —
	// the capture window was shorter than the run.
	Overflows obs.Counter
}

// Recorder collects spans. The zero state is disabled: every recording
// call on a disabled (or nil) recorder is a single atomic load and all
// handle methods degrade to no-ops, cheap enough to leave compiled into
// the commit path unconditionally.
type Recorder struct {
	enabled atomic.Bool
	clock   atomic.Pointer[clockBox]
	// proc is the process tag stamped onto every recorded span; nil
	// means untagged (single-process captures).
	proc atomic.Pointer[string]
	// slower is the keep threshold in nanoseconds: a finished
	// transaction shorter than this is discarded whole.
	slower atomic.Int64
	// ids issues trace ids and infrastructure span ids.
	ids atomic.Uint64
	// shards ring transaction trees, hashed by trace id; infra rings
	// infrastructure spans, one per layer.
	shards  [numShards]shard
	infra   [numLayers]shard
	pool    sync.Pool
	metrics Metrics
}

// NewRecorder returns a disabled recorder reading the wall clock.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.clock.Store(&clockBox{c: simclock.NewWall()})
	for i := range r.shards {
		r.shards[i].buf = make([]Span, shardSpans)
	}
	for i := range r.infra {
		r.infra[i].buf = make([]Span, infraSpans)
	}
	return r
}

// Enable switches recording on. Nil-safe.
func (r *Recorder) Enable() {
	if r != nil {
		r.enabled.Store(true)
	}
}

// Disable switches recording off; in-flight TxTrace handles drain
// silently. Nil-safe.
func (r *Recorder) Disable() {
	if r != nil {
		r.enabled.Store(false)
	}
}

// Enabled reports whether spans are being recorded. Nil-safe.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetClock points timestamps at clk. Like every obs consumer the
// recorder only ever reads the clock (Now), never advances it; labs
// hand their SimClock here so span timestamps are modelled time.
// Nil-safe in both arguments.
func (r *Recorder) SetClock(clk simclock.Clock) {
	if r != nil && clk != nil {
		r.clock.Store(&clockBox{c: clk})
	}
}

// SetSlowerThan keeps only transactions whose total duration is at
// least d; zero keeps every finished transaction. Infrastructure spans
// are never filtered. Nil-safe.
func (r *Recorder) SetSlowerThan(d time.Duration) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.slower.Store(int64(d))
}

// SlowerThan reports the current keep threshold.
func (r *Recorder) SlowerThan() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slower.Load())
}

// SetProcess tags every span this recorder keeps with name, so merged
// multi-process captures can tell the client's spans from the
// server's. Nil-safe; an empty name clears the tag.
func (r *Recorder) SetProcess(name string) {
	if r == nil {
		return
	}
	if name == "" {
		r.proc.Store(nil)
		return
	}
	r.proc.Store(&name)
}

// Process reports the recorder's process tag.
func (r *Recorder) Process() string {
	if r == nil {
		return ""
	}
	if p := r.proc.Load(); p != nil {
		return *p
	}
	return ""
}

// Metrics exposes the recorder's counters.
func (r *Recorder) Metrics() *Metrics { return &r.metrics }

// RegisterMetrics publishes the recorder's drop/overflow counters on
// reg under the perseas_trace_* names.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	m := &r.metrics
	reg.RegisterCounter("perseas_trace_spans_total", "spans written into the trace ring", &m.Spans)
	reg.RegisterCounter("perseas_trace_tx_kept_total", "transaction span trees kept", &m.KeptTxs)
	reg.RegisterCounter("perseas_trace_tx_filtered_total", "transaction span trees dropped below -trace-slower-than", &m.FilteredTxs)
	reg.RegisterCounter("perseas_trace_ring_overflow_total", "ring slots overwritten by newer spans", &m.Overflows)
}

// now samples the recorder clock.
func (r *Recorder) now() time.Duration {
	return r.clock.Load().c.Now()
}

// keep appends spans to the ring shard selected by key, overwriting the
// oldest entries when the shard is full.
func (r *Recorder) keep(spans []Span, key uint64) {
	if len(spans) == 0 {
		return
	}
	proc := r.Process()
	sh := &r.shards[key%numShards]
	sh.mu.Lock()
	for _, sp := range spans {
		if sh.pos >= uint64(len(sh.buf)) {
			r.metrics.Overflows.Inc()
		}
		sp.Proc = proc
		sh.buf[sh.pos%uint64(len(sh.buf))] = sp
		sh.pos++
	}
	sh.mu.Unlock()
	r.metrics.Spans.Add(uint64(len(spans)))
}

// keepOneTx appends a single span to the transaction ring shard its
// trace id hashes to, without a slice allocation.
func (r *Recorder) keepOneTx(sp Span) {
	sp.Proc = r.Process()
	sh := &r.shards[sp.Trace%numShards]
	sh.mu.Lock()
	if sh.pos >= uint64(len(sh.buf)) {
		r.metrics.Overflows.Inc()
	}
	sh.buf[sh.pos%uint64(len(sh.buf))] = sp
	sh.pos++
	sh.mu.Unlock()
	r.metrics.Spans.Inc()
}

// keepOne appends a single infrastructure span to its layer's ring,
// without a slice allocation.
func (r *Recorder) keepOne(sp Span) {
	sp.Proc = r.Process()
	sh := &r.infra[sp.Layer%numLayers]
	sh.mu.Lock()
	if sh.pos >= uint64(len(sh.buf)) {
		r.metrics.Overflows.Inc()
	}
	sh.buf[sh.pos%uint64(len(sh.buf))] = sp
	sh.pos++
	sh.mu.Unlock()
	r.metrics.Spans.Inc()
}

// Snapshot copies the ring's current contents, oldest first per shard,
// ordered by start time across shards. The copy is not a linearizable
// cut — spans landing during the walk may straddle it — which is fine
// for export and reporting.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		out = r.shards[i].drain(out)
	}
	for i := range r.infra {
		out = r.infra[i].drain(out)
	}
	sortSpans(out)
	return out
}

// drain appends the shard's current contents to out, oldest first.
func (sh *shard) drain(out []Span) []Span {
	sh.mu.Lock()
	n := sh.pos
	capacity := uint64(len(sh.buf))
	start := uint64(0)
	if n > capacity {
		start = n - capacity
	}
	for p := start; p < n; p++ {
		out = append(out, sh.buf[p%capacity])
	}
	sh.mu.Unlock()
	return out
}

// Reset discards every recorded span (the counters keep counting).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.pos = 0
		sh.mu.Unlock()
	}
	for i := range r.infra {
		sh := &r.infra[i]
		sh.mu.Lock()
		sh.pos = 0
		sh.mu.Unlock()
	}
}

// ServeHTTP implements http.Handler: GET yields the ring's contents as
// Chrome trace-event JSON, mountable next to /metrics as /debug/traces.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = WriteChromeTrace(w, r.Snapshot())
}

// Tx opens a per-transaction span buffer carrying a fresh trace id, or
// nil when the recorder is disabled — every TxTrace and SpanRef method
// is nil-safe, so call sites thread the handle unconditionally. The
// returned handle is owned by the calling goroutine (matching the
// engine.Tx ownership contract) and records without locks until Finish.
func (r *Recorder) Tx() *TxTrace {
	if r == nil || !r.enabled.Load() {
		return nil
	}
	t, _ := r.pool.Get().(*TxTrace)
	if t == nil {
		t = &TxTrace{}
	}
	t.r = r
	t.trace = r.ids.Add(1)
	t.begin = r.now()
	return t
}

// TxAdopt opens a span buffer under a trace id another process began
// and propagated here — the server half of a stitched cross-process
// transaction. Span ids are drawn from a tagged space (bit 62 set,
// bits 32..61 a per-adoption nonce) so they can never collide with the
// originating process's sequential ids, or with another adoption of
// the same trace (a routed transaction adopts once per touched shard).
// Root spans attach under parentSpan, the propagated id of the remote
// span enclosing this process's work. A zero traceID (the peer was not
// tracing) or a disabled recorder returns nil, which every TxTrace
// method treats as off. Nil-safe.
func (r *Recorder) TxAdopt(traceID, parentSpan uint64) *TxTrace {
	if r == nil || !r.enabled.Load() || traceID == 0 {
		return nil
	}
	t, _ := r.pool.Get().(*TxTrace)
	if t == nil {
		t = &TxTrace{}
	}
	t.r = r
	t.trace = traceID
	t.begin = r.now()
	t.idTag = 1<<62 | (r.ids.Add(1)&(1<<30-1))<<32
	t.rootParent = parentSpan
	return t
}

// TxTrace buffers one transaction's span tree. Not safe for concurrent
// use — it belongs to the goroutine driving the transaction handle.
// The nil TxTrace is valid and records nothing.
type TxTrace struct {
	r     *Recorder
	trace uint64
	begin time.Duration
	spans []Span
	// stack holds the indices of currently open spans; the top is the
	// implicit parent of the next Start or Event.
	stack []int32
	// idTag is OR-ed into every span id; zero for locally-begun traces
	// (sequential ids), a bit-62-tagged nonce for adopted ones
	// (TxAdopt), keeping ids unique within a stitched cross-process
	// trace. rootParent is the remote span adopted roots hang under.
	idTag      uint64
	rootParent uint64
}

// Trace reports the handle's trace id (0 for nil).
func (t *TxTrace) Trace() uint64 {
	if t == nil {
		return 0
	}
	return t.trace
}

// Start opens a span nested under the innermost open span.
func (t *TxTrace) Start(layer Layer, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	parent := t.rootParent
	if n := len(t.stack); n > 0 {
		parent = t.idTag | (uint64(t.stack[n-1]) + 1)
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{
		Trace: t.trace, ID: t.idTag | (uint64(idx) + 1), Parent: parent,
		Layer: layer, Name: name, Start: t.r.now(),
	})
	t.stack = append(t.stack, int32(idx))
	return SpanRef{t: t, idx: int32(idx)}
}

// Completed appends an already-finished span under the innermost open
// span. Used when work ran off-goroutine (a parallel mirror fan-out
// worker timed itself) and its interval is reported back after the
// join: the caller still owns the TxTrace, so appending here keeps the
// no-locking contract while placing the interval correctly in the tree.
func (t *TxTrace) Completed(layer Layer, name string, start, dur time.Duration, arg uint64) {
	if t == nil {
		return
	}
	parent := t.rootParent
	if n := len(t.stack); n > 0 {
		parent = t.idTag | (uint64(t.stack[n-1]) + 1)
	}
	t.spans = append(t.spans, Span{
		Trace: t.trace, ID: t.idTag | (uint64(len(t.spans)) + 1), Parent: parent,
		Layer: layer, Name: name, Start: start, Dur: dur, Arg: arg,
	})
}

// Event records an instant under the innermost open span.
func (t *TxTrace) Event(layer Layer, name string, arg uint64) {
	if t == nil {
		return
	}
	parent := t.rootParent
	if n := len(t.stack); n > 0 {
		parent = t.idTag | (uint64(t.stack[n-1]) + 1)
	}
	t.spans = append(t.spans, Span{
		Trace: t.trace, ID: t.idTag | (uint64(len(t.spans)) + 1), Parent: parent,
		Layer: layer, Name: name, Start: t.r.now(), Arg: arg, Instant: true,
	})
}

// Finish closes the transaction: any span still open is ended at the
// current clock reading, and the whole tree is flushed to the ring if
// the transaction's total duration reaches the slower-than threshold —
// otherwise it is discarded in one piece. The handle must not be used
// afterwards.
func (t *TxTrace) Finish() {
	if t == nil {
		return
	}
	r := t.r
	now := r.now()
	for _, idx := range t.stack {
		sp := &t.spans[idx]
		sp.Dur = now - sp.Start
	}
	if len(t.spans) > 0 && r.enabled.Load() && now-t.begin >= time.Duration(r.slower.Load()) {
		r.keep(t.spans, t.trace)
		r.metrics.KeptTxs.Inc()
	} else if len(t.spans) > 0 {
		r.metrics.FilteredTxs.Inc()
	}
	t.r = nil
	t.trace = 0
	t.idTag = 0
	t.rootParent = 0
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	r.pool.Put(t)
}

// SpanRef is a handle to one open span of a TxTrace. The zero SpanRef
// is valid and does nothing.
type SpanRef struct {
	t   *TxTrace
	idx int32
}

// ID reports the span's id within its trace (0 for the zero SpanRef) —
// what a client propagates as the parent of the remote work this span
// encloses.
func (s SpanRef) ID() uint64 {
	if s.t == nil {
		return 0
	}
	return s.t.spans[s.idx].ID
}

// End closes the span.
func (s SpanRef) End() {
	s.close(0, false)
}

// EndN closes the span recording arg (bytes moved, entries batched).
func (s SpanRef) EndN(arg uint64) {
	s.close(arg, true)
}

func (s SpanRef) close(arg uint64, setArg bool) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.Dur = s.t.r.now() - sp.Start
	if setArg {
		sp.Arg = arg
	}
	// Pop this span (and, defensively, anything opened above it that
	// was never ended) off the open stack. A ref that is no longer on
	// the stack — ended twice — changes nothing.
	st := s.t.stack
	for n := len(st) - 1; n >= 0; n-- {
		if st[n] == s.idx {
			s.t.stack = st[:n]
			break
		}
	}
}

// Start opens an infrastructure span (trace id 0) — transport batches,
// guardian repairs, rebuild epochs: work not owned by one transaction.
// The span flushes to the ring when ended. Safe to call from any
// goroutine; returns an inert span when the recorder is disabled or
// nil.
func (r *Recorder) Start(layer Layer, name string) InfraSpan {
	if r == nil || !r.enabled.Load() {
		return InfraSpan{}
	}
	return InfraSpan{r: r, sp: Span{
		ID: r.ids.Add(1), Layer: layer, Name: name, Start: r.now(),
	}}
}

// LinkedSpan opens a span attached to an existing transaction's trace
// tree: it carries that transaction's trace id, so renderers place it
// on the same track as the engine-side spans, stitched as a sibling
// root (the server observed the request envelope around the engine's
// own tree). IDs are drawn from a high-bit-tagged space so they can
// never collide with the tree's sequential span ids. With a zero trace
// id (tracing off at Begin, or a non-tracing engine) it degrades to a
// plain infrastructure span. Nil-safe.
func (r *Recorder) LinkedSpan(layer Layer, name string, traceID uint64) InfraSpan {
	if r == nil || !r.enabled.Load() {
		return InfraSpan{}
	}
	if traceID == 0 {
		return r.Start(layer, name)
	}
	return InfraSpan{r: r, sp: Span{
		Trace: traceID, ID: 1<<63 | r.ids.Add(1),
		Layer: layer, Name: name, Start: r.now(),
	}}
}

// LinkedSpanFrom is LinkedSpan with an explicit parent: the span
// attaches under parentSpan of the transaction's tree instead of
// floating as a sibling root. The front door uses it to hang its
// request-envelope spans under the client-side span that sent the
// request (wire.Request.TraceSpan). A zero parent degrades to
// LinkedSpan. Nil-safe.
func (r *Recorder) LinkedSpanFrom(layer Layer, name string, traceID, parentSpan uint64) InfraSpan {
	if r == nil || !r.enabled.Load() {
		return InfraSpan{}
	}
	if traceID == 0 {
		return r.Start(layer, name)
	}
	return InfraSpan{r: r, sp: Span{
		Trace: traceID, ID: 1<<63 | r.ids.Add(1), Parent: parentSpan,
		Layer: layer, Name: name, Start: r.now(),
	}}
}

// Event records an infrastructure instant. Nil-safe.
func (r *Recorder) Event(layer Layer, name string, arg uint64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.keepOne(Span{
		ID: r.ids.Add(1), Layer: layer, Name: name,
		Start: r.now(), Arg: arg, Instant: true,
	})
}

// InfraSpan is one open infrastructure span. It is a value: copies
// share nothing, and the zero InfraSpan does nothing.
type InfraSpan struct {
	r  *Recorder
	sp Span
}

// Active reports whether the span is recording.
func (s InfraSpan) Active() bool { return s.r != nil }

// Child opens a span nested under this one.
func (s InfraSpan) Child(layer Layer, name string) InfraSpan {
	if s.r == nil {
		return InfraSpan{}
	}
	return InfraSpan{r: s.r, sp: Span{
		ID: s.r.ids.Add(1), Parent: s.sp.ID,
		Layer: layer, Name: name, Start: s.r.now(),
	}}
}

// End closes the span and writes it to the ring.
func (s InfraSpan) End() {
	if s.r == nil {
		return
	}
	s.sp.Dur = s.r.now() - s.sp.Start
	s.flush()
}

// EndN is End recording arg.
func (s InfraSpan) EndN(arg uint64) {
	if s.r == nil {
		return
	}
	s.sp.Dur = s.r.now() - s.sp.Start
	s.sp.Arg = arg
	s.flush()
}

// flush routes the closed span to its ring: linked spans (non-zero
// trace id, from LinkedSpan) join the transaction shard their tree
// hashes to; plain infrastructure spans keep their per-layer ring.
func (s InfraSpan) flush() {
	if s.sp.Trace != 0 {
		s.r.keepOneTx(s.sp)
		return
	}
	s.r.keepOne(s.sp)
}
