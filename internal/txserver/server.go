// Package txserver is the transaction front door: it serves the
// PERSEAS transaction API itself — Begin/SetRange/Commit/Abort and the
// database lifecycle — over the wire protocol, on top of any
// engine.Engine (the concurrent PERSEAS library, a sequential core, or
// the sharded router). The paper's client-server split (Section 4)
// stops at raw remote memory; this layer completes it, so many client
// processes can drive one PERSEAS installation without linking the
// library.
//
// Connections are pipelined: a client may stream many requests before
// reading replies. Every request carries a correlation ID the server
// echoes, and each request is handled on its own goroutine, so replies
// complete out of order — a long commit never convoys an independent
// transaction's begin behind it. Requests touching the *same*
// transaction must be awaited by the client before sending the next
// (the engine.Tx ownership contract on the wire); requests for
// different transactions interleave freely on one connection.
//
// Commits pass through a cross-client group-commit gate (convoy.go)
// that generalises the TCP transport's leader-handoff write combiner:
// commits arriving while a mirror fan-out window is in flight batch
// into the next window and run as one overlapping fan-out.
//
// Backpressure is explicit. Each connection has a bounded number of
// in-flight requests and the server a bounded number of live
// transactions; beyond either bound the server answers a typed BUSY
// reply instead of queueing without limit. Slow readers are bounded by
// per-frame write deadlines, and a connection-count limit turns away
// accepts beyond capacity with a BUSY reply. A frame that fails to
// decode draws a typed BAD-REQUEST reply and the connection is closed
// — one malformed client cannot wedge the convoy or the process.
package txserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/wire"
)

// CommitMode selects how commits reach the engine.
type CommitMode int

const (
	// GroupCommit batches commits arriving during a mirror fan-out
	// window into the next window (the default).
	GroupCommit CommitMode = iota
	// SerialCommit runs one commit at a time, each paying its own
	// fan-out — the no-batching baseline the benchmarks compare
	// against.
	SerialCommit
)

// String implements fmt.Stringer.
func (m CommitMode) String() string {
	if m == SerialCommit {
		return "serial"
	}
	return "group"
}

// Defaults. MaxConns leaves headroom over the 10k-connection serving
// target; MaxInFlight bounds one connection's pipeline; MaxTxs bounds
// the server-wide transaction working set (and with it the conflict
// table's occupancy).
const (
	DefaultMaxConns     = 16384
	DefaultMaxInFlight  = 64
	DefaultMaxTxs       = 8192
	DefaultWriteTimeout = 10 * time.Second
)

// Metrics are the server's counters and distributions.
type Metrics struct {
	// ConnsTotal counts accepted connections; ConnsRejected those
	// turned away at the connection limit.
	ConnsTotal    obs.Counter
	ConnsRejected obs.Counter
	// Requests counts every decoded request; Busy the admission
	// rejections; Malformed the connections dropped over undecodable
	// frames.
	Requests  obs.Counter
	Busy      obs.Counter
	Malformed obs.Counter
	// Transaction outcomes.
	TxsBegun     obs.Counter
	TxsCommitted obs.Counter
	TxsAborted   obs.Counter
	// Depth samples a connection's in-flight request count at each
	// arrival; Batch is the group-commit convoy size distribution.
	Depth obs.Histogram
	Batch obs.Histogram
}

// Option configures a Server.
type Option func(*Server)

// WithMaxConns bounds concurrent connections (0 keeps the default).
func WithMaxConns(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxConns = n
		}
	}
}

// WithMaxInFlight bounds one connection's pipelined requests.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxInFlight = n
		}
	}
}

// WithMaxTxs bounds server-wide live transactions.
func WithMaxTxs(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxTxs = n
		}
	}
}

// WithWriteTimeout bounds each response frame's write (slow readers).
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.writeTimeout = d
		}
	}
}

// WithCommitMode selects the commit gate policy.
func WithCommitMode(m CommitMode) Option {
	return func(s *Server) { s.mode = m }
}

// WithFaultInjection serves OpTxCrash/OpTxRecover, so conformance and
// chaos harnesses can exercise the recovery path over the wire. Never
// enable it on a production listener.
func WithFaultInjection() Option {
	return func(s *Server) { s.faultOps = true }
}

// WithTracer records per-request server spans (and group-commit
// events) on rec, stitched to the engine's transaction trees when the
// engine exposes trace ids.
func WithTracer(rec *trace.Recorder) Option {
	return func(s *Server) { s.tracer = rec }
}

// WithFlightRecorder records the server's anomalies — admission
// rejections, malformed frames — on r for post-incident replay.
func WithFlightRecorder(r *flight.Recorder) Option {
	return func(s *Server) { s.flight = r }
}

// serverDB is one database the server holds open, keyed by the wire
// handle it issued.
type serverDB struct {
	id     uint32
	db     engine.DB
	inited bool
}

// txRange is one declared range, remembered for commit validation.
type txRange struct {
	db          uint32
	off, length uint64
}

// serverTx is one live transaction. mu serialises operations on the
// handle — the engine.Tx ownership contract, enforced server-side so a
// client that pipelines same-transaction requests anyway cannot
// corrupt the engine.
type serverTx struct {
	id      uint64
	tx      engine.Tx
	owner   *srvConn
	traceID uint64
	mu      sync.Mutex
	ranges  []txRange
	done    bool
	// ranges0 is where ranges starts out, so a transaction of a few
	// ranges allocates no list.
	ranges0 [4]txRange
}

// Server serves the transaction API on top of an engine.
type Server struct {
	eng          engine.Engine
	maxConns     int
	maxInFlight  int
	maxTxs       int
	writeTimeout time.Duration
	mode         CommitMode
	faultOps     bool
	tracer       *trace.Recorder
	flight       *flight.Recorder

	conns   atomic.Int64
	liveTxs atomic.Int64

	mu     sync.Mutex
	txs    map[uint64]*serverTx
	dbs    map[uint32]*serverDB
	byName map[string]uint32
	nextTx uint64
	nextDB uint32

	gate convoy
	// serial is the SerialCommit gate: one commit at a time.
	serial sync.Mutex

	// imageMu orders OpTxRead's copy of a database image against the
	// writes transactions make to it. Transactions write disjoint bytes
	// — the conflict table sees to that — so they share the lock; a
	// read copies bytes no claim covers, so it alone excludes them.
	imageMu sync.RWMutex

	m Metrics
}

// New builds a server over eng.
func New(eng engine.Engine, opts ...Option) *Server {
	s := &Server{
		eng:          eng,
		maxConns:     DefaultMaxConns,
		maxInFlight:  DefaultMaxInFlight,
		maxTxs:       DefaultMaxTxs,
		writeTimeout: DefaultWriteTimeout,
		txs:          make(map[uint64]*serverTx),
		dbs:          make(map[uint32]*serverDB),
		byName:       make(map[string]uint32),
	}
	for _, o := range opts {
		o(s)
	}
	s.gate.observe = func(n int) {
		s.m.Batch.Observe(uint64(n))
		s.tracer.Event(trace.LayerServer, "convoy", uint64(n))
	}
	return s
}

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return &s.m }

// Mode reports the commit gate policy.
func (s *Server) Mode() CommitMode { return s.mode }

// Conns reports the live connection count.
func (s *Server) Conns() int { return int(s.conns.Load()) }

// LiveTxs reports the live transaction count.
func (s *Server) LiveTxs() int { return int(s.liveTxs.Load()) }

// RegisterMetrics publishes the server's counters on reg under the
// perseas_txserver_* names.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	m := &s.m
	reg.RegisterGauge("perseas_txserver_connections", "live client connections",
		func() uint64 { return uint64(s.conns.Load()) })
	reg.RegisterGauge("perseas_txserver_inflight_txs", "live transactions",
		func() uint64 { return uint64(s.liveTxs.Load()) })
	reg.RegisterCounter("perseas_txserver_conns_total", "connections accepted", &m.ConnsTotal)
	reg.RegisterCounter("perseas_txserver_conns_rejected_total", "connections turned away at the limit", &m.ConnsRejected)
	reg.RegisterCounter("perseas_txserver_requests_total", "requests decoded", &m.Requests)
	reg.RegisterCounter("perseas_txserver_busy_total", "requests answered BUSY by admission control", &m.Busy)
	reg.RegisterCounter("perseas_txserver_malformed_total", "connections dropped over undecodable frames", &m.Malformed)
	reg.RegisterCounter("perseas_txserver_txs_begun_total", "transactions begun", &m.TxsBegun)
	reg.RegisterCounter("perseas_txserver_txs_committed_total", "transactions committed", &m.TxsCommitted)
	reg.RegisterCounter("perseas_txserver_txs_aborted_total", "transactions aborted", &m.TxsAborted)
	reg.RegisterHistogram("perseas_txserver_pipeline_depth", "in-flight requests per connection at arrival", &m.Depth)
	reg.RegisterHistogram("perseas_txserver_commit_batch", "commits per group-commit convoy", &m.Batch)
}

// Stats assembles the wire-visible counter snapshot.
func (s *Server) Stats() wire.TxStats {
	batch := s.m.Batch.Snapshot()
	depth := s.m.Depth.Snapshot()
	return wire.TxStats{
		Conns:           uint64(s.conns.Load()),
		ConnsTotal:      s.m.ConnsTotal.Load(),
		ConnsRejected:   s.m.ConnsRejected.Load(),
		TxsBegun:        s.m.TxsBegun.Load(),
		TxsCommitted:    s.m.TxsCommitted.Load(),
		TxsAborted:      s.m.TxsAborted.Load(),
		TxsInFlight:     uint64(s.liveTxs.Load()),
		BusyRejected:    s.m.Busy.Load(),
		MalformedFrames: s.m.Malformed.Load(),
		Convoys:         batch.Count,
		ConvoyCommits:   batch.Sum,
		BatchP50:        uint64(batch.Quantile(0.50)),
		BatchP99:        uint64(batch.Quantile(0.99)),
		BatchMax:        batch.Max,
		DepthP50:        uint64(depth.Quantile(0.50)),
		DepthP99:        uint64(depth.Quantile(0.99)),
		DepthMax:        depth.Max,
	}
}

// Serve accepts connections on l until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if int(s.conns.Load()) >= s.maxConns {
			s.m.ConnsRejected.Inc()
			s.flight.Record(flight.ConnReject, "txserver", "connection limit reached", uint64(s.maxConns))
			_ = nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
			_ = wire.NewConn(nc).SendResponse(&wire.Response{
				Status: wire.StatusError, Code: wire.TxBusy,
				Err: "txserver: connection limit reached",
			})
			nc.Close()
			continue
		}
		s.conns.Add(1)
		s.m.ConnsTotal.Inc()
		go s.serveConn(nc)
	}
}

// srvConn is one client connection's state.
type srvConn struct {
	s *Server
	c net.Conn
	// wc frames c: the read loop receives on it while the write loop
	// sends.
	wc       *wire.Conn
	out      chan *wire.Response
	inFlight atomic.Int64
	handlers sync.WaitGroup
}

// ServeConn serves a single already-accepted connection (tests and
// in-process harnesses). It returns when the connection is done.
func (s *Server) ServeConn(nc net.Conn) {
	s.conns.Add(1)
	s.m.ConnsTotal.Inc()
	s.serveConn(nc)
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.conns.Add(-1)
	c := &srvConn{s: s, c: nc, wc: wire.NewConn(nc), out: make(chan *wire.Response, 256)}
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		c.writeLoop()
	}()

	c.readLoop()
	// Handlers still running may enqueue; wait them out, then let the
	// writer drain and exit.
	c.handlers.Wait()
	close(c.out)
	writer.Wait()
	nc.Close()
	s.releaseConn(c)
}

// readLoop decodes frames and dispatches handlers until the stream
// ends or a frame fails to decode. A request is handed to a goroutine
// that outlives this iteration — with pipelining, many are live at once
// — so each owns its frame's body; nothing here is reused.
func (c *srvConn) readLoop() {
	s := c.s
	for {
		req := new(wire.Request)
		if err := c.wc.RecvRequestOwned(req); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) {
				return
			}
			// The frame arrived but did not decode: answer with a typed
			// error so the client learns why, then drop the connection —
			// resynchronising an undecodable stream is hopeless.
			s.m.Malformed.Inc()
			s.flight.Record(flight.MalformedFrame, "txserver", err.Error(), 0)
			c.out <- &wire.Response{
				Status: wire.StatusError, Code: wire.TxBadRequest,
				Err: fmt.Sprintf("txserver: malformed frame: %v", err),
			}
			return
		}
		s.m.Requests.Inc()
		depth := c.inFlight.Add(1)
		s.m.Depth.Observe(uint64(depth))
		if int(depth) > s.maxInFlight {
			s.m.Busy.Inc()
			s.flight.Record(flight.BusyReject, "txserver", "connection pipeline limit reached", uint64(depth))
			c.finish(&wire.Response{
				Status: wire.StatusError, ID: req.ID, Code: wire.TxBusy,
				Err: "txserver: connection pipeline limit reached",
			})
			continue
		}
		c.handlers.Add(1)
		go func() {
			defer c.handlers.Done()
			c.finish(s.handle(c, req))
		}()
	}
}

// finish enqueues a response and retires its request's pipeline slot.
func (c *srvConn) finish(resp *wire.Response) {
	c.out <- resp
	c.inFlight.Add(-1)
}

// writeLoop writes responses under a per-frame deadline. After a write
// error the connection is torn down and the remaining responses drain
// into the void, so handlers never block on a dead peer.
func (c *srvConn) writeLoop() {
	dead := false
	for resp := range c.out {
		if dead {
			continue
		}
		_ = c.c.SetWriteDeadline(time.Now().Add(c.s.writeTimeout))
		if err := c.wc.SendResponse(resp); err != nil {
			dead = true
			c.c.Close() // unblock the read loop too
		}
	}
}

// releaseConn aborts the connection's orphaned transactions, so a
// dying client's conflict-table claims do not outlive it.
func (s *Server) releaseConn(c *srvConn) {
	s.mu.Lock()
	var orphans []*serverTx
	for id, st := range s.txs {
		if st.owner == c {
			orphans = append(orphans, st)
			delete(s.txs, id)
		}
	}
	s.mu.Unlock()
	for _, st := range orphans {
		st.mu.Lock()
		if !st.done {
			st.done = true
			_ = s.abort(st)
			s.liveTxs.Add(-1)
			s.m.TxsAborted.Inc()
		}
		st.mu.Unlock()
	}
}

// handle executes one request and builds its response.
func (s *Server) handle(c *srvConn, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpTxBegin:
		return s.handleBegin(c, req)
	case wire.OpTxSetRange:
		return s.handleSetRange(c, req)
	case wire.OpTxCommit:
		return s.handleCommit(c, req)
	case wire.OpTxAbort:
		return s.handleAbort(c, req)
	case wire.OpTxOpenDB:
		return s.handleOpenDB(req)
	case wire.OpTxCreateDB:
		return s.handleCreateDB(req)
	case wire.OpTxRead:
		return s.handleRead(req)
	case wire.OpTxLoad:
		return s.handleLoad(req)
	case wire.OpTxInitDB:
		return s.handleInitDB(req)
	case wire.OpTxStats:
		stats := s.Stats()
		return &wire.Response{Status: wire.StatusOK, ID: req.ID, Data: wire.EncodeTxStats(&stats)}
	case wire.OpTxCrash:
		return s.handleCrash(req)
	case wire.OpTxRecover:
		return s.handleRecover(req)
	default:
		return fail(req, wire.TxError, "txserver: unexpected op %s", req.Op)
	}
}

// fail builds a typed error response.
func fail(req *wire.Request, code wire.TxCode, format string, args ...any) *wire.Response {
	return &wire.Response{
		Status: wire.StatusError, ID: req.ID, Code: code,
		Err: fmt.Sprintf(format, args...),
	}
}

// engineFail maps an engine error onto its wire code.
func engineFail(req *wire.Request, err error) *wire.Response {
	return &wire.Response{
		Status: wire.StatusError, ID: req.ID, Code: codeOf(err), Err: err.Error(),
	}
}

// codeOf classifies an engine error.
func codeOf(err error) wire.TxCode {
	switch {
	case errors.Is(err, engine.ErrBusy):
		return wire.TxBusy
	case errors.Is(err, engine.ErrConflict):
		return wire.TxConflict
	case errors.Is(err, engine.ErrNoTransaction):
		return wire.TxNoTransaction
	case errors.Is(err, engine.ErrInTransaction):
		return wire.TxInTransaction
	case errors.Is(err, engine.ErrCrashed):
		return wire.TxCrashed
	case errors.Is(err, engine.ErrUnrecoverable):
		return wire.TxUnrecoverable
	default:
		return wire.TxError
	}
}

func (s *Server) handleBegin(c *srvConn, req *wire.Request) *wire.Response {
	if int(s.liveTxs.Load()) >= s.maxTxs {
		s.m.Busy.Inc()
		s.flight.Record(flight.BusyReject, "txserver", "transaction limit reached", uint64(s.maxTxs))
		return fail(req, wire.TxBusy, "txserver: transaction limit reached")
	}
	sp := s.tracer.LinkedSpanFrom(trace.LayerServer, "serve_begin", req.TraceID, req.TraceSpan)
	tx, err := s.begin(req)
	if err != nil {
		sp.End()
		// The engine's own capacity limit (undo slots exhausted) is as
		// retryable as the server's admission gate; count it the same.
		if errors.Is(err, engine.ErrBusy) {
			s.m.Busy.Inc()
			s.flight.Record(flight.BusyReject, "txserver", "engine at capacity", 0)
		}
		return engineFail(req, err)
	}
	st := &serverTx{tx: tx, owner: c, traceID: req.TraceID}
	st.ranges = st.ranges0[:0]
	if st.traceID == 0 {
		if tt, ok := tx.(interface{ TraceID() uint64 }); ok {
			st.traceID = tt.TraceID()
		}
	}
	s.mu.Lock()
	s.nextTx++
	st.id = s.nextTx
	s.txs[st.id] = st
	s.mu.Unlock()
	s.liveTxs.Add(1)
	s.m.TxsBegun.Inc()
	sp.EndN(st.id)
	return &wire.Response{Status: wire.StatusOK, ID: req.ID, Tx: st.id}
}

// begin starts an engine transaction, handing a propagated trace
// context to engines that can adopt one (engine.TraceBeginner) so the
// engine's own spans land in the remote client's trace tree.
func (s *Server) begin(req *wire.Request) (engine.Tx, error) {
	if req.TraceID != 0 {
		if tb, ok := s.eng.(engine.TraceBeginner); ok {
			return tb.BeginTraced(req.TraceID, req.TraceSpan)
		}
	}
	return s.eng.Begin()
}

// lookupTx resolves a transaction handle for c; a handle another
// connection owns is as unknown as one that never existed.
func (s *Server) lookupTx(c *srvConn, id uint64) *serverTx {
	s.mu.Lock()
	st := s.txs[id]
	s.mu.Unlock()
	if st == nil || st.owner != c {
		return nil
	}
	return st
}

// lookupDB resolves a database handle.
func (s *Server) lookupDB(id uint32) *serverDB {
	s.mu.Lock()
	db := s.dbs[id]
	s.mu.Unlock()
	return db
}

// dropTx retires a finished transaction. Caller holds st.mu; the done
// guard keeps a crash wipe and a concurrent finisher from both
// decrementing the live count.
func (s *Server) dropTx(st *serverTx) {
	if st.done {
		return
	}
	st.done = true
	s.liveTxs.Add(-1)
	s.mu.Lock()
	delete(s.txs, st.id)
	s.mu.Unlock()
}

func (s *Server) handleSetRange(c *srvConn, req *wire.Request) *wire.Response {
	st := s.lookupTx(c, req.Tx)
	if st == nil {
		return fail(req, wire.TxUnknownTx, "txserver: no transaction %d", req.Tx)
	}
	db := s.lookupDB(req.Seg)
	if db == nil {
		return fail(req, wire.TxUnknownDB, "txserver: no database handle %d", req.Seg)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return fail(req, wire.TxUnknownTx, "txserver: transaction %d already finished", req.Tx)
	}
	sp := s.tracer.LinkedSpanFrom(trace.LayerServer, "serve_set_range", st.traceID, req.TraceSpan)
	err := st.tx.SetRange(db.db, req.Offset, req.Size)
	sp.EndN(req.Size)
	if err != nil {
		return engineFail(req, err)
	}
	st.ranges = append(st.ranges, txRange{db: req.Seg, off: req.Offset, length: req.Size})
	// Hand back the range's current bytes. The conflict table just
	// granted this transaction the range, so nobody else writes it until
	// commit/abort — the client uses the copy to bring its local replica
	// up to date with other clients' committed updates.
	cur := make([]byte, req.Size)
	copy(cur, db.db.Bytes()[req.Offset:req.Offset+req.Size])
	return &wire.Response{Status: wire.StatusOK, ID: req.ID, Data: cur}
}

func (s *Server) handleCommit(c *srvConn, req *wire.Request) *wire.Response {
	st := s.lookupTx(c, req.Tx)
	if st == nil {
		return fail(req, wire.TxUnknownTx, "txserver: no transaction %d", req.Tx)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return fail(req, wire.TxUnknownTx, "txserver: transaction %d already finished", req.Tx)
	}
	// Apply the client's final bytes, each write validated against the
	// transaction's declared ranges — the server never lets one client
	// scribble outside what the conflict table granted it.
	if resp := s.applyBatch(st, req); resp != nil {
		return resp
	}
	sp := s.tracer.LinkedSpanFrom(trace.LayerServer, "serve_commit", st.traceID, req.TraceSpan)
	err := s.commit(st.tx.Commit)
	sp.EndN(uint64(len(req.Batch)))
	s.dropTx(st)
	if err != nil {
		return engineFail(req, err)
	}
	s.m.TxsCommitted.Inc()
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}

// applyBatch copies a commit's final bytes into the databases; a nil
// response means every entry landed.
func (s *Server) applyBatch(st *serverTx, req *wire.Request) *wire.Response {
	s.imageMu.RLock()
	defer s.imageMu.RUnlock()
	for _, e := range req.Batch {
		if !st.covers(e.Seg, e.Offset, uint64(len(e.Data))) {
			return fail(req, wire.TxBadRequest,
				"txserver: commit write db=%d [%d,+%d) outside declared ranges",
				e.Seg, e.Offset, len(e.Data))
		}
		db := s.lookupDB(e.Seg)
		if db == nil {
			return fail(req, wire.TxUnknownDB, "txserver: no database handle %d", e.Seg)
		}
		copy(db.db.Bytes()[e.Offset:], e.Data)
	}
	return nil
}

// abort rolls st's engine transaction back, which restores the
// before-images of its ranges in place.
func (s *Server) abort(st *serverTx) error {
	s.imageMu.RLock()
	defer s.imageMu.RUnlock()
	return st.tx.Abort()
}

// covers reports whether [off, off+n) of db lies inside one declared
// range.
func (st *serverTx) covers(db uint32, off, n uint64) bool {
	for _, r := range st.ranges {
		if r.db == db && off >= r.off && off+n <= r.off+r.length {
			return true
		}
	}
	return false
}

// commit runs an engine commit through the configured gate.
func (s *Server) commit(do commitFn) error {
	if s.mode == SerialCommit {
		s.serial.Lock()
		err := do()
		s.serial.Unlock()
		s.m.Batch.Observe(1)
		return err
	}
	return s.gate.run(do)
}

func (s *Server) handleAbort(c *srvConn, req *wire.Request) *wire.Response {
	st := s.lookupTx(c, req.Tx)
	if st == nil {
		return fail(req, wire.TxUnknownTx, "txserver: no transaction %d", req.Tx)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return fail(req, wire.TxUnknownTx, "txserver: transaction %d already finished", req.Tx)
	}
	sp := s.tracer.LinkedSpanFrom(trace.LayerServer, "serve_abort", st.traceID, req.TraceSpan)
	err := s.abort(st)
	sp.End()
	s.dropTx(st)
	if err != nil {
		return engineFail(req, err)
	}
	s.m.TxsAborted.Inc()
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}

func (s *Server) handleOpenDB(req *wire.Request) *wire.Response {
	db, err := s.eng.OpenDB(req.Name)
	if err != nil {
		return engineFail(req, err)
	}
	h := s.publishDB(db, true)
	return &wire.Response{Status: wire.StatusOK, ID: req.ID, Seg: h, Size: db.Size()}
}

func (s *Server) handleCreateDB(req *wire.Request) *wire.Response {
	db, err := s.eng.CreateDB(req.Name, req.Size)
	if err != nil {
		return engineFail(req, err)
	}
	h := s.publishDB(db, false)
	return &wire.Response{Status: wire.StatusOK, ID: req.ID, Seg: h, Size: db.Size()}
}

// publishDB issues a wire handle for db. Reopening a name issues a
// fresh handle bound to the engine's current region — what a client
// needs after Recover, when pre-crash handles must go stale rather
// than alias dead buffers.
func (s *Server) publishDB(db engine.DB, inited bool) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextDB++
	h := s.nextDB
	s.dbs[h] = &serverDB{id: h, db: db, inited: inited}
	if prev, ok := s.byName[db.Name()]; ok {
		// The previous handle for this name no longer reaches the live
		// region; retire it so misuse surfaces as UNKNOWN-DB.
		if old := s.dbs[prev]; old != nil && old.db != db {
			delete(s.dbs, prev)
		}
	}
	s.byName[db.Name()] = h
	return h
}

func (s *Server) handleRead(req *wire.Request) *wire.Response {
	db := s.lookupDB(req.Seg)
	if db == nil {
		return fail(req, wire.TxUnknownDB, "txserver: no database handle %d", req.Seg)
	}
	b := db.db.Bytes()
	end := req.Offset + uint64(req.Length)
	if end < req.Offset || end > uint64(len(b)) {
		return fail(req, wire.TxBadRequest, "txserver: read [%d,+%d) outside database of %d bytes",
			req.Offset, req.Length, len(b))
	}
	out := make([]byte, req.Length)
	s.imageMu.Lock()
	copy(out, b[req.Offset:end])
	s.imageMu.Unlock()
	return &wire.Response{Status: wire.StatusOK, ID: req.ID, Data: out}
}

func (s *Server) handleLoad(req *wire.Request) *wire.Response {
	s.mu.Lock()
	db := s.dbs[req.Seg]
	if db != nil && db.inited {
		s.mu.Unlock()
		return fail(req, wire.TxBadRequest, "txserver: load into initialised database %d (use transactions)", req.Seg)
	}
	s.mu.Unlock()
	if db == nil {
		return fail(req, wire.TxUnknownDB, "txserver: no database handle %d", req.Seg)
	}
	b := db.db.Bytes()
	end := req.Offset + uint64(len(req.Data))
	if end < req.Offset || end > uint64(len(b)) {
		return fail(req, wire.TxBadRequest, "txserver: load [%d,+%d) outside database of %d bytes",
			req.Offset, len(req.Data), len(b))
	}
	s.imageMu.Lock() // loads hold no claims: nothing keeps two apart
	copy(b[req.Offset:end], req.Data)
	s.imageMu.Unlock()
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}

func (s *Server) handleInitDB(req *wire.Request) *wire.Response {
	db := s.lookupDB(req.Seg)
	if db == nil {
		return fail(req, wire.TxUnknownDB, "txserver: no database handle %d", req.Seg)
	}
	if err := s.eng.InitDB(db.db); err != nil {
		return engineFail(req, err)
	}
	s.mu.Lock()
	db.inited = true
	s.mu.Unlock()
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}

func (s *Server) handleCrash(req *wire.Request) *wire.Response {
	if !s.faultOps {
		return fail(req, wire.TxError, "txserver: fault injection not enabled")
	}
	err := s.eng.Crash(fault.CrashKind(req.Size))
	// Every open transaction died with the engine's volatile state, and
	// every database handle now points at a dead buffer.
	s.mu.Lock()
	victims := make([]*serverTx, 0, len(s.txs))
	for id, st := range s.txs {
		victims = append(victims, st)
		delete(s.txs, id)
	}
	s.dbs = make(map[uint32]*serverDB)
	s.byName = make(map[string]uint32)
	s.mu.Unlock()
	for _, st := range victims {
		st.mu.Lock()
		if !st.done {
			st.done = true
			s.liveTxs.Add(-1)
		}
		st.mu.Unlock()
	}
	if err != nil {
		return engineFail(req, err)
	}
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}

func (s *Server) handleRecover(req *wire.Request) *wire.Response {
	if !s.faultOps {
		return fail(req, wire.TxError, "txserver: fault injection not enabled")
	}
	if err := s.eng.Recover(); err != nil {
		return engineFail(req, err)
	}
	return &wire.Response{Status: wire.StatusOK, ID: req.ID}
}
