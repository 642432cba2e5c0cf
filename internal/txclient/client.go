// Package txclient is the client half of the transaction front door:
// an engine.Engine whose operations travel over the wire protocol to a
// txserver instead of into a linked library. Existing workloads — the
// benchmark harness, the conformance suite, the stress driver — run
// unmodified against a remote PERSEAS installation by swapping in this
// engine.
//
// The client holds a small pool of connections. Requests carry
// correlation IDs, so many transactions multiplex over one connection
// and their replies complete out of order; a per-connection reader
// goroutine demultiplexes them back to their callers. A transaction is
// connection-sticky: Begin picks a connection and every request the
// handle sends rides it, matching the server's rule that a transaction
// handle is only valid on the connection that began it.
//
// Each database keeps a local replica of its bytes (engine.DB.Bytes
// must hand the application real memory). SetRange snapshots the local
// before-image after the server accepts the declaration; Commit ships
// the declared ranges' final bytes in one batched request; Abort
// restores the local before-images in reverse declaration order and
// releases the server-side transaction. OpenDB rehydrates the replica
// from the server, which is how a client resynchronises after the
// engine recovers from a crash.
package txclient

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/wire"
)

// Client errors.
var (
	// ErrBusy surfaces a server-side admission-control rejection: the
	// server is at a connection, pipeline, or transaction limit. The
	// operation did not run; back off and retry.
	ErrBusy = errors.New("txclient: server busy")
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("txclient: client closed")
)

// DefaultConns is the connection pool size when WithConns is not given.
const DefaultConns = 4

// chunk bounds one OpTxRead/OpTxLoad transfer, comfortably under the
// wire frame limit.
const chunk = 1 << 20

// Option configures a Client.
type Option func(*Client)

// WithConns sets the connection pool size (0 keeps the default). The
// stress driver uses 1 so each simulated client is one connection.
func WithConns(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.nconns = n
		}
	}
}

// WithTracer records client-side spans — pool acquisition, request
// round trips, busy backoff — on rec, and propagates each traced
// transaction's trace id to the server on the wire, so a server-side
// capture of the same run stitches into one tree per transaction
// (trace.MergeSpans). The disabled path stays one atomic load per
// Begin.
func WithTracer(rec *trace.Recorder) Option {
	return func(c *Client) { c.tracer = rec }
}

// WithBusyRetry makes Begin absorb up to n server BUSY rejections
// itself, sleeping an exponentially growing backoff starting at base
// between attempts (0 values keep the defaults: 8 attempts, 1ms).
// Retries and time slept are counted on the client's Metrics; only
// Begin retries — a BUSY mid-transaction surfaces, because the
// transaction's claims must not be held across a sleep.
func WithBusyRetry(n int, base time.Duration) Option {
	return func(c *Client) {
		c.busyRetries = 8
		if n > 0 {
			c.busyRetries = n
		}
		c.busyBase = time.Millisecond
		if base > 0 {
			c.busyBase = base
		}
	}
}

// WithSharedMetrics points the client's counters at m, so a fleet of
// clients (one per simulated connection in the stress driver)
// aggregates into one place.
func WithSharedMetrics(m *Metrics) Option {
	return func(c *Client) {
		if m != nil {
			c.metrics = m
		}
	}
}

// Metrics are the client's busy-backpressure counters: the server-side
// admission control was invisible from the client until they existed.
type Metrics struct {
	// BusyReplies counts BUSY rejections received from the server,
	// wherever they surfaced.
	BusyReplies obs.Counter
	// BusyRetries counts Begin attempts re-sent after a BUSY; BackoffNS
	// accumulates the nanoseconds slept between them.
	BusyRetries obs.Counter
	BackoffNS   obs.Counter
}

// Register publishes the counters on reg under perseas_txclient_*.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.RegisterCounter("perseas_txclient_busy_replies_total", "BUSY rejections received from the server", &m.BusyReplies)
	reg.RegisterCounter("perseas_txclient_busy_retries_total", "Begin attempts retried after a BUSY", &m.BusyRetries)
	reg.RegisterCounter("perseas_txclient_backoff_ns_total", "nanoseconds slept backing off from BUSY", &m.BackoffNS)
}

// Client is a remote engine.Engine speaking to a txserver.
type Client struct {
	nconns      int
	conns       []*poolConn
	nextID      atomic.Uint64
	rr          atomic.Uint64
	closed      atomic.Bool
	tracer      *trace.Recorder
	metrics     *Metrics
	busyRetries int
	busyBase    time.Duration
}

// Metrics exposes the client's counters (the shared instance when
// WithSharedMetrics configured one).
func (c *Client) Metrics() *Metrics { return c.metrics }

var _ engine.Engine = (*Client)(nil)

// New builds a client whose pool connections come from dial — tests
// pass a net.Pipe dialer bound to an in-process server.
func New(dial func() (net.Conn, error), opts ...Option) (*Client, error) {
	c := &Client{nconns: DefaultConns, metrics: &Metrics{}}
	for _, o := range opts {
		o(c)
	}
	for i := 0; i < c.nconns; i++ {
		nc, err := dial()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("txclient: dial: %w", err)
		}
		p := &poolConn{c: nc, wc: wire.NewConn(nc), pending: make(map[uint64]chan callResult)}
		go p.readLoop()
		c.conns = append(c.conns, p)
	}
	return c, nil
}

// Dial connects the pool to a TCP txserver.
func Dial(addr string, opts ...Option) (*Client, error) {
	return New(func() (net.Conn, error) { return net.Dial("tcp", addr) }, opts...)
}

// Name implements engine.Engine.
func (c *Client) Name() string { return "remote" }

// pick returns the next pool connection round-robin.
func (c *Client) pick() *poolConn {
	return c.conns[c.rr.Add(1)%uint64(len(c.conns))]
}

// call runs one request/response exchange on p, mapping typed failure
// codes back onto the engine's sentinel errors.
func (c *Client) call(p *poolConn, req *wire.Request) (*wire.Response, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	resp, err := p.call(c.nextID.Add(1), req)
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		if errors.Is(err, ErrBusy) {
			c.metrics.BusyReplies.Inc()
		}
		return nil, err
	}
	return resp, nil
}

// respError maps a typed error response onto the engine sentinels, so
// errors.Is works across the wire exactly as it does in-process.
func respError(resp *wire.Response) error {
	if resp.Status == wire.StatusOK {
		return nil
	}
	switch resp.Code {
	case wire.TxBusy:
		return fmt.Errorf("%w: %s", ErrBusy, resp.Err)
	case wire.TxConflict:
		return fmt.Errorf("txclient: %w", engine.ErrConflict)
	case wire.TxNoTransaction, wire.TxUnknownTx:
		// A handle the server no longer holds — finished, orphaned, or
		// wiped by a crash — is a transaction that no longer exists.
		return fmt.Errorf("txclient: %w", engine.ErrNoTransaction)
	case wire.TxInTransaction:
		return fmt.Errorf("txclient: %w", engine.ErrInTransaction)
	case wire.TxCrashed:
		return fmt.Errorf("txclient: %w", engine.ErrCrashed)
	case wire.TxUnrecoverable:
		return fmt.Errorf("txclient: %w", engine.ErrUnrecoverable)
	default:
		return fmt.Errorf("txclient: server: %s", resp.Err)
	}
}

// clientDB is a local replica of one remote database.
type clientDB struct {
	name   string
	handle uint32
	buf    []byte
}

func (d *clientDB) Name() string  { return d.name }
func (d *clientDB) Size() uint64  { return uint64(len(d.buf)) }
func (d *clientDB) Bytes() []byte { return d.buf }

// asClientDB rejects database handles from other engines.
func asClientDB(db engine.DB) (*clientDB, error) {
	d, ok := db.(*clientDB)
	if !ok {
		return nil, fmt.Errorf("txclient: foreign database handle %T", db)
	}
	return d, nil
}

// CreateDB implements engine.Engine: the server allocates the region,
// the client allocates the replica.
func (c *Client) CreateDB(name string, size uint64) (engine.DB, error) {
	resp, err := c.call(c.pick(), &wire.Request{Op: wire.OpTxCreateDB, Name: name, Size: size})
	if err != nil {
		return nil, err
	}
	return &clientDB{name: name, handle: resp.Seg, buf: make([]byte, size)}, nil
}

// InitDB implements engine.Engine: it uploads the replica's current
// content in chunks, then asks the server to publish it as the initial
// durable image.
func (c *Client) InitDB(db engine.DB) error {
	d, err := asClientDB(db)
	if err != nil {
		return err
	}
	p := c.pick()
	for off := 0; off < len(d.buf); off += chunk {
		end := off + chunk
		if end > len(d.buf) {
			end = len(d.buf)
		}
		if _, err := c.call(p, &wire.Request{
			Op: wire.OpTxLoad, Seg: d.handle, Offset: uint64(off), Data: d.buf[off:end],
		}); err != nil {
			return err
		}
	}
	_, err = c.call(p, &wire.Request{Op: wire.OpTxInitDB, Seg: d.handle})
	return err
}

// OpenDB implements engine.Engine: it re-attaches the named database
// and rehydrates the local replica from the server's bytes — the
// resynchronisation step after the serving engine recovers.
func (c *Client) OpenDB(name string) (engine.DB, error) {
	p := c.pick()
	resp, err := c.call(p, &wire.Request{Op: wire.OpTxOpenDB, Name: name})
	if err != nil {
		return nil, err
	}
	d := &clientDB{name: name, handle: resp.Seg, buf: make([]byte, resp.Size)}
	for off := uint64(0); off < uint64(len(d.buf)); off += chunk {
		n := uint64(len(d.buf)) - off
		if n > chunk {
			n = chunk
		}
		rd, err := c.call(p, &wire.Request{
			Op: wire.OpTxRead, Seg: d.handle, Offset: off, Length: uint32(n),
		})
		if err != nil {
			return nil, err
		}
		if uint64(len(rd.Data)) != n {
			return nil, fmt.Errorf("txclient: short read: %d of %d bytes", len(rd.Data), n)
		}
		copy(d.buf[off:], rd.Data)
	}
	return d, nil
}

// txWrite is one declared range; its local before-image is
// clientTx.before[at : at+length].
type txWrite struct {
	db          *clientDB
	off, length uint64
	at          int
}

// clientTx is one remote transaction. Like every engine.Tx it is owned
// by the goroutine that began it; its requests all ride the connection
// Begin picked.
type clientTx struct {
	c      *Client
	p      *poolConn
	id     uint64
	done   bool
	writes []txWrite
	// before is the transaction's arena of before-images, one append
	// per declared range. It and writes start out in the handle itself,
	// so a transaction of a few small ranges allocates neither.
	before  []byte
	writes0 [4]txWrite
	before0 [128]byte
	// tt buffers the client-side span tree (nil when tracing is off);
	// root is the open "tx" span. Its trace id rides every request this
	// handle sends, so the server's spans land in the same tree.
	tt   *trace.TxTrace
	root trace.SpanRef
}

// Begin implements engine.Engine. With WithBusyRetry configured it
// absorbs server BUSY rejections here — before the transaction holds
// any conflict-table claims — backing off exponentially between
// attempts.
func (c *Client) Begin() (engine.Tx, error) {
	tt := c.tracer.Tx()
	root := tt.Start(trace.LayerClient, "tx")
	acquire := tt.Start(trace.LayerClient, "pool_acquire")
	p := c.pick()
	acquire.End()
	backoff := c.busyBase
	for attempt := 0; ; attempt++ {
		rtt := tt.Start(trace.LayerClient, "begin_rtt")
		resp, err := c.call(p, &wire.Request{
			Op: wire.OpTxBegin, TraceID: tt.Trace(), TraceSpan: rtt.ID(),
		})
		rtt.End()
		if err == nil {
			t := &clientTx{c: c, p: p, id: resp.Tx, tt: tt, root: root}
			t.writes, t.before = t.writes0[:0], t.before0[:0]
			return t, nil
		}
		if attempt >= c.busyRetries || !errors.Is(err, ErrBusy) {
			root.End()
			tt.Finish()
			return nil, err
		}
		c.metrics.BusyRetries.Inc()
		sp := tt.Start(trace.LayerClient, "busy_backoff")
		time.Sleep(backoff)
		sp.End()
		c.metrics.BackoffNS.Add(uint64(backoff))
		backoff *= 2
	}
}

// SetRange implements engine.Tx: the server captures its before-image
// and claims the range in the conflict table; only after it accepts is
// the local replica touched (a rejected range must not be sliced
// locally — it may be out of bounds). The reply carries the range's
// current server-side bytes, and the replica refreshes from them so
// read-modify-write transactions observe other clients' committed
// updates — except where an earlier declaration in this transaction
// already owns the bytes, whose uncommitted local writes must survive.
func (t *clientTx) SetRange(db engine.DB, offset, length uint64) error {
	if t.done {
		return engine.ErrNoTransaction
	}
	d, err := asClientDB(db)
	if err != nil {
		return err
	}
	rtt := t.tt.Start(trace.LayerClient, "set_range_rtt")
	resp, err := t.c.call(t.p, &wire.Request{
		Op: wire.OpTxSetRange, Tx: t.id, Seg: d.handle, Offset: offset, Size: length,
		TraceID: t.tt.Trace(), TraceSpan: rtt.ID(),
	})
	rtt.End()
	if err != nil {
		return err
	}
	if uint64(len(resp.Data)) == length {
		t.refresh(d, offset, resp.Data)
	}
	t.writes = append(t.writes, txWrite{db: d, off: offset, length: length, at: len(t.before)})
	t.before = append(t.before, d.buf[offset:offset+length]...)
	return nil
}

// refresh copies the server's bytes for [off, off+len(data)) of d into
// the local replica, skipping any sub-interval an earlier declaration
// of this transaction covers.
func (t *clientTx) refresh(d *clientDB, off uint64, data []byte) {
	type span struct{ lo, hi uint64 }
	end := off + uint64(len(data))
	spans := []span{{off, end}}
	for _, w := range t.writes {
		wlo, whi := w.off, w.off+w.length
		if w.db != d || whi <= off || wlo >= end {
			continue
		}
		next := spans[:0:0]
		for _, s := range spans {
			if whi <= s.lo || wlo >= s.hi {
				next = append(next, s)
				continue
			}
			if s.lo < wlo {
				next = append(next, span{s.lo, wlo})
			}
			if whi < s.hi {
				next = append(next, span{whi, s.hi})
			}
		}
		spans = next
	}
	for _, s := range spans {
		copy(d.buf[s.lo:s.hi], data[s.lo-off:s.hi-off])
	}
}

// Commit implements engine.Tx: one batched request carries every
// declared range's final local bytes and commits the transaction. The
// ranges are encoded straight from the replica: the caller owns it, and
// the transaction's claims keep everyone else off those bytes, until
// the reply.
func (t *clientTx) Commit() error {
	if t.done {
		return engine.ErrNoTransaction
	}
	t.done = true
	batch := make([]wire.BatchEntry, 0, len(t.writes))
	for _, w := range t.writes {
		batch = append(batch, wire.BatchEntry{
			Seg:    w.db.handle,
			Offset: w.off,
			Data:   w.db.buf[w.off : w.off+w.length],
		})
	}
	rtt := t.tt.Start(trace.LayerClient, "commit_rtt")
	_, err := t.c.call(t.p, &wire.Request{
		Op: wire.OpTxCommit, Tx: t.id, Batch: batch,
		TraceID: t.tt.Trace(), TraceSpan: rtt.ID(),
	})
	rtt.End()
	t.finishTrace()
	return err
}

// finishTrace closes the handle's root span and flushes its span tree
// into the recorder (no-ops when untraced).
func (t *clientTx) finishTrace() {
	t.root.End()
	t.tt.Finish()
	t.tt = nil
}

// Abort implements engine.Tx: the local replica rolls back to the
// before-images in reverse declaration order (overlapping declarations
// unwind correctly), then the server releases the transaction.
func (t *clientTx) Abort() error {
	if t.done {
		return engine.ErrNoTransaction
	}
	t.done = true
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		copy(w.db.buf[w.off:], t.before[w.at:w.at+int(w.length)])
	}
	rtt := t.tt.Start(trace.LayerClient, "abort_rtt")
	_, err := t.c.call(t.p, &wire.Request{
		Op: wire.OpTxAbort, Tx: t.id,
		TraceID: t.tt.Trace(), TraceSpan: rtt.ID(),
	})
	rtt.End()
	t.finishTrace()
	return err
}

// Crash implements engine.Engine (served only when the server enables
// fault injection).
func (c *Client) Crash(kind fault.CrashKind) error {
	_, err := c.call(c.pick(), &wire.Request{Op: wire.OpTxCrash, Size: uint64(kind)})
	return err
}

// Recover implements engine.Engine (gated like Crash).
func (c *Client) Recover() error {
	_, err := c.call(c.pick(), &wire.Request{Op: wire.OpTxRecover})
	return err
}

// ServerStats fetches the server's counter snapshot.
func (c *Client) ServerStats() (*wire.TxStats, error) {
	resp, err := c.call(c.pick(), &wire.Request{Op: wire.OpTxStats})
	if err != nil {
		return nil, err
	}
	return wire.DecodeTxStats(resp.Data)
}

// Close implements engine.Engine: it drops the pool. The server aborts
// any transactions the connections still owned; durable state remains.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, p := range c.conns {
		p.c.Close()
	}
	return nil
}

// callResult is one demultiplexed reply.
type callResult struct {
	resp *wire.Response
	err  error
}

// poolConn is one pooled connection: a write mutex serialises frames
// out, a reader goroutine routes replies back by correlation ID.
type poolConn struct {
	c net.Conn
	// wc frames c: callers send on it under wmu, the reader goroutine
	// receives.
	wc  *wire.Conn
	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan callResult
	dead    bool
	err     error
}

// replyChans recycles the one-reply channels calls wait on: a channel
// is back to empty, and referenced by nobody else, once its caller has
// received its single result.
var replyChans = sync.Pool{New: func() any { return make(chan callResult, 1) }}

// call sends req with correlation id and blocks for its reply.
func (p *poolConn) call(id uint64, req *wire.Request) (*wire.Response, error) {
	p.mu.Lock()
	if p.dead {
		err := p.err
		p.mu.Unlock()
		return nil, err
	}
	ch := replyChans.Get().(chan callResult)
	p.pending[id] = ch
	p.mu.Unlock()

	req.ID = id
	p.wmu.Lock()
	err := p.wc.SendRequest(req)
	p.wmu.Unlock()
	if err != nil {
		p.fail(fmt.Errorf("txclient: send: %w", err))
	}
	r := <-ch
	replyChans.Put(ch)
	return r.resp, r.err
}

// readLoop demultiplexes replies until the stream dies.
func (p *poolConn) readLoop() {
	for {
		// A reply is handed to the caller that waits for it, so it owns
		// its frame's body.
		resp := new(wire.Response)
		if err := p.wc.RecvResponseOwned(resp); err != nil {
			p.fail(fmt.Errorf("txclient: connection lost: %w", err))
			return
		}
		p.mu.Lock()
		ch, ok := p.pending[resp.ID]
		if ok {
			delete(p.pending, resp.ID)
		}
		p.mu.Unlock()
		if ok {
			ch <- callResult{resp: resp}
			continue
		}
		// A reply with no matching request: the server answered a frame
		// it could not correlate (its malformed-frame report carries no
		// id) or the stream desynchronised. Either way it is unusable.
		detail := resp.Err
		if detail == "" {
			detail = fmt.Sprintf("unmatched reply id %d", resp.ID)
		}
		p.fail(fmt.Errorf("txclient: protocol failure: %s", detail))
		return
	}
}

// fail kills the connection and delivers err to every pending caller.
func (p *poolConn) fail(err error) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.err = err
	pending := p.pending
	p.pending = make(map[uint64]chan callResult)
	p.mu.Unlock()
	p.c.Close()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}
