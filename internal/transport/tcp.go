package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/wire"
)

// tcpMaxConns caps the connection pool a TCP transport grows to. Each
// in-flight request needs one connection; beyond this, callers queue.
const tcpMaxConns = 8

// TCP is a transport speaking the wire protocol to a memory server over
// network connections. Each request still blocks its caller — the
// paper's client waits until every remote-memory request is serviced —
// but the transport pools connections so requests from concurrent
// transactions pipeline on the wire instead of serialising behind one
// socket.
//
// Writes additionally pass through a group-commit combiner: while one
// caller's write exchange is on the wire, writes from concurrent
// callers queue up and the next exchange carries all of them in a
// single batched frame. A lone writer pays nothing (its write goes out
// immediately, alone); concurrent writers split the per-exchange cost —
// syscalls and wire framing — across the batch.
type TCP struct {
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	idle   []*tcpConn
	// total counts live connections, idle plus checked out; callers wait
	// on cond when it reaches tcpMaxConns and no connection is idle.
	total int

	// Write-combiner state: wbusy marks a combined exchange in flight,
	// wqueue holds the callers that will ride the next one.
	wmu    sync.Mutex
	wbusy  bool
	wqueue []*queuedWrite

	metrics TCPMetrics
	// tracer records combiner exchanges and leader handoffs as
	// infrastructure spans; nil disables. Set during wiring, before
	// traffic flows.
	tracer *trace.Recorder
}

// SetTracer attaches a span recorder for combiner activity. Every
// recorder method is nil-safe, so a nil tracer records nothing.
func (t *TCP) SetTracer(rec *trace.Recorder) { t.tracer = rec }

// TCPMetrics are the client-side counters one TCP transport keeps.
// Latencies are wall-clock (this transport talks to real sockets, so
// there is no simulated clock to consult). All fields are lock-free;
// read them live or through Registry rendering.
type TCPMetrics struct {
	// Exchanges counts request/response round trips attempted.
	Exchanges obs.Counter
	// ExchangeLatency is nanoseconds per completed exchange.
	ExchangeLatency obs.Histogram
	// Dials counts TCP connections established for the pool.
	Dials obs.Counter
	// PoolWaits counts acquires that blocked because the pool was at
	// capacity with nothing idle.
	PoolWaits obs.Counter
	// CombinedExchanges counts write exchanges that carried more than
	// one caller's writes (the group-commit combiner firing).
	CombinedExchanges obs.Counter
	// BatchSize is the distribution of entries per write exchange.
	BatchSize obs.Histogram
}

// Metrics exposes the transport's counters.
func (t *TCP) Metrics() *TCPMetrics { return &t.metrics }

// RegisterMetrics registers the transport's counters on reg under the
// given prefix (e.g. "perseas_transport_mirror0").
func (t *TCP) RegisterMetrics(reg *obs.Registry, prefix string) {
	m := &t.metrics
	reg.RegisterCounter(prefix+"_exchanges_total", "request/response round trips", &m.Exchanges)
	reg.RegisterHistogram(prefix+"_exchange_latency_ns", "wall-clock ns per exchange", &m.ExchangeLatency)
	reg.RegisterCounter(prefix+"_dials_total", "pool connections dialled", &m.Dials)
	reg.RegisterCounter(prefix+"_pool_waits_total", "acquires that blocked on a full pool", &m.PoolWaits)
	reg.RegisterCounter(prefix+"_combined_exchanges_total", "write exchanges carrying >1 caller", &m.CombinedExchanges)
	reg.RegisterHistogram(prefix+"_batch_size", "write entries per exchange", &m.BatchSize)
}

// queuedWrite is one caller's write set awaiting a combined exchange.
// Instances are pooled: the writes scratch and the lead-batch scratch
// keep their capacity across calls, so the steady-state write path
// allocates nothing (the one-shot promoted/done channels are created
// only when a caller actually queues behind a busy combiner).
type queuedWrite struct {
	writes []wire.BatchEntry
	// batch is set at promotion time: the full batch this entry leads.
	batch    []*queuedWrite
	err      error
	promoted chan struct{}
	done     chan struct{}
}

// queuedWritePool recycles queuedWrite carriers across Write/WriteBatch
// calls on every TCP transport.
var queuedWritePool sync.Pool

func getQueuedWrite() *queuedWrite {
	q, _ := queuedWritePool.Get().(*queuedWrite)
	if q == nil {
		q = &queuedWrite{}
	}
	return q
}

func putQueuedWrite(q *queuedWrite) {
	for i := range q.writes {
		q.writes[i] = wire.BatchEntry{} // drop payload refs before pooling
	}
	q.writes = q.writes[:0]
	for i := range q.batch {
		q.batch[i] = nil
	}
	q.batch = q.batch[:0]
	q.err = nil
	q.promoted, q.done = nil, nil
	queuedWritePool.Put(q)
}

// tcpConn is one pooled connection. The codec travels with the socket:
// its receive buffer may hold bytes read ahead of the frame last
// decoded.
type tcpConn struct {
	nc net.Conn
	*wire.Conn
}

// DialTCP connects to a memory server at addr.
func DialTCP(addr string) (*TCP, error) {
	conn, err := dialOne(addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{addr: addr, idle: []*tcpConn{conn}, total: 1}
	t.cond = sync.NewCond(&t.mu)
	t.metrics.Dials.Inc()
	return t, nil
}

func dialOne(addr string) (*tcpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Small synchronous requests dominate; Nagle would serialise
		// them against the peer's delayed ACKs.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{nc: conn, Conn: wire.NewConn(conn)}, nil
}

// acquire checks a connection out of the pool, dialling a new one when
// none is idle and the pool may still grow.
func (t *TCP) acquire() (*tcpConn, error) {
	t.mu.Lock()
	waited := false
	for {
		if t.closed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		if n := len(t.idle); n > 0 {
			conn := t.idle[n-1]
			t.idle = t.idle[:n-1]
			t.mu.Unlock()
			return conn, nil
		}
		if t.total < tcpMaxConns {
			t.total++
			t.mu.Unlock()
			conn, err := dialOne(t.addr)
			if err != nil {
				t.mu.Lock()
				t.total--
				t.cond.Signal()
				t.mu.Unlock()
				return nil, err
			}
			t.metrics.Dials.Inc()
			return conn, nil
		}
		if !waited {
			waited = true
			t.metrics.PoolWaits.Inc()
		}
		t.cond.Wait()
	}
}

// release returns a healthy connection to the pool; broken ones are
// dropped so the next caller dials afresh.
func (t *TCP) release(conn *tcpConn, healthy bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !healthy || t.closed {
		t.total--
		_ = conn.nc.Close()
	} else {
		t.idle = append(t.idle, conn)
	}
	t.cond.Signal()
}

// call performs one synchronous request/response exchange on a pooled
// connection. The response is decoded in place over the connection's
// buffer, which is the next caller's once the connection is released;
// only a READ's response has a payload, and that one the caller owns.
func (t *TCP) call(req *wire.Request) (resp wire.Response, err error) {
	t.metrics.Exchanges.Inc()
	start := time.Now()
	conn, err := t.acquire()
	if err != nil {
		return resp, err
	}
	if err = conn.SendRequest(req); err == nil {
		if req.Op == wire.OpRead {
			err = conn.RecvResponseOwned(&resp)
		} else {
			err = conn.RecvResponse(&resp)
			resp.Data = nil
		}
	}
	t.release(conn, err == nil)
	if err != nil {
		return resp, err
	}
	t.metrics.ExchangeLatency.ObserveDuration(time.Since(start))
	return resp, respErr(&resp)
}

// Malloc implements Transport.
func (t *TCP) Malloc(name string, size uint64) (SegmentHandle, error) {
	resp, err := t.call(&wire.Request{Op: wire.OpMalloc, Name: name, Size: size})
	if err != nil {
		return SegmentHandle{}, err
	}
	return SegmentHandle{ID: resp.Seg, Size: resp.Size}, nil
}

// Free implements Transport.
func (t *TCP) Free(seg uint32) error {
	_, err := t.call(&wire.Request{Op: wire.OpFree, Seg: seg})
	return err
}

// Write implements Transport.
func (t *TCP) Write(seg uint32, offset uint64, data []byte) error {
	q := getQueuedWrite()
	q.writes = append(q.writes, wire.BatchEntry{Seg: seg, Offset: offset, Data: data})
	err := t.combine(q)
	putQueuedWrite(q)
	return err
}

// WriteBatch implements BatchWriter: all writes travel in one frame and
// are applied atomically by the server. Batches from concurrent callers
// may be merged into one exchange; each caller's own writes stay
// contiguous and in order within it.
func (t *TCP) WriteBatch(writes []BatchWrite) error {
	if len(writes) == 0 {
		return nil
	}
	q := getQueuedWrite()
	for _, w := range writes {
		q.writes = append(q.writes, wire.BatchEntry{Seg: w.Seg, Offset: w.Offset, Data: w.Data})
	}
	err := t.combine(q)
	putQueuedWrite(q)
	return err
}

// combine sends the caller's writes, coalescing them with writes from
// concurrent callers into a single wire exchange. The first caller to
// arrive while the combiner is free leads immediately — a lone writer
// is never delayed. Callers arriving while an exchange is in flight
// queue up; when the exchange completes, the head of the queue is
// promoted to lead the next one, carrying everyone queued behind it.
func (t *TCP) combine(q *queuedWrite) error {
	t.wmu.Lock()
	if !t.wbusy {
		t.wbusy = true
		t.wmu.Unlock()
		q.batch = append(q.batch, q)
		return t.lead(q.batch, q)
	}
	q.promoted = make(chan struct{})
	q.done = make(chan struct{})
	t.wqueue = append(t.wqueue, q)
	t.wmu.Unlock()
	select {
	case <-q.done:
		return q.err
	case <-q.promoted:
		return t.lead(q.batch, q)
	}
}

// lead performs one combined exchange for batch (which contains self),
// delivers the result to the followers, and hands leadership to the
// next queued caller, if any.
func (t *TCP) lead(batch []*queuedWrite, self *queuedWrite) error {
	sp := t.tracer.Start(trace.LayerTransport, "combine")
	var err error
	if len(batch) == 1 && len(self.writes) == 1 {
		w := self.writes[0]
		t.metrics.BatchSize.Observe(1)
		_, err = t.call(&wire.Request{Op: wire.OpWrite, Seg: w.Seg, Offset: w.Offset, Data: w.Data})
		sp.EndN(1)
	} else {
		ep, _ := batchEntryPool.Get().(*[]wire.BatchEntry)
		if ep == nil {
			ep = new([]wire.BatchEntry)
		}
		entries := (*ep)[:0]
		for _, q := range batch {
			entries = append(entries, q.writes...)
		}
		t.metrics.BatchSize.Observe(uint64(len(entries)))
		if len(batch) > 1 {
			t.metrics.CombinedExchanges.Inc()
		}
		_, err = t.call(&wire.Request{Op: wire.OpWriteBatch, Batch: entries})
		sp.EndN(uint64(len(entries)))
		for i := range entries {
			entries[i] = wire.BatchEntry{} // drop payload refs before pooling
		}
		*ep = entries[:0]
		batchEntryPool.Put(ep)
	}
	for _, q := range batch {
		if q != self {
			q.err = err
			close(q.done)
		}
	}
	t.wmu.Lock()
	if len(t.wqueue) > 0 {
		next := t.wqueue[0]
		next.batch = t.wqueue
		t.wqueue = nil
		t.wmu.Unlock()
		// The queue head becomes the next exchange's leader, carrying
		// everyone queued behind it.
		t.tracer.Event(trace.LayerTransport, "leader_handoff", uint64(len(next.batch)))
		close(next.promoted)
	} else {
		t.wbusy = false
		t.wmu.Unlock()
	}
	return err
}

// Read implements Transport.
func (t *TCP) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	resp, err := t.call(&wire.Request{Op: wire.OpRead, Seg: seg, Offset: offset, Length: n})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Fill implements Filler.
func (t *TCP) Fill(seg uint32, offset, n uint64) error {
	_, err := t.call(&wire.Request{Op: wire.OpFill, Seg: seg, Offset: offset, Size: n})
	return err
}

// Connect implements Transport.
func (t *TCP) Connect(name string) (SegmentHandle, error) {
	resp, err := t.call(&wire.Request{Op: wire.OpConnect, Name: name})
	if err != nil {
		return SegmentHandle{}, err
	}
	return SegmentHandle{ID: resp.Seg, Size: resp.Size}, nil
}

// Disconnect implements Disconnector.
func (t *TCP) Disconnect(seg uint32) error {
	_, err := t.call(&wire.Request{Op: wire.OpDisconnect, Seg: seg})
	return err
}

// List implements Transport.
func (t *TCP) List() ([]wire.SegmentInfo, error) {
	resp, err := t.call(&wire.Request{Op: wire.OpList})
	if err != nil {
		return nil, err
	}
	return resp.Segments, nil
}

// Ping implements Transport.
func (t *TCP) Ping() error {
	_, err := t.call(&wire.Request{Op: wire.OpPing})
	return err
}

// Probe implements Prober. Over a real network there is no out-of-band
// liveness channel, so a probe is a full ping exchange; TCP never runs
// on simulated time, so nothing needs to stay uncharged.
func (t *TCP) Probe() error { return t.Ping() }

// Stats fetches server-side counters; not part of the Transport
// interface but useful for tooling.
func (t *TCP) Stats() (wire.ServerStats, error) {
	resp, err := t.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.ServerStats{}, err
	}
	return resp.Stats, nil
}

// Close implements Transport. Idle connections close immediately;
// checked-out connections close as their requests finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var firstErr error
	for _, conn := range t.idle {
		if err := conn.nc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		t.total--
	}
	t.idle = nil
	t.cond.Broadcast()
	return firstErr
}

var (
	_ Transport    = (*TCP)(nil)
	_ BatchWriter  = (*TCP)(nil)
	_ Disconnector = (*TCP)(nil)
	_ Prober       = (*TCP)(nil)
	_ Filler       = (*TCP)(nil)
)

// Serve accepts connections on l and services each against srv until l is
// closed. It returns the first accept error (net.ErrClosed after a clean
// shutdown). Each connection is handled on its own goroutine; Serve
// returns only after all of them drain.
func Serve(l net.Listener, srv *memserver.Server) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			serveConn(conn, srv)
		}()
	}
}

// serveConn services one client connection until EOF or a protocol error.
// The loop is synchronous and Handle retains nothing, so one request is
// decoded in place over the connection's buffer again and again.
func serveConn(conn net.Conn, srv *memserver.Server) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := wire.NewConn(conn)
	var req wire.Request
	for {
		if err := c.RecvRequest(&req); err != nil {
			return
		}
		resp := srv.Handle(&req)
		if err := c.SendResponse(&resp); err != nil {
			return
		}
	}
}
