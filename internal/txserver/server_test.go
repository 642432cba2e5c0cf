package txserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/wire"
)

// fakeEngine is a minimal in-memory engine whose Commit can be held
// open through commitGate, so tests control exactly when a convoy
// window closes.
type fakeEngine struct {
	mu         sync.Mutex
	dbs        map[string]*fakeDB
	crashed    bool
	commitGate chan struct{} // when non-nil, Commit blocks on a receive
	commits    atomic.Int64
}

type fakeDB struct {
	name string
	buf  []byte
	// gate, when non-nil, holds every Bytes call until it is closed;
	// waiting counts the calls held.
	gate    chan struct{}
	waiting atomic.Int64
}

func (d *fakeDB) Name() string { return d.name }
func (d *fakeDB) Size() uint64 { return uint64(len(d.buf)) }
func (d *fakeDB) Bytes() []byte {
	if d.gate != nil {
		d.waiting.Add(1)
		<-d.gate
	}
	return d.buf
}

type fakeTx struct {
	e    *fakeEngine
	done bool
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{dbs: make(map[string]*fakeDB)}
}

func (e *fakeEngine) Name() string { return "fake" }

func (e *fakeEngine) CreateDB(name string, size uint64) (engine.DB, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, engine.ErrCrashed
	}
	if _, ok := e.dbs[name]; ok {
		return nil, fmt.Errorf("fake: database %q exists", name)
	}
	db := &fakeDB{name: name, buf: make([]byte, size)}
	e.dbs[name] = db
	return db, nil
}

func (e *fakeEngine) InitDB(engine.DB) error { return nil }

func (e *fakeEngine) OpenDB(name string) (engine.DB, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, engine.ErrCrashed
	}
	db, ok := e.dbs[name]
	if !ok {
		return nil, fmt.Errorf("fake: no database %q", name)
	}
	return db, nil
}

func (e *fakeEngine) Begin() (engine.Tx, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, engine.ErrCrashed
	}
	return &fakeTx{e: e}, nil
}

func (t *fakeTx) SetRange(db engine.DB, offset, length uint64) error {
	if t.done {
		return engine.ErrNoTransaction
	}
	if offset+length > db.Size() || offset+length < offset {
		return fmt.Errorf("fake: range out of bounds")
	}
	return nil
}

func (t *fakeTx) Commit() error {
	if t.done {
		return engine.ErrNoTransaction
	}
	t.done = true
	if gate := t.e.commitGate; gate != nil {
		<-gate
	}
	t.e.mu.Lock()
	crashed := t.e.crashed
	t.e.mu.Unlock()
	if crashed {
		return engine.ErrCrashed
	}
	t.e.commits.Add(1)
	return nil
}

func (t *fakeTx) Abort() error {
	if t.done {
		return engine.ErrNoTransaction
	}
	t.done = true
	return nil
}

func (e *fakeEngine) Crash(fault.CrashKind) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = true
	return nil
}

func (e *fakeEngine) Recover() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = false
	return nil
}

func (e *fakeEngine) Close() error { return nil }

// rawConn drives a server connection frame by frame, so tests exercise
// the protocol below the client library.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	wc *wire.Conn
}

func newRaw(t *testing.T, c net.Conn) *rawConn {
	return &rawConn{t: t, c: c, wc: wire.NewConn(c)}
}

func dialRaw(t *testing.T, s *Server) *rawConn {
	t.Helper()
	a, b := net.Pipe()
	go s.ServeConn(b)
	t.Cleanup(func() { a.Close() })
	return newRaw(t, a)
}

func (r *rawConn) send(req *wire.Request) {
	r.t.Helper()
	if err := r.wc.SendRequest(req); err != nil {
		r.t.Fatalf("send %s: %v", req.Op, err)
	}
}

func (r *rawConn) recv() *wire.Response {
	r.t.Helper()
	resp := new(wire.Response)
	if err := r.wc.RecvResponseOwned(resp); err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	return resp
}

// rpc is a synchronous request/response exchange.
func (r *rawConn) rpc(req *wire.Request) *wire.Response {
	r.t.Helper()
	r.send(req)
	return r.recv()
}

func (r *rawConn) mustOK(req *wire.Request) *wire.Response {
	r.t.Helper()
	resp := r.rpc(req)
	if resp.Status != wire.StatusOK {
		r.t.Fatalf("%s: %s (%s)", req.Op, resp.Err, resp.Code)
	}
	return resp
}

// beginTx runs Begin/CreateDB/SetRange and returns the handles.
func setupTx(t *testing.T, c *rawConn, name string) (tx uint64, db uint32) {
	t.Helper()
	cr := c.mustOK(&wire.Request{Op: wire.OpTxCreateDB, ID: 1, Name: name, Size: 64})
	bg := c.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 2})
	c.mustOK(&wire.Request{Op: wire.OpTxSetRange, ID: 3, Tx: bg.Tx, Seg: cr.Seg, Offset: 0, Size: 16})
	return bg.Tx, cr.Seg
}

// TestMalformedFrameClosesConnection is the regression test for the
// malformed-frame path: the server answers with a typed BAD-REQUEST
// error, closes the connection without panicking, and keeps serving —
// in particular the group-commit convoy still runs for later clients.
func TestMalformedFrameClosesConnection(t *testing.T) {
	s := New(newFakeEngine())
	c := dialRaw(t, s)

	// A frame that decodes as garbage: too short for any request.
	if _, err := c.c.Write([]byte{0, 0, 0, 2, 0xFF, 0x01}); err != nil {
		t.Fatalf("write garbage frame: %v", err)
	}
	resp := c.recv()
	if resp.Status != wire.StatusError || resp.Code != wire.TxBadRequest {
		t.Fatalf("garbage frame answered %v/%v, want ERROR/BAD-REQUEST", resp.Status, resp.Code)
	}
	// The server hangs up after reporting.
	if err := c.wc.RecvResponse(new(wire.Response)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("connection still open after malformed frame: %v", err)
	}
	if got := s.Metrics().Malformed.Load(); got != 1 {
		t.Fatalf("malformed counter = %d, want 1", got)
	}

	// A fresh connection commits normally: nothing wedged.
	c2 := dialRaw(t, s)
	tx, db := setupTx(t, c2, "after")
	c2.mustOK(&wire.Request{Op: wire.OpTxCommit, ID: 4, Tx: tx,
		Batch: []wire.BatchEntry{{Seg: db, Offset: 0, Data: []byte("hello")}}})
	if s.Stats().TxsCommitted != 1 {
		t.Fatal("commit after malformed connection did not land")
	}
}

// TestGroupCommitBatches holds one commit's fan-out window open while
// more clients commit, and checks they ran as one convoy batch:
// leader blocked in the engine, followers queued in the gate, then one
// release — the followers must run as a single convoy.
func TestGroupCommitBatches(t *testing.T) {
	const followers = 4
	eng := newFakeEngine()
	gate := make(chan struct{})
	eng.commitGate = gate
	s := New(eng)

	lead := dialRaw(t, s)
	ltx, ldb := setupTx(t, lead, "lead")
	lead.send(&wire.Request{Op: wire.OpTxCommit, ID: 10, Tx: ltx,
		Batch: []wire.BatchEntry{{Seg: ldb, Offset: 0, Data: []byte("L")}}})

	conns := make([]*rawConn, followers)
	for i := range conns {
		conns[i] = dialRaw(t, s)
		tx, db := setupTx(t, conns[i], fmt.Sprintf("f%d", i))
		conns[i].send(&wire.Request{Op: wire.OpTxCommit, ID: 10, Tx: tx,
			Batch: []wire.BatchEntry{{Seg: db, Offset: 0, Data: []byte("F")}}})
	}
	// Followers pile up behind the leader's open window.
	for {
		s.gate.mu.Lock()
		q := len(s.gate.queue)
		s.gate.mu.Unlock()
		if q == followers {
			break
		}
		runtime.Gosched()
	}
	// Release the leader, then the whole follower batch.
	for i := 0; i < followers+1; i++ {
		gate <- struct{}{}
	}
	lead.recv()
	for _, c := range conns {
		resp := c.recv()
		if resp.Status != wire.StatusOK {
			t.Fatalf("follower commit failed: %s", resp.Err)
		}
	}
	snap := s.Metrics().Batch.Snapshot()
	if snap.Max != followers {
		t.Fatalf("largest convoy = %d, want %d", snap.Max, followers)
	}
	if got := eng.commits.Load(); got != followers+1 {
		t.Fatalf("engine saw %d commits, want %d", got, followers+1)
	}
	st := s.Stats()
	if st.Convoys != 2 || st.ConvoyCommits != followers+1 {
		t.Fatalf("stats convoys=%d commits=%d, want 2/%d", st.Convoys, st.ConvoyCommits, followers+1)
	}
}

// TestPipelineAdmission: a connection over its in-flight bound draws a
// typed BUSY reply while the stuck request still completes.
func TestPipelineAdmission(t *testing.T) {
	eng := newFakeEngine()
	gate := make(chan struct{})
	eng.commitGate = gate
	s := New(eng, WithMaxInFlight(1))

	c := dialRaw(t, s)
	tx, db := setupTx(t, c, "adm")
	c.send(&wire.Request{Op: wire.OpTxCommit, ID: 20, Tx: tx,
		Batch: []wire.BatchEntry{{Seg: db, Offset: 0, Data: []byte("x")}}})
	// The commit occupies the single pipeline slot; the stats request
	// behind it must bounce.
	c.send(&wire.Request{Op: wire.OpTxStats, ID: 21})

	busy := c.recv()
	if busy.ID != 21 || busy.Code != wire.TxBusy {
		t.Fatalf("pipelined overflow answered id=%d code=%s, want 21/BUSY", busy.ID, busy.Code)
	}
	gate <- struct{}{}
	ok := c.recv()
	if ok.ID != 20 || ok.Status != wire.StatusOK {
		t.Fatalf("held commit answered id=%d status=%v", ok.ID, ok.Status)
	}
	if s.Metrics().Busy.Load() != 1 {
		t.Fatalf("busy counter = %d, want 1", s.Metrics().Busy.Load())
	}
}

// TestTxAdmission: Begin beyond the server-wide transaction bound is
// BUSY until an earlier transaction retires.
func TestTxAdmission(t *testing.T) {
	s := New(newFakeEngine(), WithMaxTxs(1))
	c := dialRaw(t, s)
	first := c.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 1})
	busy := c.rpc(&wire.Request{Op: wire.OpTxBegin, ID: 2})
	if busy.Code != wire.TxBusy {
		t.Fatalf("second begin answered %s, want BUSY", busy.Code)
	}
	c.mustOK(&wire.Request{Op: wire.OpTxAbort, ID: 3, Tx: first.Tx})
	c.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 4})
}

// TestFlightRecordsAdmissionRejections: a configured flight recorder
// captures the BUSY as a structured busy_reject event.
func TestFlightRecordsAdmissionRejections(t *testing.T) {
	fr := flight.New(8)
	fr.Enable()
	s := New(newFakeEngine(), WithMaxTxs(1), WithFlightRecorder(fr))
	c := dialRaw(t, s)
	first := c.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 1})
	if busy := c.rpc(&wire.Request{Op: wire.OpTxBegin, ID: 2}); busy.Code != wire.TxBusy {
		t.Fatalf("second begin answered %s, want BUSY", busy.Code)
	}
	c.mustOK(&wire.Request{Op: wire.OpTxAbort, ID: 3, Tx: first.Tx})
	evs := fr.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("flight recorder holds %d events, want 1", len(evs))
	}
	if evs[0].Kind != flight.BusyReject || evs[0].Source != "txserver" {
		t.Fatalf("recorded %s from %s, want busy_reject from txserver", evs[0].Kind, evs[0].Source)
	}
}

// TestConnAdmission: accepts beyond the connection bound are turned
// away with a BUSY reply on a real listener.
func TestConnAdmission(t *testing.T) {
	s := New(newFakeEngine(), WithMaxConns(1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	c1, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	r1 := newRaw(t, c1)
	r1.mustOK(&wire.Request{Op: wire.OpTxStats, ID: 1})

	c2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp := newRaw(t, c2).recv()
	if resp.Code != wire.TxBusy {
		t.Fatalf("over-limit accept answered %s, want BUSY", resp.Code)
	}
	if s.Metrics().ConnsRejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Metrics().ConnsRejected.Load())
	}
}

// TestTxHandleIsConnectionScoped: another connection's transaction
// handle is as unknown as a made-up one.
func TestTxHandleIsConnectionScoped(t *testing.T) {
	s := New(newFakeEngine())
	a := dialRaw(t, s)
	b := dialRaw(t, s)
	bg := a.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 1})
	resp := b.rpc(&wire.Request{Op: wire.OpTxCommit, ID: 1, Tx: bg.Tx})
	if resp.Code != wire.TxUnknownTx {
		t.Fatalf("foreign handle answered %s, want UNKNOWN-TX", resp.Code)
	}
}

// TestCommitOutsideDeclaredRange: commit bytes outside the declared
// ranges are rejected before touching the database.
func TestCommitOutsideDeclaredRange(t *testing.T) {
	s := New(newFakeEngine())
	c := dialRaw(t, s)
	tx, db := setupTx(t, c, "bounds") // declares [0,16)
	resp := c.rpc(&wire.Request{Op: wire.OpTxCommit, ID: 9, Tx: tx,
		Batch: []wire.BatchEntry{{Seg: db, Offset: 32, Data: []byte("nope")}}})
	if resp.Code != wire.TxBadRequest {
		t.Fatalf("out-of-range commit answered %s, want BAD-REQUEST", resp.Code)
	}
}

// TestDisconnectAbortsOrphans: transactions owned by a dropped
// connection are aborted so their conflict-table claims die with it.
func TestDisconnectAbortsOrphans(t *testing.T) {
	s := New(newFakeEngine())
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(b); close(done) }()
	r := newRaw(t, a)
	r.mustOK(&wire.Request{Op: wire.OpTxBegin, ID: 1})
	if s.LiveTxs() != 1 {
		t.Fatalf("live txs = %d, want 1", s.LiveTxs())
	}
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not return after client hangup")
	}
	if s.LiveTxs() != 0 {
		t.Fatalf("live txs = %d after hangup, want 0", s.LiveTxs())
	}
	if s.Metrics().TxsAborted.Load() != 1 {
		t.Fatalf("aborted counter = %d, want 1", s.Metrics().TxsAborted.Load())
	}
}

// TestMemoryOpsRejected: memory-protocol opcodes on a transaction
// listener are answered with a typed error and the connection stays
// usable (tooling probes rely on this).
func TestMemoryOpsRejected(t *testing.T) {
	s := New(newFakeEngine())
	c := dialRaw(t, s)
	resp := c.rpc(&wire.Request{Op: wire.OpPing, ID: 1})
	if resp.Status != wire.StatusError || resp.Code != wire.TxError {
		t.Fatalf("memory op answered %v/%v, want ERROR/ERROR", resp.Status, resp.Code)
	}
	c.mustOK(&wire.Request{Op: wire.OpTxStats, ID: 2})
}

// TestFaultOpsGated: crash and recover are refused unless fault
// injection was enabled at construction.
func TestFaultOpsGated(t *testing.T) {
	s := New(newFakeEngine())
	c := dialRaw(t, s)
	for _, op := range []wire.Op{wire.OpTxCrash, wire.OpTxRecover} {
		resp := c.rpc(&wire.Request{Op: op, ID: 1, Size: uint64(fault.CrashProcess)})
		if resp.Status != wire.StatusError {
			t.Fatalf("%s served without fault injection", op)
		}
	}
}

// TestCrashWipesHandles: after a crash every transaction and database
// handle is gone; recovery plus OpenDB issues fresh ones.
func TestCrashWipesHandles(t *testing.T) {
	s := New(newFakeEngine(), WithFaultInjection())
	c := dialRaw(t, s)
	tx, db := setupTx(t, c, "wipe")
	c.mustOK(&wire.Request{Op: wire.OpTxCrash, ID: 5, Size: uint64(fault.CrashProcess)})
	if resp := c.rpc(&wire.Request{Op: wire.OpTxCommit, ID: 6, Tx: tx}); resp.Code != wire.TxUnknownTx {
		t.Fatalf("post-crash commit answered %s, want UNKNOWN-TX", resp.Code)
	}
	if resp := c.rpc(&wire.Request{Op: wire.OpTxRead, ID: 7, Seg: db, Length: 8}); resp.Code != wire.TxUnknownDB {
		t.Fatalf("post-crash read answered %s, want UNKNOWN-DB", resp.Code)
	}
	if s.LiveTxs() != 0 {
		t.Fatalf("live txs = %d after crash, want 0", s.LiveTxs())
	}
	c.mustOK(&wire.Request{Op: wire.OpTxRecover, ID: 8})
	c.mustOK(&wire.Request{Op: wire.OpTxOpenDB, ID: 9, Name: "wipe"})
}

// TestPipelinedRequestsOwnTheirFrames: 64 requests stream down one
// connection — several frames per read — while every handler is held
// before it first looks at its payload. Each handler must then still
// find its own request: a frame body or Request reused by the read loop
// under a live handler shows as wrong bytes here, and as a data race
// under -race.
func TestPipelinedRequestsOwnTheirFrames(t *testing.T) {
	const n, width = DefaultMaxInFlight, 48
	eng := newFakeEngine()
	s := New(eng)
	c := dialRaw(t, s)
	cr := c.mustOK(&wire.Request{Op: wire.OpTxCreateDB, ID: 1, Name: "db", Size: n * width})
	db := eng.dbs["db"]
	db.gate = make(chan struct{})

	payload := func(i int) []byte {
		p := make([]byte, width)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		// One write for all 64 frames, so the server's reads hold many.
		var stream bytes.Buffer
		frames := wire.NewConn(&stream)
		for i := 0; i < n; i++ {
			_ = frames.SendRequest(&wire.Request{
				Op: wire.OpTxLoad, ID: uint64(100 + i), Seg: cr.Seg, Offset: uint64(i * width), Data: payload(i),
			})
		}
		if _, err := c.c.Write(stream.Bytes()); err != nil {
			t.Errorf("write pipeline: %v", err)
		}
	}()
	for db.waiting.Load() < n {
		runtime.Gosched()
	}
	<-sent
	close(db.gate)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		resp := c.recv()
		if resp.Status != wire.StatusOK || resp.ID < 100 || resp.ID >= 100+n || seen[resp.ID] {
			t.Fatalf("reply %d: id %d status %v (%s)", i, resp.ID, resp.Status, resp.Err)
		}
		seen[resp.ID] = true
	}
	for i := 0; i < n; i++ {
		if got := db.buf[i*width : (i+1)*width]; !bytes.Equal(got, payload(i)) {
			t.Fatalf("request %d landed as % x, want % x", i, got[:8], payload(i)[:8])
		}
	}
}
