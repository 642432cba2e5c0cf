package transport

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/wire"
)

// countingConn counts the calls that reach the socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// tcpOver builds a one-connection TCP transport around nc, as DialTCP
// does around the socket it dials.
func tcpOver(nc net.Conn) *TCP {
	t := &TCP{idle: []*tcpConn{{nc: nc, Conn: wire.NewConn(nc)}}, total: tcpMaxConns}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// loopbackPair returns both ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		client.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// commitBatch is the nine-entry batch of one debit-credit commit: four
// undo records, four ranges, the commit word.
func commitBatch(seg uint32) []BatchWrite {
	var ws []BatchWrite
	for i, n := range []int{32, 32, 32, 74, 8, 8, 8, 50, 8} {
		ws = append(ws, BatchWrite{Seg: seg, Offset: uint64(i) * 128, Data: bytes.Repeat([]byte{byte(i + 1)}, n)})
	}
	return ws
}

// TestCommitExchangeIsOneWriteOneReadEachWay pins the mechanism on the
// real path — TCP.WriteBatch, serveConn, memserver — over a counted
// loopback socket: one commit is one write(2) and at most one read(2)
// on the client and the same on the mirror.
func TestCommitExchangeIsOneWriteOneReadEachWay(t *testing.T) {
	a, b := loopbackPair(t)
	cn, sn := &countingConn{Conn: a}, &countingConn{Conn: b}
	srv := memserver.New()
	seg, err := srv.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveConn(sn, srv)
	}()
	cli := tcpOver(cn)
	batch := commitBatch(seg.ID)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := cli.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	cli.Close()
	<-served
	for _, w := range batch {
		if !bytes.Equal(seg.Data[w.Offset:w.Offset+uint64(len(w.Data))], w.Data) {
			t.Fatalf("entry at %d did not land", w.Offset)
		}
	}
	if w := cn.writes.Load(); w != rounds {
		t.Errorf("client: %d writes for %d commits, want one each", w, rounds)
	}
	if w := sn.writes.Load(); w != rounds {
		t.Errorf("mirror: %d writes for %d acks, want one each", w, rounds)
	}
	if r := cn.reads.Load(); r > rounds {
		t.Errorf("client: %d reads for %d acks, want at most one each", r, rounds)
	}
	// The mirror's last read is the one that finds the stream closed.
	if r := sn.reads.Load(); r > rounds+1 {
		t.Errorf("mirror: %d reads for %d commits, want at most one each", r, rounds)
	}
}

// TestReadAheadSurvivesThePool: a reply that arrives in the same read
// as the one before it belongs to the connection, not to the call that
// happened to read it — the next caller to acquire the connection gets
// it. The peer here answers the first request with both replies at once
// and the second with nothing.
func TestReadAheadSurvivesThePool(t *testing.T) {
	a, b := loopbackPair(t)
	peer := wire.NewConn(b)
	peerErr := make(chan error, 1)
	go func() {
		var req wire.Request
		if err := peer.RecvRequest(&req); err != nil {
			peerErr <- err
			return
		}
		// Two frames, one write: the codec frames them, the socket
		// carries them together.
		var both bytes.Buffer
		frames := wire.NewConn(&both)
		_ = frames.SendResponse(&wire.Response{Status: wire.StatusOK, Seg: 41, Size: 64})
		_ = frames.SendResponse(&wire.Response{Status: wire.StatusOK, Seg: 42, Size: 128})
		if _, err := b.Write(both.Bytes()); err != nil {
			peerErr <- err
			return
		}
		peerErr <- peer.RecvRequest(&req)
	}()
	cn := &countingConn{Conn: a}
	cli := tcpOver(cn)
	first, err := cli.Connect("one")
	if err != nil {
		t.Fatal(err)
	}
	if r := cn.reads.Load(); r != 1 {
		t.Fatalf("first reply took %d reads, want 1 (both frames arrive together)", r)
	}
	second, err := cli.Connect("two")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
	if first != (SegmentHandle{ID: 41, Size: 64}) || second != (SegmentHandle{ID: 42, Size: 128}) {
		t.Fatalf("replies %+v then %+v, want segments 41 then 42", first, second)
	}
	if r := cn.reads.Load(); r != 1 {
		t.Errorf("%d reads for two replies sent together, want 1", r)
	}
}

// TestWriteBatchExchangeAllocs is TestCommitAllocsZero's counterpart
// one layer down: a warm commit exchange TCP ↔ Serve ↔ memserver —
// encode, two socket crossings, in-place decode, validate, apply, ack —
// allocates at most 2 objects end to end (it measures 0; it was 23).
func TestWriteBatchExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cli, srv := startTCP(t)
	seg, err := srv.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	batch := commitBatch(seg.ID)
	exchange := func() {
		if err := cli.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		exchange()
	}
	n := testing.AllocsPerRun(200, exchange)
	t.Logf("warm WriteBatch exchange: %.1f objects", n)
	if n > 2 {
		t.Errorf("warm WriteBatch exchange allocates %.1f objects, want at most 2", n)
	}
}
