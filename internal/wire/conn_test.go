package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// pattern returns n bytes that differ by position and by seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

func cloneRequest(req *Request) Request {
	c := *req
	c.Data = bytes.Clone(req.Data)
	c.Batch = nil
	for _, e := range req.Batch {
		e.Data = bytes.Clone(e.Data)
		c.Batch = append(c.Batch, e)
	}
	return c
}

// sameRequest compares field by field, treating nil and empty slices
// alike (a reused Request keeps an empty, non-nil Batch).
func sameRequest(a, b *Request) bool {
	x, y := *a, *b
	x.Data, y.Data, x.Batch, y.Batch = nil, nil, nil, nil
	if !reflect.DeepEqual(x, y) || !bytes.Equal(a.Data, b.Data) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if a.Batch[i].Seg != b.Batch[i].Seg || a.Batch[i].Offset != b.Batch[i].Offset ||
			!bytes.Equal(a.Batch[i].Data, b.Batch[i].Data) {
			return false
		}
	}
	return true
}

// streamRequests is a mix of frame sizes around every threshold the
// codec has: tiny, around the 4 KiB receive buffer and gather minimum,
// a commit-sized batch, a bulk batch, and one beyond what a connection
// keeps a buffer for.
func streamRequests() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpWrite, Seg: 1, Offset: 8, Data: []byte("x")},
		{Op: OpWrite, Seg: 2, Offset: 16, Data: pattern(gatherMin-1, 1)},
		{Op: OpWrite, Seg: 2, Offset: 16, Data: pattern(gatherMin, 2)},
		{Op: OpWriteBatch, Batch: []BatchEntry{
			{Seg: 1, Offset: 0, Data: pattern(66, 3)},
			{Seg: 2, Offset: 64, Data: pattern(8, 4)},
			{Seg: 3, Offset: 24, Data: pattern(8, 5)},
		}},
		{Op: OpTxBegin, ID: 77, TraceID: 5, TraceSpan: 6},
		{Op: OpWriteBatch, Batch: []BatchEntry{
			{Seg: 1, Offset: 0, Data: pattern(65536+24, 6)},
			{Seg: 2, Offset: 1 << 20, Data: pattern(65536, 7)},
			{Seg: 3, Offset: 24, Data: pattern(8, 8)},
		}},
		{Op: OpTxOpenDB, ID: 78, Name: "accounts"},
		{Op: OpTxLoad, ID: 79, Seg: 1, Data: pattern(maxConnBuf+4096, 9)},
		{Op: OpTxAbort, ID: 80, Tx: 4},
	}
}

// encodeStream frames reqs through one Conn into a byte stream.
func encodeStream(t *testing.T, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := range reqs {
		if err := c.SendRequest(&reqs[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// readWriter joins a stream to read frames from and one to write them to.
type readWriter struct {
	io.Reader
	io.Writer
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestEveryReaderDecodesEveryFrame: however the stream is cut into
// reads — everything at once (so each read holds several whole frames),
// one byte per call, or awkward chunks — every frame decodes to the
// same request, in place and owned, and the stream then ends with a
// bare io.EOF. Nothing read ahead of a frame is lost to the next.
func TestEveryReaderDecodesEveryFrame(t *testing.T) {
	want := streamRequests()
	stream := encodeStream(t, want)
	readers := map[string]func() io.Reader{
		"all-at-once": func() io.Reader { return bytes.NewReader(stream) },
		"one-byte":    func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":        func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"chunk-4099":  func() io.Reader { return chunkReader{bytes.NewReader(stream), 4099} },
		"data-err":    func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	}
	modes := map[string]func(i int) bool{
		"in-place":    func(int) bool { return false },
		"owned":       func(int) bool { return true },
		"alternating": func(i int) bool { return i%2 == 0 },
	}
	for rname, mk := range readers {
		for mname, owned := range modes {
			t.Run(rname+"/"+mname, func(t *testing.T) {
				c := NewConn(readWriter{mk(), io.Discard})
				var req Request // reused, as a synchronous server loop does
				var kept []*Request
				for i := range want {
					var err error
					if owned(i) {
						r := new(Request)
						err = c.RecvRequestOwned(r)
						kept = append(kept, r)
						req = *r
					} else {
						err = c.RecvRequest(&req)
					}
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					if !sameRequest(&req, &want[i]) {
						t.Fatalf("frame %d (%s, %d-byte payloads) decoded differently", i, want[i].Op, len(want[i].Data))
					}
				}
				if err := c.RecvRequest(&req); err != io.EOF {
					t.Fatalf("drained stream: got %v, want bare io.EOF", err)
				}
				// Owned requests are still intact after every later frame
				// went through the connection's buffer.
				k := 0
				for i := range want {
					if owned(i) {
						if !sameRequest(kept[k], &want[i]) {
							t.Fatalf("owned frame %d changed after later frames were received", i)
						}
						k++
					}
				}
			})
		}
	}
}

// TestRecvBuffersAreBounded: a connection keeps at most maxConnBuf of
// receive buffer and of encode buffer, whatever passed through it.
func TestRecvBuffersAreBounded(t *testing.T) {
	reqs := streamRequests()
	var buf bytes.Buffer
	c := NewConn(&buf)
	var req Request
	for i := range reqs {
		if err := c.SendRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.rbuf) > maxConnBuf || cap(c.wbuf) > maxConnBuf {
		t.Fatalf("connection keeps %d receive and %d encode bytes, bound %d", len(c.rbuf), cap(c.wbuf), maxConnBuf)
	}
	// Copying encoders grow the encode buffer past the bound; it must be
	// dropped, not kept.
	big := Response{Status: StatusOK, Err: strings.Repeat("e", maxConnBuf+1)}
	if err := c.SendResponse(&big); err != nil {
		t.Fatal(err)
	}
	if cap(c.wbuf) > maxConnBuf {
		t.Fatalf("encode buffer of %d bytes kept, bound %d", cap(c.wbuf), maxConnBuf)
	}
}

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

// countedPair is a client and a server end, each behind a counter, over
// loopback TCP (net.Pipe has no buffer: it would turn one read into as
// many as the reader's buffer dictates).
func countedPair(t *testing.T) (client, server *countingConn) {
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
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := <-accepted
	if !ok {
		a.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return &countingConn{Conn: a}, &countingConn{Conn: b}
}

// TestSmallFrameIsOneWriteOneRead pins the mechanism: a commit-sized
// request and its ack cost exactly one Write and at most one Read each,
// in each direction — the length prefix never travels alone and is
// never read alone.
func TestSmallFrameIsOneWriteOneRead(t *testing.T) {
	cn, sn := countedPair(t)
	client, server := NewConn(cn), NewConn(sn)
	commit := streamRequests()[4]
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := client.SendRequest(&commit); err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := server.RecvRequest(&req); err != nil {
			t.Fatal(err)
		}
		if !sameRequest(&req, &commit) {
			t.Fatal("request decoded differently")
		}
		if err := server.SendResponse(&Response{Status: StatusOK}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := client.RecvResponse(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatal("ack decoded differently")
		}
	}
	if w := cn.writes.Load(); w != rounds {
		t.Errorf("client made %d writes for %d requests, want one each", w, rounds)
	}
	if w := sn.writes.Load(); w != rounds {
		t.Errorf("server made %d writes for %d responses, want one each", w, rounds)
	}
	if r := sn.reads.Load(); r > rounds {
		t.Errorf("server made %d reads for %d requests, want at most one each", r, rounds)
	}
	if r := cn.reads.Load(); r > rounds {
		t.Errorf("client made %d reads for %d responses, want at most one each", r, rounds)
	}
}

// TestLargePayloadIsNotCopied: a payload of gatherMin bytes or more
// reaches the writer as the caller's own slice — never copied into the
// encode buffer — and the bytes on the wire are exactly the flat
// encoder's. (On a counting writer net.Buffers degrades to one Write per
// element; on a socket the same elements are one writev.)
func TestLargePayloadIsNotCopied(t *testing.T) {
	bulk := streamRequests()[6]
	flat, err := EncodeRequest(&bulk)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	var handed [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		handed = append(handed, p)
		return wire.Write(p)
	})
	c := NewConn(readWriter{strings.NewReader(""), w})
	if err := c.SendRequest(&bulk); err != nil {
		t.Fatal(err)
	}
	if got := wire.Bytes(); len(got) != 4+len(flat) || !bytes.Equal(got[4:], flat) {
		t.Fatalf("gathered frame is %d bytes and differs from the flat encoding of %d", len(got), len(flat))
	}
	for _, e := range bulk.Batch {
		aliased := false
		for _, p := range handed {
			if len(p) == len(e.Data) && &p[0] == &e.Data[0] {
				aliased = true
			}
		}
		if want := len(e.Data) >= gatherMin; aliased != want {
			t.Errorf("%d-byte payload handed to the writer as is: %v, want %v", len(e.Data), aliased, want)
		}
	}
	if len(handed) != 5 {
		t.Errorf("frame left in %d pieces, want head, payload, middle, payload, tail", len(handed))
	}
	for _, ct := range c.g.cuts[:cap(c.g.cuts)] {
		if ct.p != nil {
			t.Error("the connection still references a payload after the send")
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestLargeFrameOverSocket drives the writev path itself: bulk frames
// both ways over loopback TCP, in place and owned.
func TestLargeFrameOverSocket(t *testing.T) {
	cn, sn := countedPair(t)
	client, server := NewConn(cn.Conn), NewConn(sn.Conn)
	bulk := streamRequests()[6]
	done := make(chan error, 1)
	go func() {
		var req Request
		for i := 0; i < 4; i++ {
			if err := server.RecvRequest(&req); err != nil {
				done <- err
				return
			}
			if !sameRequest(&req, &bulk) {
				done <- fmt.Errorf("bulk request %d decoded differently", i)
				return
			}
			if err := server.SendResponse(&Response{Status: StatusOK, Data: req.Batch[1].Data}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := client.SendRequest(&bulk); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := client.RecvResponseOwned(&resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, bulk.Batch[1].Data) {
			t.Fatalf("bulk response %d came back different", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFrames: the codec puts the bytes on the wire that the free
// framing functions did, and reads them back to the same message — for
// one request and one response of every opcode.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		kind, rest, _ := strings.Cut(sc.Text(), " ")
		op, hx, _ := strings.Cut(rest, " ")
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s %s: %v", kind, op, err)
		}
		golden[kind+" "+op] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(goldenRequests) != int(OpFill) || len(goldenResponses) != len(goldenRequests) ||
		len(golden) != 2*len(goldenRequests) {
		t.Fatalf("%d requests, %d responses, %d golden lines for %d opcodes",
			len(goldenRequests), len(goldenResponses), len(golden), int(OpFill))
	}
	for i := range goldenRequests {
		req, resp := &goldenRequests[i], &goldenResponses[i]
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		if want := golden["request "+req.Op.String()]; !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s request on the wire:\n got %x\nwant %x", req.Op, buf.Bytes(), want)
		}
		var gotReq Request
		if err := c.RecvRequest(&gotReq); err != nil || !sameRequest(&gotReq, req) {
			t.Errorf("%s request read back as %+v (%v)", req.Op, gotReq, err)
		}
		if err := c.SendResponse(resp); err != nil {
			t.Fatal(err)
		}
		if want := golden["response "+req.Op.String()]; !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s response on the wire:\n got %x\nwant %x", req.Op, buf.Bytes(), want)
		}
		var gotResp Response
		if err := c.RecvResponse(&gotResp); err != nil || !reflect.DeepEqual(gotResp, *resp) {
			t.Errorf("%s response read back as %+v (%v)", req.Op, gotResp, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	c := NewConn(readWriter{bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), io.Discard})
	huge := Request{Op: OpWrite, Data: make([]byte, MaxFrame+1)}
	if err := c.SendRequest(&huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("send oversized: got %v, want ErrFrameTooLarge", err)
	}
	if err := c.RecvRequest(new(Request)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("receive oversized: got %v, want ErrFrameTooLarge", err)
	}
}

// TestTruncatedStream: a stream that ends inside a frame — header or
// body, in place or owned — is an error that is not io.EOF, so a server
// can tell a peer that hung up between frames from one that sent half
// of one.
func TestTruncatedStream(t *testing.T) {
	stream := encodeStream(t, []Request{{Op: OpWrite, Seg: 1, Data: []byte("abcdef")}})
	for _, cut := range []int{1, 3, 4, 10, len(stream) - 1} {
		for _, owned := range []bool{false, true} {
			c := NewConn(readWriter{bytes.NewReader(stream[:cut]), io.Discard})
			var err error
			if owned {
				err = c.RecvRequestOwned(new(Request))
			} else {
				err = c.RecvRequest(new(Request))
			}
			if err == nil || errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("stream cut at %d (owned=%v): got %v, want an unexpected EOF", cut, owned, err)
			}
		}
	}
}

func TestArbitraryStreamNeverPanics(t *testing.T) {
	f := func(hdr [4]byte, body []byte, owned bool) bool {
		c := NewConn(readWriter{bytes.NewReader(append(hdr[:], body...)), io.Discard})
		if owned {
			_ = c.RecvRequestOwned(new(Request))
			_ = c.RecvResponseOwned(new(Response))
		} else {
			_ = c.RecvRequest(new(Request))
			_ = c.RecvResponse(new(Response))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeAllocsZero: a warm commit-sized exchange through two
// codecs — encode, frame, read, decode in place, both directions —
// allocates nothing.
func TestExchangeAllocsZero(t *testing.T) {
	var pipe bytes.Buffer
	client, server := NewConn(&pipe), NewConn(&pipe)
	commit := streamRequests()[4]
	ack := Response{Status: StatusOK}
	var req Request
	var resp Response
	exchange := func() {
		if err := client.SendRequest(&commit); err != nil {
			t.Fatal(err)
		}
		if err := server.RecvRequest(&req); err != nil {
			t.Fatal(err)
		}
		if err := server.SendResponse(&ack); err != nil {
			t.Fatal(err)
		}
		if err := client.RecvResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Errorf("warm exchange allocates %.1f objects, want 0", n)
	}
}
