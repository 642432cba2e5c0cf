// Package wire defines the binary protocol spoken between the PERSEAS
// client library and the remote memory server.
//
// The paper's reliable network RAM is driven by a client-server model:
// the server process on the remote node accepts requests (remote malloc
// and free), exports physical memory segments, and applies remote writes.
// This package frames those requests over any ordered byte stream.
//
// Framing: every message is a 4-byte big-endian length followed by the
// message body. Request bodies start with a 1-byte opcode; response
// bodies start with a 1-byte status. All multi-byte integers are
// big-endian. Strings and byte blobs are 4-byte-length-prefixed.
//
// # What a frame costs
//
// Every socket in the program is framed by one Conn, and a frame is one
// write and one read. Sending encodes the length prefix and the body
// into the connection's buffer and hands both to a single Write; a
// payload of 4 KiB or more is not copied into that buffer but rides as
// its own element of one writev. Receiving asks the socket for as much
// as the connection's receive buffer has room for, so the prefix and the
// body that were written together arrive together in one read — and so
// may the frames behind them, which stay in the buffer, with the
// connection, until they are asked for. A frame that does not fit what
// is buffered is read into its destination directly; only the part a
// read had already brought in (at most the 4 KiB the buffer starts at)
// is copied there first.
//
// # How long a received message is valid
//
// Decoding is in place: Request.Data, every Request.Batch[i].Data and
// Response.Data alias the bytes they were decoded from; strings (Name,
// Err, segment names) are copied out. So the lifetime of those three
// fields is the lifetime of the body:
//
//   - Conn.RecvRequest and Conn.RecvResponse decode over the
//     connection's receive buffer. The message is valid until the next
//     Recv call on that Conn, and RecvRequest also reuses the Request's
//     Batch slice. This is for loops that finish with one message before
//     reading the next: the memory server's connection loop (Handle
//     validates a whole batch, copies it into its segments and retains
//     nothing) and the transport's acks.
//   - Conn.RecvRequestOwned and Conn.RecvResponseOwned decode over one
//     allocation made for the frame, which the message then owns. This
//     is for messages that outlive the loop that read them: requests
//     handed to txserver's handler goroutines, replies handed to
//     txclient's callers, the bytes transport.Read returns.
//   - DecodeRequest and DecodeResponse alias the body they are given;
//     it is the caller's to keep unchanged for as long as the message
//     is used.
//
// A sender's payloads are read until Send returns and never retained.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Op identifies a request type.
type Op uint8

// Protocol opcodes. These mirror the operations the paper lists for the
// reliable network RAM layer plus housekeeping used by recovery.
const (
	// OpMalloc exports a new named segment on the server
	// (sci_get_new_segment in the paper).
	OpMalloc Op = iota + 1
	// OpFree releases a segment (sci_free_segment).
	OpFree
	// OpWrite copies bytes into a segment (the remote half of
	// sci_memcpy).
	OpWrite
	// OpRead copies bytes out of a segment (remote read, used during
	// recovery).
	OpRead
	// OpConnect looks up an existing named segment so a restarted
	// client can re-map it (sci_connect_segment).
	OpConnect
	// OpList enumerates live segments; used by recovery and tooling.
	OpList
	// OpPing checks server liveness.
	OpPing
	// OpStats fetches server counters.
	OpStats
	// OpWriteBatch applies several writes in one exchange, validated
	// together and applied atomically. One round trip covers a whole
	// commit on the TCP transport.
	OpWriteBatch
	// OpDisconnect drops one client reference to a connected segment
	// (the inverse of OpConnect), so a client abandoning a half-built
	// region leaves no stray handles behind on the mirror.
	OpDisconnect

	// The transaction-service opcodes follow: the same framing carries
	// the PERSEAS transaction API itself (txserver/txclient), not just
	// raw memory. Transaction requests are pipelined — a connection may
	// stream many before reading replies — so each carries a request ID
	// the server echoes, letting replies complete out of order.

	// OpTxBegin starts a transaction; the response carries its handle
	// in Tx.
	OpTxBegin
	// OpTxSetRange declares db[Offset:Offset+Size) of database handle
	// Seg as written by transaction Tx, capturing the server-side
	// before-image. The response Data carries the range's current
	// server-side bytes: once the conflict table grants the range, the
	// client refreshes its local replica from them, so read-modify-write
	// transactions from independent client processes observe each
	// other's committed updates.
	OpTxSetRange
	// OpTxCommit carries the final bytes of every declared range in
	// Batch (Seg = database handle) and commits transaction Tx.
	OpTxCommit
	// OpTxAbort rolls transaction Tx back.
	OpTxAbort
	// OpTxOpenDB re-attaches the named database; the response carries
	// its handle in Seg and its length in Size.
	OpTxOpenDB
	// OpTxCreateDB allocates a zeroed named database of Size bytes;
	// the response carries its handle in Seg.
	OpTxCreateDB
	// OpTxRead copies Length bytes at Offset out of database handle
	// Seg — how a client (re)hydrates its local replica after OpenDB.
	OpTxRead
	// OpTxLoad stores Data at Offset of database handle Seg outside any
	// transaction; only legal before OpTxInitDB publishes the initial
	// image.
	OpTxLoad
	// OpTxInitDB publishes database handle Seg's current content as its
	// initial durable state (the paper's PERSEAS_init_remote_db).
	OpTxInitDB
	// OpTxStats fetches transaction-server counters; the response Data
	// holds an encoded TxStats.
	OpTxStats
	// OpTxCrash simulates a crash of the given fault kind (Size) on the
	// serving engine. Served only when fault injection is enabled —
	// conformance and chaos harnesses, never production.
	OpTxCrash
	// OpTxRecover rebuilds the serving engine after OpTxCrash. Gated
	// like OpTxCrash.
	OpTxRecover

	// OpFill zeroes Size bytes at Offset of segment Seg server-side.
	// Recovery uses it to clear the stale tail of a republished undo
	// log without shipping a payload of zeroes over the wire.
	OpFill
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpMalloc:
		return "MALLOC"
	case OpFree:
		return "FREE"
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpConnect:
		return "CONNECT"
	case OpList:
		return "LIST"
	case OpPing:
		return "PING"
	case OpStats:
		return "STATS"
	case OpWriteBatch:
		return "WRITE-BATCH"
	case OpDisconnect:
		return "DISCONNECT"
	case OpTxBegin:
		return "TX-BEGIN"
	case OpTxSetRange:
		return "TX-SETRANGE"
	case OpTxCommit:
		return "TX-COMMIT"
	case OpTxAbort:
		return "TX-ABORT"
	case OpTxOpenDB:
		return "TX-OPENDB"
	case OpTxCreateDB:
		return "TX-CREATEDB"
	case OpTxRead:
		return "TX-READ"
	case OpTxLoad:
		return "TX-LOAD"
	case OpTxInitDB:
		return "TX-INITDB"
	case OpTxStats:
		return "TX-STATS"
	case OpTxCrash:
		return "TX-CRASH"
	case OpTxRecover:
		return "TX-RECOVER"
	case OpFill:
		return "FILL"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Status is the first byte of every response.
type Status uint8

// Response status codes.
const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusError carries a server-side error message.
	StatusError
)

// TxCode classifies a transaction-service failure so clients can map
// it back onto the engine's sentinel errors instead of parsing error
// strings. TxOK (the zero value) rides on every success and on every
// non-transaction response.
type TxCode uint8

// Transaction-service reply codes.
const (
	// TxOK is success.
	TxOK TxCode = iota
	// TxError is a failure with no finer classification; Err carries
	// the detail.
	TxError
	// TxBusy is an admission-control rejection: the server is at its
	// in-flight or connection limit and the client should back off and
	// retry.
	TxBusy
	// TxConflict maps engine.ErrConflict: the declared range overlaps
	// one held by another live transaction.
	TxConflict
	// TxNoTransaction maps engine.ErrNoTransaction.
	TxNoTransaction
	// TxInTransaction maps engine.ErrInTransaction.
	TxInTransaction
	// TxCrashed maps engine.ErrCrashed.
	TxCrashed
	// TxUnrecoverable maps engine.ErrUnrecoverable.
	TxUnrecoverable
	// TxUnknownTx means the request named a transaction handle the
	// server does not hold (already finished, or wiped by a crash).
	TxUnknownTx
	// TxUnknownDB means the request named a database handle the server
	// does not hold.
	TxUnknownDB
	// TxBadRequest means the frame decoded but the request is
	// malformed (out-of-bounds range, write outside declared ranges,
	// load after init). The server answers it and closes the
	// connection.
	TxBadRequest
)

// String implements fmt.Stringer.
func (c TxCode) String() string {
	switch c {
	case TxOK:
		return "OK"
	case TxError:
		return "ERROR"
	case TxBusy:
		return "BUSY"
	case TxConflict:
		return "CONFLICT"
	case TxNoTransaction:
		return "NO-TRANSACTION"
	case TxInTransaction:
		return "IN-TRANSACTION"
	case TxCrashed:
		return "CRASHED"
	case TxUnrecoverable:
		return "UNRECOVERABLE"
	case TxUnknownTx:
		return "UNKNOWN-TX"
	case TxUnknownDB:
		return "UNKNOWN-DB"
	case TxBadRequest:
		return "BAD-REQUEST"
	default:
		return fmt.Sprintf("CODE(%d)", uint8(c))
	}
}

// Limits guarding against malformed or hostile frames.
const (
	// MaxFrame is the largest message body accepted (64 MiB + slack),
	// sized to carry a whole mirrored database segment.
	MaxFrame = 64<<20 + 4096
	// MaxName is the longest segment name accepted.
	MaxName = 256
)

// Protocol errors.
var (
	// ErrFrameTooLarge is returned when a peer announces a frame
	// exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrNameTooLong is returned for segment names exceeding MaxName.
	ErrNameTooLong = errors.New("wire: segment name too long")
	// ErrTruncated is returned when a message body is shorter than its
	// fields require.
	ErrTruncated = errors.New("wire: truncated message")
)

// BatchEntry is one write of an OpWriteBatch request.
type BatchEntry struct {
	Seg    uint32
	Offset uint64
	Data   []byte
}

// Request is a client-to-server message. Which fields are meaningful
// depends on Op: Malloc uses Name+Size; Free uses Seg; Write uses
// Seg+Offset+Data; Read uses Seg+Offset+Length; Connect uses Name;
// WriteBatch uses Batch.
type Request struct {
	Op     Op
	Seg    uint32
	Offset uint64
	Length uint32
	Size   uint64
	Name   string
	Data   []byte
	Batch  []BatchEntry
	// ID is the pipelining correlation id: the server echoes it on the
	// matching response, so a connection can stream many requests and
	// complete replies out of order. Zero on the memory protocol.
	ID uint64
	// Tx names the transaction a Tx* request operates on.
	Tx uint64
	// TraceID carries the client's distributed-tracing id on Tx*
	// requests, 0 when the client is not tracing; TraceSpan is the id
	// of the client-side span enclosing this request, the parent the
	// server hangs its own spans under. Both ride as optional trailing
	// fields encoded only when TraceID is non-zero, so untraced frames
	// stay byte-identical to the pre-propagation protocol and old peers
	// interoperate unchanged.
	TraceID   uint64
	TraceSpan uint64
}

// SegmentInfo describes one exported segment in a LIST response.
type SegmentInfo struct {
	ID   uint32
	Size uint64
	Name string
	// Conns counts live client references (Connects minus Disconnects);
	// tooling uses it to spot leaked handles after failed reconnects.
	Conns uint32
}

// ServerStats carries server counters in a STATS response.
type ServerStats struct {
	Segments     uint32
	BytesHeld    uint64
	WriteOps     uint64
	ReadOps      uint64
	BytesWritten uint64
	BytesRead    uint64
	Mallocs      uint64
	Frees        uint64
	Connects     uint64
	Disconnects  uint64
	BatchOps     uint64
}

// Response is a server-to-client message. Err is set when Status is
// StatusError; the other fields depend on the request that elicited it.
type Response struct {
	Status   Status
	Seg      uint32
	Size     uint64
	Data     []byte
	Err      string
	Segments []SegmentInfo
	Stats    ServerStats
	// ID echoes the request's correlation id (pipelining).
	ID uint64
	// Tx carries the transaction handle a TX-BEGIN created.
	Tx uint64
	// Code classifies transaction-service failures (TxOK on success).
	Code TxCode
}

// appendU32/appendU64/appendBytes build message bodies.
func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// gatherMin is the payload size from which a Conn stops copying a
// payload into its encode buffer and sends it as its own iovec: below
// it the memcpy is cheaper than one more element in the writev.
const gatherMin = 4 << 10

// gather collects the payloads an encoder left out of its buffer. A nil
// *gather collects nothing: every payload is copied, which is what the
// flat-body encoders (EncodeRequest, EncodeResponse) want.
type gather struct{ cuts []cut }

// cut is one left-out payload: p belongs at offset at of the encoded
// bytes.
type cut struct {
	at int
	p  []byte
}

// appendPayload appends p's length prefix and then either p itself or,
// when g collects and p is large, a cut in its place.
func (g *gather) appendPayload(b, p []byte) []byte {
	if g == nil || len(p) < gatherMin {
		return appendBytes(b, p)
	}
	b = appendU32(b, uint32(len(p)))
	g.cuts = append(g.cuts, cut{at: len(b), p: p})
	return b
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = ErrTruncated
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.b)) {
		r.err = ErrTruncated
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// EncodeRequest serialises a request body (without the frame length).
func EncodeRequest(req *Request) ([]byte, error) {
	n := 69 + len(req.Name) + len(req.Data)
	for i := range req.Batch {
		n += 16 + len(req.Batch[i].Data)
	}
	return appendRequest(make([]byte, 0, n), req, nil)
}

// appendRequest serialises a request body onto b (which may carry
// reusable capacity) and returns the extended slice; payloads g
// collects are left out of it.
func appendRequest(b []byte, req *Request, g *gather) ([]byte, error) {
	if len(req.Name) > MaxName {
		return nil, ErrNameTooLong
	}
	if len(req.Data) > math.MaxUint32 {
		return nil, ErrFrameTooLarge
	}
	b = append(b, byte(req.Op))
	b = appendU32(b, req.Seg)
	b = appendU64(b, req.Offset)
	b = appendU32(b, req.Length)
	b = appendU64(b, req.Size)
	b = appendBytes(b, []byte(req.Name))
	b = g.appendPayload(b, req.Data)
	b = appendU32(b, uint32(len(req.Batch)))
	for i := range req.Batch {
		e := &req.Batch[i]
		b = appendU32(b, e.Seg)
		b = appendU64(b, e.Offset)
		b = g.appendPayload(b, e.Data)
	}
	b = appendU64(b, req.ID)
	b = appendU64(b, req.Tx)
	if req.TraceID != 0 {
		b = appendU64(b, req.TraceID)
		b = appendU64(b, req.TraceSpan)
	}
	return b, nil
}

// DecodeRequest parses a request body in place: the returned request's
// Data and Batch[i].Data alias body (see the package doc).
func DecodeRequest(body []byte) (*Request, error) {
	// Kept small enough to inline, so a caller that does not retain the
	// request keeps it on its stack.
	req := new(Request)
	if err := req.decode(body); err != nil {
		return nil, err
	}
	return req, nil
}

// decode parses body into req in place, reusing req's Batch slice: Data
// and every Batch[i].Data alias body, Name is copied. On error req holds
// a partial decode.
func (req *Request) decode(body []byte) error {
	r := reader{b: body}
	*req = Request{
		Op:     Op(r.u8()),
		Seg:    r.u32(),
		Offset: r.u64(),
		Length: r.u32(),
		Size:   r.u64(),
		Batch:  req.Batch[:0],
	}
	name := r.bytes()
	if data := r.bytes(); len(data) > 0 {
		req.Data = data
	}
	nBatch := r.u32()
	if r.err == nil && uint64(nBatch)*16 > uint64(len(r.b)) {
		// Each entry takes at least 16 bytes; a count the remaining
		// body cannot hold is corrupt (and must not size the slice).
		return ErrTruncated
	}
	if r.err == nil && int(nBatch) > cap(req.Batch) {
		req.Batch = make([]BatchEntry, 0, nBatch)
	}
	for i := uint32(0); i < nBatch && r.err == nil; i++ {
		e := BatchEntry{Seg: r.u32(), Offset: r.u64()}
		if d := r.bytes(); len(d) > 0 {
			e.Data = d
		}
		req.Batch = append(req.Batch, e)
	}
	req.ID = r.u64()
	req.Tx = r.u64()
	// Optional trace-context tail: present only when the peer traced
	// the request. Old peers simply end the body here; a zero TraceID
	// in the tail means untraced and the span id is discarded with it.
	if r.err == nil && len(r.b) >= 16 {
		traceID := r.u64()
		traceSpan := r.u64()
		if traceID != 0 {
			req.TraceID, req.TraceSpan = traceID, traceSpan
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(name) > MaxName {
		return ErrNameTooLong
	}
	req.Name = string(name)
	return nil
}

// EncodeResponse serialises a response body (without the frame length).
func EncodeResponse(resp *Response) ([]byte, error) {
	n := 126 + len(resp.Data) + len(resp.Err)
	for i := range resp.Segments {
		n += 20 + len(resp.Segments[i].Name)
	}
	return appendResponse(make([]byte, 0, n), resp, nil)
}

// appendResponse serialises a response body onto b (which may carry
// reusable capacity) and returns the extended slice; payloads g
// collects are left out of it.
func appendResponse(b []byte, resp *Response, g *gather) ([]byte, error) {
	if len(resp.Data) > math.MaxUint32 {
		return nil, ErrFrameTooLarge
	}
	b = append(b, byte(resp.Status))
	b = appendU32(b, resp.Seg)
	b = appendU64(b, resp.Size)
	b = g.appendPayload(b, resp.Data)
	b = appendBytes(b, []byte(resp.Err))
	b = appendU32(b, uint32(len(resp.Segments)))
	for _, s := range resp.Segments {
		if len(s.Name) > MaxName {
			return nil, ErrNameTooLong
		}
		b = appendU32(b, s.ID)
		b = appendU64(b, s.Size)
		b = appendBytes(b, []byte(s.Name))
		b = appendU32(b, s.Conns)
	}
	b = appendU32(b, resp.Stats.Segments)
	b = appendU64(b, resp.Stats.BytesHeld)
	b = appendU64(b, resp.Stats.WriteOps)
	b = appendU64(b, resp.Stats.ReadOps)
	b = appendU64(b, resp.Stats.BytesWritten)
	b = appendU64(b, resp.Stats.BytesRead)
	b = appendU64(b, resp.Stats.Mallocs)
	b = appendU64(b, resp.Stats.Frees)
	b = appendU64(b, resp.Stats.Connects)
	b = appendU64(b, resp.Stats.Disconnects)
	b = appendU64(b, resp.Stats.BatchOps)
	b = appendU64(b, resp.ID)
	b = appendU64(b, resp.Tx)
	b = append(b, byte(resp.Code))
	return b, nil
}

// DecodeResponse parses a response body in place: the returned
// response's Data aliases body (see the package doc).
func DecodeResponse(body []byte) (*Response, error) {
	resp := new(Response) // inlined into the caller, like DecodeRequest
	if err := resp.decode(body); err != nil {
		return nil, err
	}
	return resp, nil
}

// decode parses body into resp in place: Data aliases body, Err and the
// segment names are copied. On error resp holds a partial decode.
func (resp *Response) decode(body []byte) error {
	r := reader{b: body}
	*resp = Response{
		Status: Status(r.u8()),
		Seg:    r.u32(),
		Size:   r.u64(),
	}
	if data := r.bytes(); len(data) > 0 {
		resp.Data = data
	}
	errMsg := r.bytes()
	nseg := r.u32()
	if r.err == nil && uint64(nseg) > uint64(len(r.b)) {
		// Each segment entry takes at least 16 bytes; a count larger
		// than the remaining body is corrupt.
		return ErrTruncated
	}
	for i := uint32(0); i < nseg && r.err == nil; i++ {
		s := SegmentInfo{ID: r.u32(), Size: r.u64()}
		s.Name = string(r.bytes())
		s.Conns = r.u32()
		resp.Segments = append(resp.Segments, s)
	}
	resp.Stats.Segments = r.u32()
	resp.Stats.BytesHeld = r.u64()
	resp.Stats.WriteOps = r.u64()
	resp.Stats.ReadOps = r.u64()
	resp.Stats.BytesWritten = r.u64()
	resp.Stats.BytesRead = r.u64()
	resp.Stats.Mallocs = r.u64()
	resp.Stats.Frees = r.u64()
	resp.Stats.Connects = r.u64()
	resp.Stats.Disconnects = r.u64()
	resp.Stats.BatchOps = r.u64()
	resp.ID = r.u64()
	resp.Tx = r.u64()
	resp.Code = TxCode(r.u8())
	if r.err != nil {
		return r.err
	}
	resp.Err = string(errMsg)
	return nil
}

// TxStats carries transaction-server counters in an OpTxStats response
// (encoded into Response.Data so ordinary responses pay nothing for
// them). Quantiles are pre-computed server-side from its histograms.
type TxStats struct {
	// Conns is the live connection count; ConnsTotal counts every
	// connection ever accepted, ConnsRejected those turned away at the
	// connection limit.
	Conns         uint64
	ConnsTotal    uint64
	ConnsRejected uint64
	// Transaction outcomes, plus the live in-flight count.
	TxsBegun     uint64
	TxsCommitted uint64
	TxsAborted   uint64
	TxsInFlight  uint64
	// BusyRejected counts requests answered TxBusy by admission
	// control; MalformedFrames counts connections dropped for frames
	// that failed to decode.
	BusyRejected    uint64
	MalformedFrames uint64
	// Group-commit convoys: how many mirror fan-out windows ran and how
	// many commits they carried, with the batch-size distribution's
	// p50/p99/max.
	Convoys       uint64
	ConvoyCommits uint64
	BatchP50      uint64
	BatchP99      uint64
	BatchMax      uint64
	// Pipelined request depth per connection at arrival, p50/p99/max.
	DepthP50 uint64
	DepthP99 uint64
	DepthMax uint64
}

// EncodeTxStats serialises s as a standalone blob for Response.Data.
func EncodeTxStats(s *TxStats) []byte {
	b := make([]byte, 0, 17*8)
	for _, v := range []uint64{
		s.Conns, s.ConnsTotal, s.ConnsRejected,
		s.TxsBegun, s.TxsCommitted, s.TxsAborted, s.TxsInFlight,
		s.BusyRejected, s.MalformedFrames,
		s.Convoys, s.ConvoyCommits, s.BatchP50, s.BatchP99, s.BatchMax,
		s.DepthP50, s.DepthP99, s.DepthMax,
	} {
		b = appendU64(b, v)
	}
	return b
}

// DecodeTxStats parses a blob written by EncodeTxStats.
func DecodeTxStats(body []byte) (*TxStats, error) {
	r := &reader{b: body}
	s := &TxStats{}
	for _, p := range []*uint64{
		&s.Conns, &s.ConnsTotal, &s.ConnsRejected,
		&s.TxsBegun, &s.TxsCommitted, &s.TxsAborted, &s.TxsInFlight,
		&s.BusyRejected, &s.MalformedFrames,
		&s.Convoys, &s.ConvoyCommits, &s.BatchP50, &s.BatchP99, &s.BatchMax,
		&s.DepthP50, &s.DepthP99, &s.DepthMax,
	} {
		*p = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}
