package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{"malloc", Request{Op: OpMalloc, Size: 1 << 20, Name: "db.accounts"}},
		{"free", Request{Op: OpFree, Seg: 7}},
		{"write", Request{Op: OpWrite, Seg: 3, Offset: 4096, Data: []byte{1, 2, 3, 4}}},
		{"write empty", Request{Op: OpWrite, Seg: 3, Offset: 0}},
		{"read", Request{Op: OpRead, Seg: 9, Offset: 128, Length: 64}},
		{"connect", Request{Op: OpConnect, Name: "perseas.meta"}},
		{"list", Request{Op: OpList}},
		{"ping", Request{Op: OpPing}},
		{"stats", Request{Op: OpStats}},
		{"batch", Request{Op: OpWriteBatch, Batch: []BatchEntry{
			{Seg: 1, Offset: 0, Data: []byte("aa")},
			{Seg: 2, Offset: 4096, Data: []byte("bbbb")},
		}}},
		{"tx begin", Request{Op: OpTxBegin, ID: 42}},
		{"tx setrange", Request{Op: OpTxSetRange, ID: 43, Tx: 7, Seg: 2, Offset: 128, Size: 64}},
		{"tx commit", Request{Op: OpTxCommit, ID: 44, Tx: 7, Batch: []BatchEntry{
			{Seg: 2, Offset: 128, Data: []byte("final bytes")},
		}}},
		{"tx abort", Request{Op: OpTxAbort, ID: 45, Tx: 7}},
		{"tx opendb", Request{Op: OpTxOpenDB, ID: 46, Name: "accounts"}},
		{"tx createdb", Request{Op: OpTxCreateDB, ID: 47, Name: "accounts", Size: 1 << 16}},
		{"tx read", Request{Op: OpTxRead, ID: 48, Seg: 2, Offset: 0, Length: 4096}},
		{"tx load", Request{Op: OpTxLoad, ID: 49, Seg: 2, Offset: 64, Data: []byte("init")}},
		{"tx stats", Request{Op: OpTxStats, ID: 50}},
		{"tx begin traced", Request{Op: OpTxBegin, ID: 51, TraceID: 9, TraceSpan: 2}},
		{"tx commit traced", Request{Op: OpTxCommit, ID: 52, Tx: 7, TraceID: 1<<62 | 5, TraceSpan: 1<<63 | 3, Batch: []BatchEntry{
			{Seg: 2, Offset: 128, Data: []byte("final bytes")},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, err := EncodeRequest(&tt.req)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeRequest(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tt.req) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, tt.req)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		resp Response
	}{
		{"ok", Response{Status: StatusOK, Seg: 5, Size: 4096}},
		{"error", Response{Status: StatusError, Err: "no such segment"}},
		{"data", Response{Status: StatusOK, Data: []byte("hello")}},
		{"list", Response{Status: StatusOK, Segments: []SegmentInfo{
			{ID: 1, Size: 64, Name: "a"},
			{ID: 2, Size: 128, Name: "b"},
		}}},
		{"stats", Response{Status: StatusOK, Stats: ServerStats{
			Segments: 2, BytesHeld: 192, WriteOps: 10, ReadOps: 3,
			BytesWritten: 640, BytesRead: 64,
			Mallocs: 4, Frees: 2, Connects: 7, Disconnects: 5, BatchOps: 3,
		}}},
		{"list-with-conns", Response{Status: StatusOK, Segments: []SegmentInfo{
			{ID: 1, Size: 64, Name: "a", Conns: 2},
			{ID: 2, Size: 128, Name: "b", Conns: 0},
		}}},
		{"tx ok", Response{Status: StatusOK, ID: 42, Tx: 7}},
		{"tx conflict", Response{Status: StatusError, ID: 43, Code: TxConflict, Err: "range held"}},
		{"tx busy", Response{Status: StatusError, ID: 44, Code: TxBusy, Err: "server saturated"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, err := EncodeResponse(&tt.resp)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeResponse(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tt.resp) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, tt.resp)
			}
		})
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(op uint8, seg uint32, off uint64, length uint32, size uint64, name string, data []byte) bool {
		if len(name) > MaxName {
			name = name[:MaxName]
		}
		req := Request{
			Op: Op(op), Seg: seg, Offset: off, Length: length, Size: size,
			Name: name, Data: data,
		}
		body, err := EncodeRequest(&req)
		if err != nil {
			return false
		}
		got, err := DecodeRequest(body)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			// Decoder normalises empty data to nil.
			return got.Op == req.Op && got.Seg == req.Seg && got.Offset == req.Offset &&
				got.Length == req.Length && got.Size == req.Size && got.Name == req.Name &&
				len(got.Data) == 0
		}
		return reflect.DeepEqual(*got, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRequestTruncated(t *testing.T) {
	req := Request{Op: OpWrite, Seg: 1, Offset: 10, Data: []byte("payload")}
	body, err := EncodeRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeRequest(body[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(body))
		}
	}
}

func TestDecodeResponseTruncated(t *testing.T) {
	resp := Response{Status: StatusOK, Segments: []SegmentInfo{{ID: 1, Size: 2, Name: "x"}}}
	body, err := EncodeResponse(&resp)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeResponse(body[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(body))
		}
	}
}

func TestDecodeResponseCorruptSegmentCount(t *testing.T) {
	resp := Response{Status: StatusOK}
	body, err := EncodeResponse(&resp)
	if err != nil {
		t.Fatal(err)
	}
	// The segment count field sits after status(1)+seg(4)+size(8)+
	// data len(4)+err len(4) = byte 21.
	body[21] = 0xff
	body[22] = 0xff
	if _, err := DecodeResponse(body); err == nil {
		t.Error("corrupt segment count should fail to decode")
	}
}

func TestNameTooLong(t *testing.T) {
	long := strings.Repeat("x", MaxName+1)
	if _, err := EncodeRequest(&Request{Op: OpMalloc, Name: long}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("encode long name: got %v, want ErrNameTooLong", err)
	}
	if _, err := EncodeResponse(&Response{
		Status:   StatusOK,
		Segments: []SegmentInfo{{Name: long}},
	}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("encode long segment name: got %v, want ErrNameTooLong", err)
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	// Decoders face bytes from the network; arbitrary input must yield
	// an error or a value, never a panic or out-of-range access.
	f := func(body []byte) bool {
		_, _ = DecodeRequest(body)
		_, _ = DecodeResponse(body)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial shapes: giant length prefixes everywhere.
	evil := make([]byte, 64)
	for i := range evil {
		evil[i] = 0xFF
	}
	if _, err := DecodeRequest(evil); err == nil {
		t.Error("all-0xFF request decoded")
	}
	if _, err := DecodeResponse(evil); err == nil {
		t.Error("all-0xFF response decoded")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpMalloc: "MALLOC", OpFree: "FREE", OpWrite: "WRITE", OpRead: "READ",
		OpConnect: "CONNECT", OpList: "LIST", OpPing: "PING", OpStats: "STATS",
		OpTxBegin: "TX-BEGIN", OpTxSetRange: "TX-SETRANGE", OpTxCommit: "TX-COMMIT",
		OpTxAbort: "TX-ABORT", OpTxOpenDB: "TX-OPENDB", OpTxCreateDB: "TX-CREATEDB",
		OpTxRead: "TX-READ", OpTxLoad: "TX-LOAD", OpTxInitDB: "TX-INITDB",
		OpTxStats: "TX-STATS", OpTxCrash: "TX-CRASH", OpTxRecover: "TX-RECOVER",
		Op(99): "OP(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

func TestTxCodeString(t *testing.T) {
	for code, want := range map[TxCode]string{
		TxOK: "OK", TxError: "ERROR", TxBusy: "BUSY", TxConflict: "CONFLICT",
		TxNoTransaction: "NO-TRANSACTION", TxInTransaction: "IN-TRANSACTION",
		TxCrashed: "CRASHED", TxUnrecoverable: "UNRECOVERABLE",
		TxUnknownTx: "UNKNOWN-TX", TxUnknownDB: "UNKNOWN-DB",
		TxBadRequest: "BAD-REQUEST", TxCode(99): "CODE(99)",
	} {
		if got := code.String(); got != want {
			t.Errorf("TxCode(%d).String() = %q, want %q", uint8(code), got, want)
		}
	}
}

func TestTxStatsRoundTrip(t *testing.T) {
	s := TxStats{
		Conns: 3, ConnsTotal: 11, ConnsRejected: 2,
		TxsBegun: 100, TxsCommitted: 90, TxsAborted: 10, TxsInFlight: 4,
		BusyRejected: 7, MalformedFrames: 1,
		Convoys: 30, ConvoyCommits: 90, BatchP50: 2, BatchP99: 9, BatchMax: 12,
		DepthP50: 1, DepthP99: 5, DepthMax: 8,
	}
	got, err := DecodeTxStats(EncodeTxStats(&s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *got != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, s)
	}
	// Truncation at every cut must fail, never panic.
	blob := EncodeTxStats(&s)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeTxStats(blob[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(blob))
		}
	}
}

// TestUntracedFrameBytesUnchanged pins the propagation format's
// compatibility contract: a request without trace context encodes to
// the exact bytes the pre-propagation protocol produced, so enabling
// the tracing code path changes nothing for untraced traffic (and the
// reproduced figures that ride on frame sizes).
func TestUntracedFrameBytesUnchanged(t *testing.T) {
	req := &Request{Op: OpTxSetRange, ID: 11, Tx: 3, Seg: 1, Offset: 64, Size: 32}
	body, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The legacy layout: op(1) seg(4) off(8) len(4) size(8) name(4)
	// data(4) nbatch(4) id(8) tx(8) = 53 bytes, no trace tail.
	if len(body) != 53 {
		t.Fatalf("untraced frame is %d bytes, want the legacy 53", len(body))
	}
	traced := *req
	traced.TraceID, traced.TraceSpan = 5, 9
	tbody, err := EncodeRequest(&traced)
	if err != nil {
		t.Fatalf("encode traced: %v", err)
	}
	if len(tbody) != len(body)+16 {
		t.Fatalf("traced frame is %d bytes, want untraced+16 = %d", len(tbody), len(body)+16)
	}
	if !bytes.Equal(tbody[:len(body)], body) {
		t.Fatal("traced frame does not extend the untraced layout")
	}
	// An old decoder's view: truncating the tail recovers the untraced
	// request — the fields an old peer understands are unchanged.
	got, err := DecodeRequest(tbody[:len(body)])
	if err != nil {
		t.Fatalf("decode truncated: %v", err)
	}
	if !reflect.DeepEqual(*got, *req) {
		t.Errorf("legacy view mismatch:\n got %+v\nwant %+v", *got, *req)
	}
	// A zero TraceID in the tail means untraced: the span id must not
	// leak through.
	zero := *req
	zero.TraceID, zero.TraceSpan = 0, 0
	zbody := append(append([]byte(nil), body...), make([]byte, 16)...)
	gz, err := DecodeRequest(zbody)
	if err != nil {
		t.Fatalf("decode zero tail: %v", err)
	}
	if gz.TraceID != 0 || gz.TraceSpan != 0 {
		t.Errorf("zero trace tail decoded as %d/%d, want 0/0", gz.TraceID, gz.TraceSpan)
	}
}
