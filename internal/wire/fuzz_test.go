package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// flip inverts every byte of b.
func flip(b []byte) {
	for i := range b {
		b[i] ^= 0xFF
	}
}

// FuzzDecodeRequest exercises the request decoder with arbitrary bytes;
// it must never panic and every successfully decoded request must
// re-encode losslessly. The decoder works in place, so the fuzzer also
// holds it to its aliasing contract: the result equals a deep copy
// taken of it, whether decoded into a fresh or a reused Request, and
// overwriting the body afterwards changes Data and Batch[i].Data — byte
// for byte — and nothing else.
func FuzzDecodeRequest(f *testing.F) {
	seed, _ := EncodeRequest(&Request{Op: OpWrite, Seg: 3, Offset: 64, Data: []byte("abc")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	// Transaction-service shapes: pipelined ids, tx handles, a commit
	// batch, and the fault ops.
	txSeeds := []*Request{
		{Op: OpTxBegin, ID: 1},
		{Op: OpTxSetRange, ID: 2, Tx: 9, Seg: 1, Offset: 64, Size: 32},
		{Op: OpTxCommit, ID: 3, Tx: 9, Batch: []BatchEntry{{Seg: 1, Offset: 64, Data: []byte("xy")}}},
		{Op: OpTxAbort, ID: 4, Tx: 9},
		{Op: OpTxOpenDB, ID: 5, Name: "db"},
		{Op: OpTxCreateDB, ID: 6, Name: "db", Size: 4096},
		{Op: OpTxRead, ID: 7, Seg: 1, Offset: 0, Length: 128},
		{Op: OpTxLoad, ID: 8, Seg: 1, Offset: 0, Data: []byte("seed")},
		{Op: OpTxInitDB, ID: 9, Seg: 1},
		{Op: OpTxStats, ID: 10},
		{Op: OpTxCrash, ID: 11, Size: 2},
		{Op: OpTxRecover, ID: 12},
	}
	for _, req := range txSeeds {
		s, _ := EncodeRequest(req)
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		deep := cloneRequest(req)
		reused := Request{Op: OpTxCommit, Name: "stale", Data: []byte("stale"), TraceID: 9,
			Batch: make([]BatchEntry, 3, 8)}
		if err := reused.decode(bytes.Clone(body)); err != nil || !sameRequest(&reused, &deep) {
			t.Fatalf("decode into a reused request diverged (%v): %+v vs %+v", err, reused, deep)
		}
		flip(body)
		flipped := cloneRequest(&deep)
		flip(flipped.Data)
		for _, e := range flipped.Batch {
			flip(e.Data)
		}
		if !sameRequest(req, &flipped) {
			t.Fatalf("overwriting the body changed more than the aliasing fields: %+v vs %+v", req, flipped)
		}
		flip(body)
		if !sameRequest(req, &deep) {
			t.Fatalf("in-place decode is not its deep copy: %+v vs %+v", req, deep)
		}
		out, err := EncodeRequest(req)
		if err != nil {
			// Decoded values can exceed encoder limits only via the
			// name-length guard, which the decoder enforces too.
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		again, err := DecodeRequest(out)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if again.Op != req.Op || again.Seg != req.Seg || again.Offset != req.Offset ||
			again.Length != req.Length || again.Size != req.Size || again.Name != req.Name ||
			again.ID != req.ID || again.Tx != req.Tx ||
			!bytes.Equal(again.Data, req.Data) {
			t.Fatalf("round trip diverged: %+v vs %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is the response-side twin; only Data aliases.
func FuzzDecodeResponse(f *testing.F) {
	seed, _ := EncodeResponse(&Response{Status: StatusOK, Segments: []SegmentInfo{{ID: 1, Size: 64, Name: "x"}}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	txOK, _ := EncodeResponse(&Response{Status: StatusOK, ID: 42, Tx: 7})
	f.Add(txOK)
	busy, _ := EncodeResponse(&Response{Status: StatusError, ID: 43, Code: TxBusy, Err: "busy"})
	f.Add(busy)
	stats, _ := EncodeResponse(&Response{Status: StatusOK, ID: 44, Data: EncodeTxStats(&TxStats{Conns: 3})})
	f.Add(stats)
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		deep := *resp
		deep.Data = bytes.Clone(resp.Data)
		deep.Segments = append([]SegmentInfo(nil), resp.Segments...)
		reused := Response{Status: StatusError, Err: "stale", Data: []byte("stale"),
			Segments: []SegmentInfo{{Name: "stale"}}, Code: TxBusy}
		if err := reused.decode(bytes.Clone(body)); err != nil || !reflect.DeepEqual(reused, deep) {
			t.Fatalf("decode into a reused response diverged (%v): %+v vs %+v", err, reused, deep)
		}
		flip(body)
		flipped := deep
		flipped.Data = bytes.Clone(deep.Data)
		flip(flipped.Data)
		if !reflect.DeepEqual(*resp, flipped) {
			t.Fatalf("overwriting the body changed more than Data: %+v vs %+v", *resp, flipped)
		}
		flip(body)
		if !reflect.DeepEqual(*resp, deep) {
			t.Fatalf("in-place decode is not its deep copy: %+v vs %+v", *resp, deep)
		}
		out, err := EncodeResponse(resp)
		if err != nil {
			if len(resp.Segments) == 0 {
				t.Fatalf("decoded response failed to re-encode: %v", err)
			}
			return
		}
		again, err := DecodeResponse(out)
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if again.Status != resp.Status || again.ID != resp.ID ||
			again.Tx != resp.Tx || again.Code != resp.Code {
			t.Fatalf("round trip diverged: %+v vs %+v", again, resp)
		}
	})
}

// FuzzDecodeTxStats exercises the stats-blob decoder: arbitrary bytes
// must yield a value or an error, never a panic, and every decoded
// value must round-trip.
func FuzzDecodeTxStats(f *testing.F) {
	f.Add(EncodeTxStats(&TxStats{Conns: 2, Convoys: 9, BatchMax: 4}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7F}, 200))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeTxStats(body)
		if err != nil {
			return
		}
		again, err := DecodeTxStats(EncodeTxStats(s))
		if err != nil {
			t.Fatalf("re-encoded stats failed to decode: %v", err)
		}
		if *again != *s {
			t.Fatalf("round trip diverged: %+v vs %+v", again, s)
		}
	})
}
