package wire

// goldenRequests and goldenResponses hold one message per opcode, with
// every field that opcode uses set. testdata/golden_frames.txt holds
// the bytes the free framing functions (WriteFrame over EncodeRequest /
// EncodeResponse) put on the wire for them before the per-connection
// codec replaced those functions; TestGoldenFrames holds the codec to
// the same bytes, so old and new peers interoperate.
var goldenRequests = []Request{
	{Op: OpMalloc, Name: "perseas.meta", Size: 65536},
	{Op: OpFree, Seg: 7},
	{Op: OpWrite, Seg: 3, Offset: 4096, Data: []byte("sixteen byte row")},
	{Op: OpRead, Seg: 3, Offset: 1 << 20, Length: 65536},
	{Op: OpConnect, Name: "perseas.undo.0"},
	{Op: OpList},
	{Op: OpPing},
	{Op: OpStats},
	{Op: OpWriteBatch, Batch: []BatchEntry{
		{Seg: 2, Offset: 0, Data: []byte("undo record")},
		{Seg: 5, Offset: 1 << 33, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Seg: 1, Offset: 24, Data: []byte{0, 0, 0, 0, 0, 0, 0, 42}},
	}},
	{Op: OpDisconnect, Seg: 9},
	{Op: OpTxBegin, ID: 1, TraceID: 0xfeedface, TraceSpan: 17},
	{Op: OpTxSetRange, ID: 2, Tx: 9, Seg: 1, Offset: 64, Size: 32},
	{Op: OpTxCommit, ID: 3, Tx: 9, Batch: []BatchEntry{
		{Seg: 1, Offset: 64, Data: []byte("final bytes of the range 32 long")},
		{Seg: 1, Offset: 4000, Data: nil},
	}},
	{Op: OpTxAbort, ID: 4, Tx: 9},
	{Op: OpTxOpenDB, ID: 5, Name: "accounts"},
	{Op: OpTxCreateDB, ID: 6, Name: "accounts", Size: 1 << 24},
	{Op: OpTxRead, ID: 7, Seg: 1, Offset: 1 << 20, Length: 1 << 20},
	{Op: OpTxLoad, ID: 8, Seg: 1, Offset: 512, Data: []byte("initial image")},
	{Op: OpTxInitDB, ID: 9, Seg: 1},
	{Op: OpTxStats, ID: 10},
	{Op: OpTxCrash, ID: 11, Size: 2},
	{Op: OpTxRecover, ID: 12},
	{Op: OpFill, Seg: 4, Offset: 8192, Size: 1 << 16},
}

// goldenResponses[i] answers goldenRequests[i].
var goldenResponses = []Response{
	{Status: StatusOK, Seg: 11, Size: 65536},
	{Status: StatusError, Err: "memserver: no such segment: id 7"},
	{Status: StatusOK},
	{Status: StatusOK, Data: []byte("bytes read back from the segment")},
	{Status: StatusOK, Seg: 12, Size: 4 << 20},
	{Status: StatusOK, Segments: []SegmentInfo{
		{ID: 1, Size: 65536, Name: "perseas.meta", Conns: 1},
		{ID: 2, Size: 4 << 20, Name: "perseas.undo.0"},
	}},
	{Status: StatusOK},
	{Status: StatusOK, Stats: ServerStats{
		Segments: 3, BytesHeld: 1 << 25, WriteOps: 900, ReadOps: 7,
		BytesWritten: 32600, BytesRead: 458752, Mallocs: 4, Frees: 1,
		Connects: 2, Disconnects: 1, BatchOps: 100,
	}},
	{Status: StatusOK},
	{Status: StatusOK},
	{Status: StatusOK, ID: 1, Tx: 9},
	{Status: StatusOK, ID: 2, Data: []byte("current bytes of the range 32 lo")},
	{Status: StatusOK, ID: 3},
	{Status: StatusError, ID: 4, Code: TxUnknownTx, Err: "txserver: no transaction 9"},
	{Status: StatusOK, ID: 5, Seg: 2, Size: 1 << 24},
	{Status: StatusOK, ID: 6, Seg: 2, Size: 1 << 24},
	{Status: StatusOK, ID: 7, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	{Status: StatusError, ID: 8, Code: TxBadRequest, Err: "txserver: load into initialised database 1 (use transactions)"},
	{Status: StatusOK, ID: 9},
	{Status: StatusOK, ID: 10, Data: EncodeTxStats(&TxStats{Conns: 2, TxsCommitted: 1000, BatchMax: 3})},
	{Status: StatusError, ID: 11, Code: TxError, Err: "txserver: fault injection not enabled"},
	{Status: StatusError, ID: 12, Code: TxCrashed, Err: "core: library crashed"},
	{Status: StatusOK},
}
