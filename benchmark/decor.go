package main

import (
	"sync/atomic"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/wire"
)

// mirrorTransport is everything netram asks of a mirror's transport:
// the Transport interface plus the optional capabilities it
// type-asserts. A decorator that dropped one of them would change the
// path it measures — without BatchWriter netram falls back to one Write
// per range, without Filler recovery ships zero bytes instead of one
// small exchange — so the decorator wraps exactly this set, and the
// assertions below keep it and *transport.TCP in step.
type mirrorTransport interface {
	transport.Transport
	transport.BatchWriter
	transport.Filler
	transport.Prober
	transport.Disconnector
}

var (
	_ mirrorTransport               = (*transport.TCP)(nil)
	_ mirrorTransport               = (*tracedTransport)(nil)
	_ engine.Engine                 = (*tracedEngine)(nil)
	_ engine.TraceBeginner          = (*tracedEngine)(nil)
	_ engine.Tx                     = (*tracedTx)(nil)
	_ interface{ TraceID() uint64 } = (*tracedTx)(nil)
)

// transportCounts are the totals one transport decorator keeps beside
// its spans, so ratios are counted where the work happens even after
// the span buffer fills.
type transportCounts struct {
	Exchanges  uint64 // every forwarded call that costs a round trip
	Writes     uint64 // Write + WriteBatch calls
	WriteBytes uint64 // payload bytes of those
	Entries    uint64 // ranges carried by those
	Reads      uint64
	ReadBytes  uint64
	ReadNS     uint64
	Errors     uint64
}

func (a *transportCounts) add(b transportCounts) {
	a.Exchanges += b.Exchanges
	a.Writes += b.Writes
	a.WriteBytes += b.WriteBytes
	a.Entries += b.Entries
	a.Reads += b.Reads
	a.ReadBytes += b.ReadBytes
	a.ReadNS += b.ReadNS
	a.Errors += b.Errors
}

func (a transportCounts) minus(b transportCounts) transportCounts {
	return transportCounts{
		Exchanges: a.Exchanges - b.Exchanges, Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		Entries: a.Entries - b.Entries, Reads: a.Reads - b.Reads, ReadBytes: a.ReadBytes - b.ReadBytes,
		ReadNS: a.ReadNS - b.ReadNS, Errors: a.Errors - b.Errors,
	}
}

// tracedTransport times every call into one mirror's transport and
// forwards it unchanged.
type tracedTransport struct {
	inner  mirrorTransport
	rec    *recorder
	mirror int

	exchanges, writes, writeBytes, entries atomic.Uint64
	reads, readBytes, readNS, errors       atomic.Uint64
}

func newTracedTransport(inner mirrorTransport, rec *recorder, mirror int) *tracedTransport {
	return &tracedTransport{inner: inner, rec: rec, mirror: mirror}
}

func (t *tracedTransport) counts() transportCounts {
	return transportCounts{
		Exchanges: t.exchanges.Load(), Writes: t.writes.Load(), WriteBytes: t.writeBytes.Load(),
		Entries: t.entries.Load(), Reads: t.reads.Load(), ReadBytes: t.readBytes.Load(),
		ReadNS: t.readNS.Load(), Errors: t.errors.Load(),
	}
}

// done records one finished exchange.
func (t *tracedTransport) done(kind spanKind, start int64, n int, err error) {
	end := nowNS()
	t.rec.add(kind, t.mirror, start, end, 0, n)
	t.exchanges.Add(1)
	if err != nil {
		t.errors.Add(1)
	}
	if kind == kXRead {
		t.readNS.Add(uint64(end - start))
	}
}

func (t *tracedTransport) Write(seg uint32, offset uint64, data []byte) error {
	start := nowNS()
	err := t.inner.Write(seg, offset, data)
	t.writes.Add(1)
	t.entries.Add(1)
	t.writeBytes.Add(uint64(len(data)))
	t.done(kXWrite, start, len(data), err)
	return err
}

func (t *tracedTransport) WriteBatch(writes []transport.BatchWrite) error {
	start := nowNS()
	err := t.inner.WriteBatch(writes)
	n := 0
	for _, w := range writes {
		n += len(w.Data)
	}
	t.writes.Add(1)
	t.entries.Add(uint64(len(writes)))
	t.writeBytes.Add(uint64(n))
	t.done(kXWriteBatch, start, n, err)
	return err
}

func (t *tracedTransport) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	start := nowNS()
	data, err := t.inner.Read(seg, offset, n)
	t.reads.Add(1)
	t.readBytes.Add(uint64(len(data)))
	t.done(kXRead, start, len(data), err)
	return data, err
}

func (t *tracedTransport) Malloc(name string, size uint64) (transport.SegmentHandle, error) {
	start := nowNS()
	h, err := t.inner.Malloc(name, size)
	t.done(kXOther, start, 0, err)
	return h, err
}

func (t *tracedTransport) Free(seg uint32) error {
	start := nowNS()
	err := t.inner.Free(seg)
	t.done(kXOther, start, 0, err)
	return err
}

func (t *tracedTransport) Connect(name string) (transport.SegmentHandle, error) {
	start := nowNS()
	h, err := t.inner.Connect(name)
	t.done(kXOther, start, 0, err)
	return h, err
}

func (t *tracedTransport) Disconnect(seg uint32) error {
	start := nowNS()
	err := t.inner.Disconnect(seg)
	t.done(kXOther, start, 0, err)
	return err
}

func (t *tracedTransport) Fill(seg uint32, offset, n uint64) error {
	start := nowNS()
	err := t.inner.Fill(seg, offset, n)
	t.done(kXOther, start, 0, err)
	return err
}

func (t *tracedTransport) List() ([]wire.SegmentInfo, error) {
	start := nowNS()
	l, err := t.inner.List()
	t.done(kXOther, start, 0, err)
	return l, err
}

func (t *tracedTransport) Ping() error {
	start := nowNS()
	err := t.inner.Ping()
	t.done(kXOther, start, 0, err)
	return err
}

func (t *tracedTransport) Probe() error {
	start := nowNS()
	err := t.inner.Probe()
	t.done(kXOther, start, 0, err)
	return err
}

// Close is not an exchange.
func (t *tracedTransport) Close() error { return t.inner.Close() }

// tracedEngine sits between txserver and the engine it serves, timing
// the four transaction calls. Everything else is forwarded by
// embedding. It forwards engine.TraceBeginner, which txserver
// type-asserts to hand a propagated trace context to the engine, and
// its handles forward the TraceID method txserver type-asserts on the
// transaction, so the server takes the same branches with and without
// the decorator.
type tracedEngine struct {
	engine.Engine
	rec *recorder
	seq atomic.Uint64
}

func newTracedEngine(inner engine.Engine, rec *recorder) *tracedEngine {
	return &tracedEngine{Engine: inner, rec: rec}
}

func (e *tracedEngine) wrap(tx engine.Tx, err error, start int64) (engine.Tx, error) {
	seq := e.seq.Add(1)
	e.rec.add(kEngBegin, 0, start, nowNS(), seq, 0)
	if err != nil {
		return nil, err
	}
	return &tracedTx{inner: tx, rec: e.rec, seq: seq}, nil
}

func (e *tracedEngine) Begin() (engine.Tx, error) {
	start := nowNS()
	tx, err := e.Engine.Begin()
	return e.wrap(tx, err, start)
}

// BeginTraced implements engine.TraceBeginner.
func (e *tracedEngine) BeginTraced(traceID, parentSpan uint64) (engine.Tx, error) {
	start := nowNS()
	var (
		tx  engine.Tx
		err error
	)
	if tb, ok := e.Engine.(engine.TraceBeginner); ok {
		tx, err = tb.BeginTraced(traceID, parentSpan)
	} else {
		tx, err = e.Engine.Begin()
	}
	return e.wrap(tx, err, start)
}

// tracedTx times one engine transaction's calls.
type tracedTx struct {
	inner engine.Tx
	rec   *recorder
	seq   uint64
}

func (t *tracedTx) SetRange(db engine.DB, offset, length uint64) error {
	start := nowNS()
	err := t.inner.SetRange(db, offset, length)
	t.rec.add(kEngSetRange, 0, start, nowNS(), t.seq, int(length))
	return err
}

func (t *tracedTx) Commit() error {
	start := nowNS()
	err := t.inner.Commit()
	t.rec.add(kEngCommit, 0, start, nowNS(), t.seq, 0)
	return err
}

func (t *tracedTx) Abort() error {
	start := nowNS()
	err := t.inner.Abort()
	t.rec.add(kEngAbort, 0, start, nowNS(), t.seq, 0)
	return err
}

// TraceID forwards the engine transaction's trace id (0 when the engine
// has none, which is what txserver assumes for engines without the
// method).
func (t *tracedTx) TraceID() uint64 {
	if tt, ok := t.inner.(interface{ TraceID() uint64 }); ok {
		return tt.TraceID()
	}
	return 0
}
