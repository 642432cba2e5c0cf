package main

import (
	"testing"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/memserver"
)

// serverSideWork runs n transactions of a one-client workload on a
// fresh rig (traced when rec is not nil) and returns what the mirrors
// and the library counted for them.
func serverSideWork(t *testing.T, mk func() txWorkload, rec *recorder, n int) (memserver.Stats, uint64, uint64) {
	t.Helper()
	w := mk()
	w.generate(5)
	r, err := newRig(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if w.remote() {
		if err := r.openFrontDoor(w.clients()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.load(r); err != nil {
		t.Fatal(err)
	}
	var tr *callTracer
	if rec != nil {
		rec.all()
		tr = &callTracer{rec: rec}
	}
	before, ramBefore := r.memStats(), r.link.ram.Stats()
	for i := 0; i < n; i++ {
		if err := w.step(0, tr); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
	}
	after, ramAfter := r.memStats(), r.link.ram.Stats()
	return memserver.Stats{
		WriteOps: after.WriteOps - before.WriteOps, BatchOps: after.BatchOps - before.BatchOps,
		BytesWritten: after.BytesWritten - before.BytesWritten,
		ReadOps:      after.ReadOps - before.ReadOps, BytesRead: after.BytesRead - before.BytesRead,
	}, ramAfter.Pushes - ramBefore.Pushes, ramAfter.WireBytes - ramBefore.WireBytes
}

// TestDecoratorsDoNotChangeThePath: the same seed, with and without the
// transport and engine decorators, must put exactly the same operations
// and bytes on the mirrors. A decorator that hid transport.BatchWriter
// would show here as four writes where one batch was, one that hid the
// engine's optional interfaces as a different call sequence.
func TestDecoratorsDoNotChangeThePath(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name string
		mk   func() txWorkload
	}{
		{"lib-debitcredit", func() txWorkload { return newDebitCredit(1, false) }},
		{"remote-debitcredit (one client)", func() txWorkload { return newDebitCredit(1, true) }},
		{"remote-bulk", func() txWorkload { return newBulk(4 << 20) }},
	} {
		plain, plainPushes, plainWire := serverSideWork(t, tc.mk, nil, n)
		rec := newRecorder(1 << 16)
		traced, tracedPushes, tracedWire := serverSideWork(t, tc.mk, rec, n)
		if plain != traced {
			t.Errorf("%s: mirrors saw %+v untraced and %+v traced", tc.name, plain, traced)
		}
		if plainPushes != tracedPushes || plainWire != tracedWire {
			t.Errorf("%s: netram pushed %d times / %d bytes untraced, %d / %d traced", tc.name, plainPushes, plainWire, tracedPushes, tracedWire)
		}
		if plain.WriteOps == 0 || plain.BytesWritten == 0 {
			t.Errorf("%s: the mirrors saw no writes at all: %+v", tc.name, plain)
		}
		// And the decorators did see the traffic they forwarded.
		var writes, batches, engCommits int
		for _, s := range rec.spans() {
			switch s.Kind {
			case kXWrite:
				writes++
			case kXWriteBatch:
				batches++
			case kEngCommit:
				engCommits++
			}
		}
		if uint64(writes)+uint64(batches) == 0 {
			t.Errorf("%s: the transport decorator recorded nothing", tc.name)
		}
		if tc.name == "lib-debitcredit" && uint64(batches) != plain.BatchOps {
			t.Errorf("%s: decorator forwarded %d batches, mirrors applied %d", tc.name, batches, plain.BatchOps)
		}
		if tc.name != "lib-debitcredit" && engCommits != n {
			t.Errorf("%s: the engine decorator saw %d commits, want %d", tc.name, engCommits, n)
		}
	}
}

// fakeEngine records which of the two Begin variants the decorator
// forwarded to.
type fakeEngine struct {
	engine.Engine
	begins         int
	tracedBegins   int
	traceID, pspan uint64
}

type fakeTx struct{ engine.Tx }

func (fakeTx) TraceID() uint64 { return 42 }

func (f *fakeEngine) Begin() (engine.Tx, error) { f.begins++; return fakeTx{}, nil }
func (f *fakeEngine) BeginTraced(traceID, parentSpan uint64) (engine.Tx, error) {
	f.tracedBegins++
	f.traceID, f.pspan = traceID, parentSpan
	return fakeTx{}, nil
}

// plainEngine has neither optional method.
type plainEngine struct{ engine.Engine }

type plainTx struct{ engine.Tx }

func (plainEngine) Begin() (engine.Tx, error) { return plainTx{}, nil }

func TestEngineDecoratorForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder(64)
	rec.all()
	inner := &fakeEngine{}
	var eng engine.Engine = newTracedEngine(inner, rec)

	// txserver type-asserts engine.TraceBeginner on the engine...
	tb, ok := eng.(engine.TraceBeginner)
	if !ok {
		t.Fatal("the engine decorator hides engine.TraceBeginner")
	}
	tx, err := tb.BeginTraced(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if inner.tracedBegins != 1 || inner.begins != 0 || inner.traceID != 7 || inner.pspan != 9 {
		t.Errorf("BeginTraced(7, 9) reached the engine as %+v", inner)
	}
	// ...and a TraceID method on the transaction.
	tid, ok := tx.(interface{ TraceID() uint64 })
	if !ok {
		t.Fatal("the transaction decorator hides TraceID")
	}
	if got := tid.TraceID(); got != 42 {
		t.Errorf("TraceID() = %d, want the engine's 42", got)
	}
	if _, err := eng.Begin(); err != nil || inner.begins != 1 {
		t.Errorf("Begin reached the engine %d times (err %v)", inner.begins, err)
	}

	// Over an engine with neither, the decorator degrades the way
	// txserver itself would: plain Begin, trace id 0.
	plain := newTracedEngine(plainEngine{}, rec)
	ptx, err := plain.BeginTraced(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := ptx.(interface{ TraceID() uint64 }).TraceID(); got != 0 {
		t.Errorf("TraceID() over an engine without one = %d, want 0", got)
	}
	if got := len(rec.spans()); got != 3 {
		t.Errorf("recorded %d engine.begin spans, want 3", got)
	}
}
