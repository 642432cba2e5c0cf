package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// rig wires a Library to in-process mirror nodes.
type rig struct {
	lib     *Library
	net     *netram.Client
	servers []*memserver.Server
	clock   *simclock.SimClock
}

func newRig(t *testing.T, nMirrors int, opts ...Option) *rig {
	t.Helper()
	clock := simclock.NewSim()
	var mirrors []netram.Mirror
	var servers []*memserver.Server
	for i := 0; i < nMirrors; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
		servers = append(servers, srv)
	}
	net, err := netram.NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close) // stops the sender workers, which pin every region
	lib, err := Init(net, clock, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{lib: lib, net: net, servers: servers, clock: clock}
}

// mustCreate makes a db and publishes initial content.
func (r *rig) mustCreate(t *testing.T, name string, size uint64, fill byte) engine.DB {
	t.Helper()
	db, err := r.lib.CreateDB(name, size)
	if err != nil {
		t.Fatal(err)
	}
	buf := db.Bytes()
	for i := range buf {
		buf[i] = fill
	}
	if err := r.lib.InitDB(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// update runs one committed transaction writing data at offset.
func (r *rig) update(t *testing.T, db engine.DB, offset uint64, data []byte) {
	t.Helper()
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, offset, uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[offset:], data)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInitPublishesMetadata(t *testing.T) {
	r := newRig(t, 2)
	for i, srv := range r.servers {
		seg, err := srv.Connect("perseas.meta")
		if err != nil {
			t.Fatalf("mirror %d has no metadata segment: %v", i, err)
		}
		committed, undoSize, _, entries, err := readDirectory(seg.Data)
		if err != nil {
			t.Fatalf("mirror %d: %v", i, err)
		}
		if committed != 0 || undoSize != DefaultUndoLogSize || len(entries) != 0 {
			t.Errorf("mirror %d: committed=%d undo=%d entries=%d",
				i, committed, undoSize, len(entries))
		}
	}
}

func TestInitValidatesSizes(t *testing.T) {
	clock := simclock.NewSim()
	tr, err := transport.NewInProc(memserver.New(), sci.DefaultParams(), clock)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netram.NewClient([]netram.Mirror{{Name: "n", T: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Init(net, clock, WithMetaSize(4)); err == nil {
		t.Error("tiny metadata region should be rejected")
	}
	if _, err := Init(net, clock, WithUndoLogSize(4)); err == nil {
		t.Error("tiny undo log should be rejected")
	}
}

func TestCommitMakesDataVisibleOnMirrors(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "accounts", 1024, 0)
	r.update(t, db, 128, []byte("balance=42"))

	for i, srv := range r.servers {
		seg, err := srv.Connect("perseas.db.accounts")
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Read(seg.ID, 128, 10)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "balance=42" {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}
	if r.lib.CommittedTxID() != 1 {
		t.Errorf("committed txid = %d, want 1", r.lib.CommittedTxID())
	}
}

func TestAbortRestoresLocalData(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 256, 0xAA)
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 10, 20); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[10:], bytes.Repeat([]byte{0xBB}, 20))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAA}, 256)
	if !bytes.Equal(db.Bytes(), want) {
		t.Error("abort did not restore the before-image")
	}
	if r.lib.InTransaction() {
		t.Error("transaction still open after abort")
	}
	if got := r.lib.Stats().Aborted; got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
}

func TestAbortUnwindsOverlappingRangesInReverse(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)
	copy(db.Bytes(), []byte("original"))
	r.update(t, db, 0, []byte("original")) // make "original" the committed state

	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	// First declaration captures "original"; modify; second declaration
	// of an overlapping range captures the modified bytes.
	if err := tx.SetRange(db, 0, 8); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes(), []byte("mutated1"))
	if err := tx.SetRange(db, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes(), []byte("XXXX"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := string(db.Bytes()[:8]); got != "original" {
		t.Errorf("after abort db = %q, want %q (reverse-order unwind)", got, "original")
	}
}

func TestTransactionStateMachine(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)

	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	// A second handle may be opened while the first is still in flight.
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatalf("concurrent begin: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A retired handle rejects every further operation.
	if err := tx.Commit(); !errors.Is(err, engine.ErrNoTransaction) {
		t.Errorf("commit on retired handle: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, engine.ErrNoTransaction) {
		t.Errorf("abort on retired handle: %v", err)
	}
	if err := tx.SetRange(db, 0, 8); !errors.Is(err, engine.ErrNoTransaction) {
		t.Errorf("set_range on retired handle: %v", err)
	}
}

func TestSetRangeValidation(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 60, 8); !errors.Is(err, ErrBadRange) {
		t.Errorf("overflow range: %v", err)
	}
	if err := tx.SetRange(db, 65, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("past-end range: %v", err)
	}
	if err := tx.SetRange(db, 0, 0); err != nil {
		t.Errorf("empty range should be legal: %v", err)
	}
}

func TestUndoLogFull(t *testing.T) {
	r := newRig(t, 1, WithUndoLogSize(256))
	db := r.mustCreate(t, "db", 1024, 0)
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 200); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 200, 200); !errors.Is(err, ErrUndoLogFull) {
		t.Errorf("second range should overflow the 256-byte log: %v", err)
	}
	// The transaction is still consistent: it can be aborted.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDBValidation(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.lib.CreateDB("db", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := r.lib.CreateDB("db", 64); err == nil {
		t.Error("duplicate database name should fail")
	}
	if _, err := r.lib.OpenDB("db"); err != nil {
		t.Errorf("open existing: %v", err)
	}
	if _, err := r.lib.OpenDB("missing"); !errors.Is(err, ErrNoSuchDB) {
		t.Errorf("open missing: %v", err)
	}
}

func TestForeignAndStaleHandles(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}

	other := newRig(t, 1)
	otherDB := other.mustCreate(t, "db", 64, 0)
	if err := tx.SetRange(otherDB, 0, 4); err == nil {
		t.Error("foreign handle should be rejected")
	}
	_ = otherDB

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.lib.Crash(fault.CrashPower); err != nil {
		t.Fatal(err)
	}
	if err := r.lib.Recover(); err != nil {
		t.Fatal(err)
	}
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 0, 4); !errors.Is(err, ErrStaleDB) {
		t.Errorf("stale handle after recovery: %v", err)
	}
}

func TestOperationsFailWhileCrashed(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)
	if err := r.lib.Crash(fault.CrashProcess); err != nil {
		t.Fatal(err)
	}
	if _, err := r.lib.BeginTx(); !errors.Is(err, engine.ErrCrashed) {
		t.Errorf("begin while crashed: %v", err)
	}
	if _, err := r.lib.CreateDB("x", 64); !errors.Is(err, engine.ErrCrashed) {
		t.Errorf("create while crashed: %v", err)
	}
	if err := r.lib.InitDB(db); !errors.Is(err, engine.ErrCrashed) {
		t.Errorf("init while crashed: %v", err)
	}
	if _, err := r.lib.OpenDB("db"); !errors.Is(err, engine.ErrCrashed) {
		t.Errorf("open while crashed: %v", err)
	}
}

func TestRecoverRequiresCrash(t *testing.T) {
	r := newRig(t, 1)
	if err := r.lib.Recover(); err == nil {
		t.Error("recover on a running library should fail")
	}
}

func TestMultiRangeMultiDBTransaction(t *testing.T) {
	r := newRig(t, 2)
	accounts := r.mustCreate(t, "accounts", 512, 0)
	branches := r.mustCreate(t, "branches", 512, 0)

	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(accounts, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(branches, 100, 8); err != nil {
		t.Fatal(err)
	}
	copy(accounts.Bytes()[0:], []byte("acct=100"))
	copy(branches.Bytes()[100:], []byte("brch=100"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, srv := range r.servers {
		segA, err := srv.Connect("perseas.db.accounts")
		if err != nil {
			t.Fatal(err)
		}
		gotA, _ := srv.Read(segA.ID, 0, 8)
		segB, err := srv.Connect("perseas.db.branches")
		if err != nil {
			t.Fatal(err)
		}
		gotB, _ := srv.Read(segB.ID, 100, 8)
		if string(gotA) != "acct=100" || string(gotB) != "brch=100" {
			t.Errorf("mirror %s: %q / %q", srv.Label(), gotA, gotB)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("abcd"))
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	st := r.lib.Stats()
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 || st.SetRanges != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesLogged != 8 {
		t.Errorf("BytesLogged = %d, want 8", st.BytesLogged)
	}
}

func TestReviveMirrorEndToEnd(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("first"))

	// Mirror 1 dies; the next commit degrades it and proceeds.
	r.servers[1].Crash()
	r.update(t, db, 0, []byte("while-down"))
	if got := r.net.Live(); got != 1 {
		t.Fatalf("Live = %d, want 1", got)
	}

	// Mid-transaction revival is refused.
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.lib.ReviveMirror(1); !errors.Is(err, engine.ErrInTransaction) {
		t.Errorf("mid-tx revive: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Node repaired: reintegrate, then verify a primary crash can now
	// recover from the revived mirror alone.
	r.servers[1].Restart()
	if err := r.lib.ReviveMirror(1); err != nil {
		t.Fatal(err)
	}
	r.update(t, db, 0, []byte("after-join"))
	r.servers[0].Crash() // the OTHER mirror dies this time
	r.crashAndRecover(t)
	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:10]); got != "after-join" {
		t.Errorf("recovered %q via revived mirror", got)
	}
}

func TestConcurrentRangeConflict(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 128, 0)

	tx1, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.SetRange(db, 0, 16); err != nil {
		t.Fatal(err)
	}
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping another transaction's declared range is refused …
	if err := tx2.SetRange(db, 8, 16); !errors.Is(err, engine.ErrConflict) {
		t.Errorf("overlapping range across transactions: %v", err)
	}
	// … but a disjoint range proceeds, and the same transaction may
	// re-declare its own range freely.
	if err := tx2.SetRange(db, 64, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx1.SetRange(db, 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.lib.Stats().Conflicts; got != 1 {
		t.Errorf("conflicts = %d, want 1", got)
	}

	// The aborted transaction's claims are released: a fresh handle can
	// take the contested range.
	tx3, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.SetRange(db, 0, 16); err != nil {
		t.Fatalf("range should be free after abort: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallTransactionLatencyMatchesFigure6(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 1<<20, 0)
	r.update(t, db, 0, []byte{1, 2, 3, 4}) // warm up

	t0 := r.clock.Now()
	const txs = 100
	for i := 0; i < txs; i++ {
		r.update(t, db, uint64(i*64), []byte{1, 2, 3, 4})
	}
	perTx := (r.clock.Now() - t0) / txs
	// Fig. 6: very small transactions complete in under ~10 us,
	// sustaining on the order of 100k transactions per second.
	if perTx > 12_000 { // nanoseconds
		t.Errorf("small transaction costs %v, want ~10us", perTx)
	}
	if perTx < 5_000 {
		t.Errorf("small transaction costs %v — suspiciously cheaper than 3 copies + commit word", perTx)
	}
}
