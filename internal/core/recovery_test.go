package core

import (
	"bytes"
	"testing"

	"github.com/ics-forth/perseas/internal/fault"
)

// crashAndRecover simulates a primary failure and runs recovery.
func (r *rig) crashAndRecover(t *testing.T) {
	t.Helper()
	if err := r.lib.Crash(fault.CrashPower); err != nil {
		t.Fatal(err)
	}
	if err := r.lib.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverCommittedState(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 512, 0x11)
	r.update(t, db, 100, []byte("committed!"))

	r.crashAndRecover(t)

	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[100:110]); got != "committed!" {
		t.Errorf("recovered %q, want %q", got, "committed!")
	}
	// The untouched bytes carry the initial fill.
	if re.Bytes()[0] != 0x11 || re.Bytes()[511] != 0x11 {
		t.Error("recovered database lost its initial content")
	}
	if r.lib.Stats().Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", r.lib.Stats().Recoveries)
	}
}

func TestRecoverRollsBackInFlightTransaction(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 512, 0)
	r.update(t, db, 0, []byte("stable"))

	// Start a transaction and crash mid-commit, after its undo records
	// and its updates reached the remote database but before the commit
	// word did: Prepare is exactly that first half of Commit.
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("BROKEN"))
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range r.servers {
		seg, err := srv.Connect("perseas.db.db")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(seg.Data[:6]); got != "BROKEN" {
			t.Fatalf("mirror %s holds %q; the test needs a half-committed transaction", srv.Label(), got)
		}
	}

	r.crashAndRecover(t)

	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:6]); got != "stable" {
		t.Errorf("recovered %q, want rolled-back %q", got, "stable")
	}
	// The mirrors were repaired too.
	for _, srv := range r.servers {
		seg, err := srv.Connect("perseas.db.db")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := srv.Read(seg.ID, 0, 6)
		if string(got) != "stable" {
			t.Errorf("mirror %s holds %q after recovery", srv.Label(), got)
		}
	}
}

func TestRecoverUncommittedNotPropagated(t *testing.T) {
	// Crash with an open transaction whose updates never left the local
	// node: the remote database is already legal; recovery must keep
	// the committed state.
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("good"))

	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("evil"))
	// No pushes: crash strikes before commit.
	r.crashAndRecover(t)

	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:4]); got != "good" {
		t.Errorf("recovered %q, want %q", got, "good")
	}
}

func TestRecoverAfterCommitKeepsNewState(t *testing.T) {
	// Crash immediately after a successful commit: the new state is
	// durable.
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("v1"))
	r.update(t, db, 0, []byte("v2"))

	r.crashAndRecover(t)
	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:2]); got != "v2" {
		t.Errorf("recovered %q, want %q", got, "v2")
	}
}

func TestRecoverAfterAbortThenCrash(t *testing.T) {
	// An aborted transaction leaves stale records with fresh ids in the
	// remote undo log. A crash before the next commit must still
	// recover the committed state (applying those records is harmless —
	// their before-images equal the committed data).
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("keep"))

	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("temp"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	r.crashAndRecover(t)
	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:4]); got != "keep" {
		t.Errorf("recovered %q, want %q", got, "keep")
	}

	// The library keeps working after recovery.
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(re, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(re.Bytes()[0:], []byte("next"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverMultipleDatabases(t *testing.T) {
	r := newRig(t, 2)
	a := r.mustCreate(t, "alpha", 128, 1)
	b := r.mustCreate(t, "beta", 256, 2)
	c := r.mustCreate(t, "gamma", 64, 3)
	r.update(t, a, 0, []byte("AAAA"))
	r.update(t, b, 10, []byte("BBBB"))
	r.update(t, c, 20, []byte("CCCC"))

	r.crashAndRecover(t)

	for _, tc := range []struct {
		name   string
		size   uint64
		offset uint64
		want   string
		fill   byte
	}{
		{"alpha", 128, 0, "AAAA", 1},
		{"beta", 256, 10, "BBBB", 2},
		{"gamma", 64, 20, "CCCC", 3},
	} {
		db, err := r.lib.OpenDB(tc.name)
		if err != nil {
			t.Fatalf("open %s: %v", tc.name, err)
		}
		if db.Size() != tc.size {
			t.Errorf("%s size = %d, want %d", tc.name, db.Size(), tc.size)
		}
		if got := string(db.Bytes()[tc.offset : tc.offset+4]); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, got, tc.want)
		}
		if db.Bytes()[tc.size-1] != tc.fill {
			t.Errorf("%s lost its fill byte", tc.name)
		}
	}
}

func TestRecoverPreservesTxIDMonotonicity(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 64, 0)
	r.update(t, db, 0, []byte("a")) // tx 1
	r.update(t, db, 1, []byte("b")) // tx 2

	// In-flight tx 3 crashes mid-commit: its records are on the mirror,
	// its commit word is not.
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	r.crashAndRecover(t)

	if got := r.lib.CommittedTxID(); got != 2 {
		t.Errorf("committed = %d, want 2", got)
	}
	// The next transaction must not reuse id 3's records ambiguously:
	// its id must exceed every id seen in the log.
	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(re, 0, 2); err != nil {
		t.Fatal(err)
	}
	copy(re.Bytes(), []byte("zz"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.lib.CommittedTxID(); got != 4 {
		t.Errorf("committed after recovery-following tx = %d, want 4 (skipping in-flight id 3)", got)
	}
}

func TestAttachFromFreshNode(t *testing.T) {
	// The paper: the database may be reconstructed quickly in ANY
	// workstation of the network. Build a brand-new library instance
	// (fresh process) over the same mirrors and take over.
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 128, 0)
	r.update(t, db, 0, []byte("takeover"))

	// The original primary silently dies; a different node attaches.
	takeover, err := Attach(r.net, r.clock)
	if err != nil {
		t.Fatal(err)
	}
	re, err := takeover.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:8]); got != "takeover" {
		t.Errorf("attached node sees %q", got)
	}
	// And it can process new transactions.
	tx, err := takeover.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(re, 0, 8); err != nil {
		t.Fatal(err)
	}
	copy(re.Bytes(), []byte("newboss!"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithOneMirrorDown(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 128, 0)
	r.update(t, db, 0, []byte("redundant"))

	r.servers[0].Crash()
	r.crashAndRecover(t)

	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:9]); got != "redundant" {
		t.Errorf("recovered %q via surviving mirror", got)
	}
}

func TestRecoverFailsWhenAllMirrorsDown(t *testing.T) {
	r := newRig(t, 2)
	_ = r.mustCreate(t, "db", 128, 0)
	for _, srv := range r.servers {
		srv.Crash()
	}
	if err := r.lib.Crash(fault.CrashPower); err != nil {
		t.Fatal(err)
	}
	if err := r.lib.Recover(); err == nil {
		t.Error("recovery with every mirror down must fail")
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 64, 0)
	want := make([]byte, 8)
	for i := 0; i < 5; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 8)
		r.update(t, db, 0, payload)
		copy(want, payload)
		r.crashAndRecover(t)
		re, err := r.lib.OpenDB("db")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !bytes.Equal(re.Bytes()[:8], want) {
			t.Fatalf("cycle %d: recovered %q, want %q", i, re.Bytes()[:8], want)
		}
		db = re
	}
}
