package core

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// The commit-path suite. A transaction is one ordered batch per mirror —
// its undo records, its ranges, its commit word — joined once, and
// SetRange is purely local. The suite pins that shape with a counting
// transport and then kills the primary after every individual entry of
// the batch, on each mirror independently, on two mirrors at once, and
// with the mirror itself dying at the cut, and demands that recovery
// lands on a state the transaction's caller could have been told about.

// cutRig is a library over n in-process mirrors, each behind its own
// cutTransport with a private counter: cuts[i].writes counts mirror i's
// writes, and setting cuts[i].failFrom before a push cuts mirror i's
// link at that write.
type cutRig struct {
	lib     *Library
	net     *netram.Client
	servers []*memserver.Server
	clock   *simclock.SimClock
	cuts    []*cutTransport
}

func newCutRig(t *testing.T, n, q int, torn bool, opts ...Option) *cutRig {
	t.Helper()
	r := &cutRig{clock: simclock.NewSim()}
	var mirrors []netram.Mirror
	for i := 0; i < n; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), r.clock)
		if err != nil {
			t.Fatal(err)
		}
		cut := &cutTransport{Transport: tr, writes: new(atomic.Int64), failFrom: math.MaxInt64, torn: torn}
		r.servers = append(r.servers, srv)
		r.cuts = append(r.cuts, cut)
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: cut})
	}
	var nopts []netram.Option
	if q > 0 {
		nopts = append(nopts, netram.WithQuorum(q))
	}
	net, err := netram.NewClient(mirrors, nopts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	r.net = net
	// A small undo log keeps the Attach after every cut cheap.
	r.lib, err = Init(net, r.clock, append([]Option{WithUndoLogSize(8 << 10)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// counts snapshots every mirror's write counter.
func (r *cutRig) counts() []int64 {
	out := make([]int64, len(r.cuts))
	for i, c := range r.cuts {
		out[i] = c.writes.Load()
	}
	return out
}

// debitCredit is the TPC-B shape the benchmark commits: three 8-byte
// balances and one 50-byte history row alone in its 64-byte slot.
var debitCredit = [][2]uint64{{8, 8}, {200, 8}, {400, 8}, {512, 50}}

// declare opens a transaction on db, declares the debit-credit ranges
// and fills them with fill.
func declare(t *testing.T, lib *Library, db *Database, fill byte) *Tx {
	t.Helper()
	tx, err := lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range debitCredit {
		if err := tx.SetRange(db, rg[0], rg[1]); err != nil {
			t.Fatal(err)
		}
		for i := rg[0]; i < rg[0]+rg[1]; i++ {
			db.Bytes()[i] = fill
		}
	}
	return tx
}

// TestSetRangeSendsNothing pins the contract the commit path is built
// on: SetRange is a claim and a local copy — no mirror write, no
// allocation once warm — and Commit is exactly one write exchange per
// mirror, carrying the undo records, the ranges and the commit word.
// Without remote undo (the ablation's unsafe arm) the batch is shorter,
// not rarer. The two-phase form is two: Prepare's batch, then the word.
func TestSetRangeSendsNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      []Option
		prepared  bool
		exchanges int64
	}{
		{"remote-undo", nil, false, 1},
		{"no-remote-undo", []Option{WithUnsafeNoRemoteUndo()}, false, 1},
		{"prepare-then-word", nil, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCutRig(t, 2, 0, false, tc.opts...)
			edb, err := r.lib.CreateDB("bank", 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.lib.InitDB(edb); err != nil {
				t.Fatal(err)
			}
			db := edb.(*Database)
			finish := commitShape{prepared: tc.prepared}.finish
			for i := 0; i < 8; i++ { // also warms slot, scratch and pools
				before := r.counts()
				tx := declare(t, r.lib, db, byte(i))
				for m, n := range r.counts() {
					if n != before[m] {
						t.Errorf("mirror %d saw %d writes across %d SetRanges, want 0", m, n-before[m], len(debitCredit))
					}
				}
				if err := finish(tx); err != nil {
					t.Fatal(err)
				}
				for m, n := range r.counts() {
					if n-before[m] != tc.exchanges {
						t.Errorf("mirror %d saw %d write exchanges per transaction, want %d", m, n-before[m], tc.exchanges)
					}
				}
			}
			if raceEnabled {
				return // race-detector instrumentation allocates
			}
			var tx *Tx
			if n := testing.AllocsPerRun(100, func() {
				if tx != nil {
					if err := finish(tx); err != nil {
						t.Fatal(err)
					}
				}
				tx = declare(t, r.lib, db, 0x5a)
			}); n != 0 {
				t.Errorf("Begin, %d SetRanges and the previous commit allocate %.1f objects per run, want 0", len(debitCredit), n)
			}
			if err := finish(tx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortedRecordsNeverRollBackALaterCommit: an aborted transaction's
// undo records must not survive, valid, at the head of a remote log. If
// they did, a crash before the slot's next commit would "roll back" the
// aborted transaction — copying its stale before-images over whatever
// another transaction, in another slot, has committed to those bytes
// since the abort released them. Abort retires the log instead.
func TestAbortedRecordsNeverRollBackALaterCommit(t *testing.T) {
	for _, sent := range []bool{false, true} {
		name := "records-never-sent"
		if sent {
			name = "records-sent-by-prepare"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 2)
			db := r.mustCreate(t, "db", 256, 0)
			r.update(t, db, 0, []byte("base"))

			aborted, err := r.lib.BeginTx() // slot 0
			if err != nil {
				t.Fatal(err)
			}
			winner, err := r.lib.BeginTx() // slot 1
			if err != nil {
				t.Fatal(err)
			}
			if err := aborted.SetRange(db, 0, 4); err != nil {
				t.Fatal(err)
			}
			copy(db.Bytes(), "AAAA")
			if sent {
				if err := aborted.Prepare(); err != nil {
					t.Fatal(err)
				}
			}
			if err := aborted.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := winner.SetRange(db, 0, 4); err != nil {
				t.Fatal(err)
			}
			copy(db.Bytes(), "BBBB")
			if err := winner.Commit(); err != nil {
				t.Fatal(err)
			}
			if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
				t.Fatalf("VerifyAll before the crash: %v %v", mm, err)
			}

			r.crashAndRecover(t)
			re, err := r.lib.OpenDB("db")
			if err != nil {
				t.Fatal(err)
			}
			if got := string(re.Bytes()[:4]); got != "BBBB" {
				t.Errorf("recovered %q: the aborted transaction's stale before-image rolled back a later commit", got)
			}
		})
	}
}

// commitShape is one way a debit-credit transaction reaches its commit
// point.
type commitShape struct {
	name     string
	mirrors  int
	q        int
	prepared bool // Prepare then CommitPrepared instead of Commit
}

// finish drives tx through the shape's commit path.
func (s commitShape) finish(tx *Tx) error {
	if !s.prepared {
		return tx.Commit()
	}
	if err := tx.Prepare(); err != nil {
		return err
	}
	return tx.CommitPrepared()
}

// crashPointRig builds the shape's rig with one committed transaction
// behind it and the transaction under test declared and scribbled, and
// returns the database images without and with it.
func crashPointRig(t *testing.T, s commitShape) (r *cutRig, tx *Tx, before, after []byte) {
	t.Helper()
	r = newCutRig(t, s.mirrors, s.q, true)
	edb, err := r.lib.CreateDB("bank", 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edb.Bytes() {
		edb.Bytes()[i] = 0x44
	}
	if err := r.lib.InitDB(edb); err != nil {
		t.Fatal(err)
	}
	db := edb.(*Database)
	if err := declare(t, r.lib, db, 0x01).Commit(); err != nil {
		t.Fatal(err)
	}
	r.net.WaitCatchUp()
	before = append([]byte(nil), db.Bytes()...)
	tx = declare(t, r.lib, db, 0x02)
	after = append([]byte(nil), db.Bytes()...)
	return r, tx, before, after
}

// checkCrashPoint attaches a fresh node to servers and returns every
// invariant the recovered state breaks:
//
//	I1 a transaction whose commit returned nil is present, and the
//	   database is never anything but the image without it or with it;
//	I3 VerifyAll is clean — undo slots and metadata included — so every
//	   mirror is byte-identical to the recovered primary;
//	I4 no transaction, undo slot or range claim leaked, and the next
//	   transaction commits.
func checkCrashPoint(t *testing.T, s commitShape, servers []*memserver.Server, clock simclock.Clock, committed bool, before, after []byte) []string {
	t.Helper()
	var bad []string
	lib, net := attachParallel(t, servers, clock, s.q, 1, nil)
	defer net.Close()
	edb, err := lib.OpenDB("bank")
	if err != nil {
		t.Fatal(err)
	}
	db := edb.(*Database)
	switch got := db.Bytes(); {
	case bytes.Equal(got, after):
	case committed:
		bad = append(bad, "I1: the commit returned nil and the transaction is gone")
	case !bytes.Equal(got, before):
		bad = append(bad, "I1: the database holds part of a transaction")
	}
	if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
		bad = append(bad, fmt.Sprintf("I3: mirrors differ from the recovered primary: %v %v", mm, err))
	}
	if lib.InTransaction() || lib.ConflictOccupancy() != 0 {
		bad = append(bad, "I4: recovery left a transaction or a range claim behind")
	}
	for _, slot := range lib.slots {
		if slot.busy {
			bad = append(bad, fmt.Sprintf("I4: undo slot %d is still busy", slot.idx))
		}
	}
	if err := declare(t, lib, db, 0x03).Commit(); err != nil {
		bad = append(bad, fmt.Sprintf("I4: the next transaction does not commit: %v", err))
	}
	return bad
}

// crashCut is one mirror's fate in a crash point: it takes exactly k of
// the transaction's writes and its link fails. With dies the node itself
// goes with the link — pings and reads fail too, so the primary degrades
// it and commits on the others — and with heals it is back, memory
// intact, before the new node attaches.
type crashCut struct {
	mirror      int
	k           int64
	dies, heals bool
}

// runCrashPoint commits the shape's transaction against cuts, lets the
// primary die, attaches a fresh node to all mirrors and fails on every
// invariant the recovered state breaks.
func runCrashPoint(t *testing.T, s commitShape, cuts ...crashCut) {
	t.Helper()
	r, tx, before, after := crashPointRig(t, s)
	for _, c := range cuts {
		ct, srv := r.cuts[c.mirror], r.servers[c.mirror]
		ct.failFrom = ct.writes.Load() + c.k + 1
		if c.dies {
			ct.onCut = srv.Partition
		}
	}
	err := s.finish(tx)
	r.net.WaitCatchUp()
	for _, c := range cuts {
		if ct := r.cuts[c.mirror]; err == nil && ct.writes.Load() < ct.failFrom {
			t.Fatalf("the cut at write %d of mirror %d was never reached", c.k, c.mirror)
		}
		if c.heals {
			r.servers[c.mirror].Heal()
		}
	}
	if bad := checkCrashPoint(t, s, r.servers, r.clock, err == nil, before, after); len(bad) != 0 {
		t.Errorf("commit returned %v; after recovery: %v", err, bad)
	}
}

// TestCommitCrashPoints kills the primary after every individual mirror
// write of a debit-credit transaction — one batch of four undo entries,
// four range entries and the commit word, torn entry by entry; under
// Prepare/CommitPrepared a batch of eight and the word — in three
// enumerations:
//
//   - each mirror independently: mirror m takes exactly k of the writes
//     and its link fails (the node keeps answering pings, so the primary
//     does not quietly degrade it), the other mirrors take the whole
//     batch;
//   - vector cuts: two mirrors torn in the same batch, at every pair of
//     prefixes;
//   - mirror death: the node dies at the cut, the primary degrades it
//     and may commit on the survivors, and the node stays dead or comes
//     back with its torn prefix before recovery.
//
// The commit call returns what it returns, the primary is gone, and a
// fresh node attaches to all mirrors.
func TestCommitCrashPoints(t *testing.T) {
	const perMirror = 9 // 4 undo entries + 4 range entries + the word
	for _, s := range []commitShape{
		{name: "all-ack", mirrors: 2},
		{name: "quorum-2of3", mirrors: 3, q: 2},
		{name: "prepared-all-ack", mirrors: 2, prepared: true},
		{name: "prepared-quorum-2of3", mirrors: 3, q: 2, prepared: true},
	} {
		t.Run(s.name, func(t *testing.T) {
			// Uncut, the transaction is exactly the op sequence the cuts
			// below walk through, and recovery keeps it.
			r, tx, before, after := crashPointRig(t, s)
			base := r.counts()
			if err := s.finish(tx); err != nil {
				t.Fatal(err)
			}
			r.net.WaitCatchUp()
			for i, n := range r.counts() {
				if n-base[i] != perMirror {
					t.Fatalf("mirror %d took %d writes for the transaction, want %d", i, n-base[i], perMirror)
				}
			}
			if bad := checkCrashPoint(t, s, r.servers, r.clock, true, before, after); len(bad) != 0 {
				t.Fatalf("uncut commit: %v", bad)
			}

			for m := 0; m < s.mirrors; m++ {
				for k := int64(0); k < perMirror; k++ {
					t.Run(fmt.Sprintf("mirror%d/write%d", m, k), func(t *testing.T) {
						runCrashPoint(t, s, crashCut{mirror: m, k: k})
					})
					t.Run(fmt.Sprintf("mirror%d/write%d/dies", m, k), func(t *testing.T) {
						runCrashPoint(t, s, crashCut{mirror: m, k: k, dies: true})
					})
					t.Run(fmt.Sprintf("mirror%d/write%d/dies-and-returns", m, k), func(t *testing.T) {
						runCrashPoint(t, s, crashCut{mirror: m, k: k, dies: true, heals: true})
					})
				}
			}
			for a := 0; a < s.mirrors; a++ {
				for b := a + 1; b < s.mirrors; b++ {
					for ka := int64(0); ka < perMirror; ka++ {
						for kb := int64(0); kb < perMirror; kb++ {
							t.Run(fmt.Sprintf("mirror%d/write%d+mirror%d/write%d", a, ka, b, kb), func(t *testing.T) {
								runCrashPoint(t, s, crashCut{mirror: a, k: ka}, crashCut{mirror: b, k: kb})
							})
						}
					}
				}
			}
		})
	}
}

// TestRolledBackRecordsNeverRollBackALaterCommit is the recovery-side
// twin of TestAbortedRecordsNeverRollBackALaterCommit: a transaction that
// recovery rolled back must not keep valid records at the head of its
// slot's remote log either. If it did, a second crash before the slot's
// next commit would roll it back again — over whatever another slot has
// committed to those bytes in between.
func TestRolledBackRecordsNeverRollBackALaterCommit(t *testing.T) {
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0)
	r.update(t, db, 0, []byte("base"))

	caught, err := r.lib.BeginTx() // slot 0
	if err != nil {
		t.Fatal(err)
	}
	if err := caught.SetRange(db, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes(), "AAAA")
	if err := caught.Prepare(); err != nil { // records and bytes out, no word
		t.Fatal(err)
	}
	// The primary is gone; a fresh node takes over.
	lib, net := attachParallel(t, r.servers, r.clock, 0, 1, nil)
	defer net.Close()
	re, err := lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:4]); got != "base" {
		t.Fatalf("first recovery left %q, want the transaction rolled back", got)
	}
	if n := lib.RecoveryMetrics().SlotsRolledBack.Load(); n != 1 {
		t.Errorf("slots rolled back = %d, want 1", n)
	}

	idle, err := lib.BeginTx() // holds slot 0, writes nothing
	if err != nil {
		t.Fatal(err)
	}
	winner, err := lib.BeginTx() // slot 1
	if err != nil {
		t.Fatal(err)
	}
	if idle.Slot() != 0 || winner.Slot() != 1 {
		t.Fatalf("slots %d and %d, want 0 and 1", idle.Slot(), winner.Slot())
	}
	if err := winner.SetRange(re, 0, 4); err != nil {
		t.Fatal(err)
	}
	copy(re.Bytes(), "BBBB")
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll before the second crash: %v %v", mm, err)
	}

	lib2, net2 := attachParallel(t, r.servers, r.clock, 0, 1, nil)
	defer net2.Close()
	re, err = lib2.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[:4]); got != "BBBB" {
		t.Errorf("recovered %q: the rolled-back transaction's stale before-image rolled back a later commit", got)
	}
}
