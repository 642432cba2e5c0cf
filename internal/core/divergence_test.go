package core

// Regression tests for the mirror-divergence bug: a push that fails
// after reaching a subset of the mirrors used to leave the transaction's
// bookkeeping as if nothing had been sent, so Abort never repaired the
// mirrors that *did* apply the write and their copy of the database
// silently diverged from local memory. With the commit a single batch per
// mirror, "a subset" means one mirror holds the whole transaction, commit
// word included, beside one that holds none of it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// droppy wraps a transport and, after letting the next skip
// Write/WriteBatch calls through, fails the failNext calls that follow,
// while staying pingable — a transient hiccup on one mirror, not a dead
// node.
type droppy struct {
	transport.Transport
	skip, failNext int
}

// drop reports whether the current call is one to fail.
func (d *droppy) drop() bool {
	if d.skip > 0 {
		d.skip--
		return false
	}
	if d.failNext > 0 {
		d.failNext--
		return true
	}
	return false
}

func (d *droppy) Write(seg uint32, offset uint64, data []byte) error {
	if d.drop() {
		return errors.New("droppy: transient write failure")
	}
	return d.Transport.Write(seg, offset, data)
}

func (d *droppy) WriteBatch(writes []transport.BatchWrite) error {
	if d.drop() {
		return errors.New("droppy: transient batch failure")
	}
	if bw, ok := d.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := d.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// newDroppyRig wires a library to two mirrors, with mirror 1's transport
// wrapped so tests can make it fail after mirror 0 already succeeded
// (mirrors are written in order).
func newDroppyRig(t *testing.T) (*Library, *netram.Client, *droppy, []*memserver.Server) {
	t.Helper()
	clock := simclock.NewSim()
	var mirrors []netram.Mirror
	var servers []*memserver.Server
	var dr *droppy
	for i := 0; i < 2; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		var tp transport.Transport = tr
		if i == 1 {
			dr = &droppy{Transport: tr}
			tp = dr
		}
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tp})
		servers = append(servers, srv)
	}
	net, err := netram.NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	lib, err := Init(net, clock)
	if err != nil {
		t.Fatal(err)
	}
	return lib, net, dr, servers
}

// halfLanded fails tx's commit push — and the retry — on mirror 1 after
// mirror 0 applied the whole batch, commit word included, and checks that
// the two mirrors are left exactly that far apart: every undo record,
// every range and the word on one, none of it on the other.
func halfLanded(t *testing.T, dr *droppy, servers []*memserver.Server, tx *Tx, db *Database, want string) {
	t.Helper()
	dr.failNext = 2
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit should fail when a mirror drops the batch")
	}
	l := tx.l
	for i, landed := range []bool{true, false} {
		log, err := servers[i].Read(tx.slot.region.Handle(i).ID, 0, uint32(recordSize(8)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := parseRecord(log, 0); ok != landed {
			t.Fatalf("mirror %d holds the undo record: %v, want %v", i, ok, landed)
		}
		got, err := servers[i].Read(db.region.Handle(i).ID, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if (string(got) == want) != landed {
			t.Fatalf("mirror %d database holds %q, landed = %v", i, got, landed)
		}
		word, err := servers[i].Read(l.meta.Handle(i).ID, tx.slot.wordOff, 8)
		if err != nil {
			t.Fatal(err)
		}
		if (binary.BigEndian.Uint64(word) == tx.id) != landed {
			t.Fatalf("mirror %d commit word is %d, landed = %v", i, binary.BigEndian.Uint64(word), landed)
		}
	}
	if got := binary.BigEndian.Uint64(l.meta.Local[tx.slot.wordOff:]); got == tx.id {
		t.Error("the local commit word was not rolled back after the failed push")
	}
}

func TestAbortRepairsPartialCommitPush(t *testing.T) {
	lib, net, dr, servers := newDroppyRig(t)
	db, err := lib.CreateDB("acct", 256)
	if err != nil {
		t.Fatal(err)
	}
	orig := db.Bytes()
	for i := range orig {
		orig[i] = 0xAA
	}
	if err := lib.InitDB(db); err != nil {
		t.Fatal(err)
	}

	tx, err := lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 8); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes(), "deadbeef")
	halfLanded(t, dr, servers, tx, db.(*Database), "deadbeef")

	// The hiccup clears; Abort must restore local memory AND take the
	// whole batch back from the mirror that applied it: restored bytes,
	// the previous commit word, the records retired.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db.Bytes()[:8], orig[:8]) {
		t.Fatal("abort did not restore local memory")
	}
	if n := lib.Metrics().Repairs.Load(); n != 1 {
		t.Errorf("repairs counter = %d, want 1", n)
	}
	// Metadata and undo slots included: the same bytes everywhere.
	if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll after abort: %+v %v", mm, err)
	}
}

// TestCommitKeepsRecordsOnPartialUndoPush: a commit push that fails after
// reaching a subset of the mirrors consumes nothing. The records stay
// where they are in the local log, a further SetRange appends past them,
// and whoever runs next — a retried Commit or the Abort — sends the whole
// set again, so the half-reached mirror never diverges from the local
// state: both end with every region, metadata and undo slots included,
// byte-identical on every mirror.
func TestCommitKeepsRecordsOnPartialUndoPush(t *testing.T) {
	for _, finish := range []string{"commit", "abort"} {
		t.Run(finish, func(t *testing.T) {
			lib, net, dr, servers := newDroppyRig(t)
			db, err := lib.CreateDB("acct", 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.InitDB(db); err != nil {
				t.Fatal(err)
			}
			region := db.(*Database).region

			tx, err := lib.BeginTx()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.SetRange(db, 0, 8); err != nil {
				t.Fatal(err)
			}
			copy(db.Bytes(), "deadbeef")
			halfLanded(t, dr, servers, tx, db.(*Database), "deadbeef")
			if want := recordSize(8); tx.cursor != want {
				t.Errorf("cursor = %d after the failed push, want %d", tx.cursor, want)
			}
			if len(tx.ranges) != 1 || len(tx.undo) != 1 {
				t.Errorf("tracked ranges = %d, records = %d; want 1, 1", len(tx.ranges), len(tx.undo))
			}

			// After the hiccup clears, a further record appends past the
			// half-pushed one instead of overwriting it.
			if err := tx.SetRange(db, 16, 8); err != nil {
				t.Fatal(err)
			}
			if want := 2 * recordSize(8); tx.cursor != want {
				t.Errorf("cursor = %d after append, want %d", tx.cursor, want)
			}
			copy(db.Bytes()[16:], "cafef00d")

			if finish == "commit" {
				if err := tx.Commit(); err != nil {
					t.Fatalf("retried Commit: %v", err)
				}
				for i := range servers {
					got, err := servers[i].Read(region.Handle(i).ID, 0, 24)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, db.Bytes()[:24]) {
						t.Errorf("mirror %d holds %q after the retried commit", i, got)
					}
				}
			} else {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(db.Bytes()[:24], make([]byte, 24)) {
					t.Error("abort did not restore local memory")
				}
				if n := lib.Metrics().Repairs.Load(); n != 2 {
					t.Errorf("repairs counter = %d, want 2: both ranges were on the wire", n)
				}
			}
			if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
				t.Fatalf("VerifyAll after %s: %+v %v", finish, mm, err)
			}
		})
	}
}
