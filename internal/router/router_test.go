package router

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/enginetest"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// testRig is a sharded router over in-process mirrors, with direct
// handles on every layer for fault injection.
type testRig struct {
	r       *Router
	libs    []*core.Library
	nets    []*netram.Client
	servers [][]*memserver.Server
	clock   *simclock.SimClock
}

// newTestRig wires shards×mirrors in-process memory servers on one
// simulated clock.
func newTestRig(t *testing.T, shards, mirrors int) *testRig {
	t.Helper()
	rig := &testRig{clock: simclock.NewSim()}
	for s := 0; s < shards; s++ {
		var ms []netram.Mirror
		var srvs []*memserver.Server
		for m := 0; m < mirrors; m++ {
			srv := memserver.New()
			tr, err := transport.NewInProc(srv, sci.DefaultParams(), rig.clock)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, netram.Mirror{Name: srv.Label(), T: tr})
			srvs = append(srvs, srv)
		}
		net, err := netram.NewClient(ms)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := core.Init(net, rig.clock)
		if err != nil {
			t.Fatal(err)
		}
		rig.libs = append(rig.libs, lib)
		rig.nets = append(rig.nets, net)
		rig.servers = append(rig.servers, srvs)
	}
	r, err := New(rig.libs)
	if err != nil {
		t.Fatal(err)
	}
	rig.r = r
	return rig
}

// dbOnShard finds a database name that hashes to the wanted shard.
func dbOnShard(t *testing.T, r *Router, shard int, tag string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		name := tag + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		if r.ShardFor(name) == shard {
			return name
		}
	}
	t.Fatalf("no name found for shard %d", shard)
	return ""
}

// mkDB creates and initialises a database filled with pattern.
func mkDB(t *testing.T, e engine.Engine, name string, size uint64, pattern byte) engine.DB {
	t.Helper()
	db, err := e.CreateDB(name, size)
	if err != nil {
		t.Fatal(err)
	}
	b := db.Bytes()
	for i := range b {
		b[i] = pattern
	}
	if err := e.InitDB(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// write runs one transaction setting db[off:off+len(data)) = data.
func write(t *testing.T, e engine.Engine, db engine.DB, off uint64, data []byte) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, off, uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[off:], data)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// mirrorHolds reports whether the first 64 bytes of every database
// segment exported on srv equal b.
func mirrorHolds(t *testing.T, srv *memserver.Server, b byte) bool {
	t.Helper()
	for _, info := range srv.List() {
		if !strings.HasPrefix(info.Name, "perseas.db.") {
			continue
		}
		data, err := srv.Read(info.ID, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, bytes.Repeat([]byte{b}, 64)) {
			return false
		}
	}
	return true
}

// verifyMirrors checks local/remote agreement on every shard.
func (rig *testRig) verifyMirrors(t *testing.T) {
	t.Helper()
	for s, net := range rig.nets {
		mm, err := net.VerifyAll()
		if err != nil {
			t.Fatalf("shard %d verify: %v", s, err)
		}
		if len(mm) != 0 {
			t.Fatalf("shard %d: %d local/mirror mismatches: %+v", s, len(mm), mm)
		}
	}
}

func TestCrossShardCommitSurvivesCrash(t *testing.T) {
	rig := newTestRig(t, 2, 2)
	r := rig.r
	name0 := dbOnShard(t, r, 0, "x")
	name1 := dbOnShard(t, r, 1, "x")
	db0 := mkDB(t, r, name0, 4096, 0xAA)
	db1 := mkDB(t, r, name1, 4096, 0xBB)

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []engine.DB{db0, db1} {
		if err := tx.SetRange(db, 100, 8); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[100:], []byte("DECIDED!"))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().CrossShardCommits; got != 1 {
		t.Fatalf("CrossShardCommits = %d, want 1", got)
	}
	rig.verifyMirrors(t)

	if err := r.Crash(fault.CrashPower); err != nil {
		t.Fatal(err)
	}
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{name0, name1} {
		db, err := r.OpenDB(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Bytes()[100:108]; !bytes.Equal(got, []byte("DECIDED!")) {
			t.Fatalf("%s[100:108] = %q after recovery, want DECIDED!", name, got)
		}
	}
}

// TestCrossShardAbortRestoresBothShards aborts a two-shard transaction
// at both points an abort can find it: while it has only declared and
// updated its ranges (nothing has left the node — SetRange is local), and
// after every participant prepared, when its undo records and its
// updates are on both shards' mirrors and only the decision is missing.
// Either way both shards end restored, locally and on every mirror, undo
// slots included.
func TestCrossShardAbortRestoresBothShards(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		name := "declared"
		if prepared {
			name = "prepared"
		}
		t.Run(name, func(t *testing.T) {
			rig := newTestRig(t, 2, 2)
			r := rig.r
			db0 := mkDB(t, r, dbOnShard(t, r, 0, "a"), 4096, 0x11)
			db1 := mkDB(t, r, dbOnShard(t, r, 1, "a"), 4096, 0x22)

			tx, err := r.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []engine.DB{db0, db1} {
				if err := tx.SetRange(db, 0, 64); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64; i++ {
					db.Bytes()[i] = 0xFF
				}
			}
			if prepared {
				for s, sub := range tx.(*routerTx).subs {
					if err := sub.Prepare(); err != nil {
						t.Fatalf("prepare on shard %d: %v", s, err)
					}
				}
				for s, servers := range rig.servers {
					for _, srv := range servers {
						if !mirrorHolds(t, srv, 0xFF) {
							t.Fatalf("shard %d mirror %s does not hold the prepared update; the test needs a half-committed transaction", s, srv.Label())
						}
					}
				}
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if db0.Bytes()[i] != 0x11 {
					t.Fatalf("db0[%d] = %#x after abort, want 0x11", i, db0.Bytes()[i])
				}
				if db1.Bytes()[i] != 0x22 {
					t.Fatalf("db1[%d] = %#x after abort, want 0x22", i, db1.Bytes()[i])
				}
			}
			rig.verifyMirrors(t)
		})
	}
}

func TestSingleShardCommitTakesPlainPath(t *testing.T) {
	rig := newTestRig(t, 2, 1)
	r := rig.r
	db := mkDB(t, r, dbOnShard(t, r, 1, "s"), 1024, 0)
	write(t, r, db, 0, []byte("solo"))
	st := r.Stats()
	if st.SingleShardCommits != 1 || st.CrossShardCommits != 0 {
		t.Fatalf("stats = %+v, want exactly one single-shard commit", st)
	}
	// No decision slot may have been consumed.
	r.mu.Lock()
	free := len(r.coordFree)
	r.mu.Unlock()
	if free != coordSlots {
		t.Fatalf("decision slots free = %d, want %d", free, coordSlots)
	}
}

func TestCrossShardConflictArbitration(t *testing.T) {
	rig := newTestRig(t, 2, 1)
	r := rig.r
	db0 := mkDB(t, r, dbOnShard(t, r, 0, "c"), 4096, 0)
	db1 := mkDB(t, r, dbOnShard(t, r, 1, "c"), 4096, 0)

	tx1, _ := r.Begin()
	if err := tx1.SetRange(db0, 0, 128); err != nil {
		t.Fatal(err)
	}
	if err := tx1.SetRange(db1, 0, 128); err != nil {
		t.Fatal(err)
	}
	tx2, _ := r.Begin()
	if err := tx2.SetRange(db1, 64, 128); !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("overlapping cross-shard SetRange: %v, want ErrConflict", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRetiredHandleAfterRecovery(t *testing.T) {
	rig := newTestRig(t, 2, 1)
	r := rig.r
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(fault.CrashProcess); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, engine.ErrCrashed) {
		t.Fatalf("Commit after crash: %v, want ErrCrashed", err)
	}
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, engine.ErrNoTransaction) {
		t.Fatalf("Commit on pre-crash handle after recovery: %v, want ErrNoTransaction", err)
	}
}

// newShardedEngine adapts the rig to the conformance suite's factory.
func newShardedEngine(shards int) func(t *testing.T) engine.Engine {
	return func(t *testing.T) engine.Engine {
		return newTestRig(t, shards, 2).r
	}
}

// TestRouterEngineConformance runs the full engine contract suite —
// lifecycle, visibility, aborts, conflicts, crash/recovery, concurrent
// commits, randomised crash schedules — against sharded routers.
func TestRouterEngineConformance(t *testing.T) {
	enginetest.Run(t, "router-2", newShardedEngine(2), enginetest.Caps{
		SurvivesKind:    func(fault.CrashKind) bool { return true },
		DurableOnCommit: true,
	})
}

func TestRouterEngineConformance3Shards(t *testing.T) {
	enginetest.Run(t, "router-3", newShardedEngine(3), enginetest.Caps{
		SurvivesKind:    func(fault.CrashKind) bool { return true },
		DurableOnCommit: true,
	})
}
