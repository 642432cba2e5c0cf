package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/ics-forth/perseas/internal/hostmem"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// The parallel recovery equivalence suite: WithRecoveryParallelism must
// be a pure wall-clock optimisation. For every crash scenario the suite
// rebuilds the identical crashed mirror set from scratch, recovers it
// at workers 1, 2 and 4, and demands the outcomes match byte for byte —
// every recovered local image, every byte of every mirror's segments,
// and the transaction-id reseed.

// recoveredState is everything a recovery arm produced that the other
// arms must reproduce exactly.
type recoveredState struct {
	committed uint64
	lastTxID  uint64
	dbs       map[string][]byte
	// servers[i] maps segment name to that mirror's full contents.
	servers []map[string][]byte
}

// captureState snapshots the recovered library and the raw bytes of
// every segment on every mirror server, read through fresh transports
// so no client-side cache can mask a divergence.
func captureState(t *testing.T, lib *Library, servers []*memserver.Server, clock simclock.Clock) recoveredState {
	t.Helper()
	st := recoveredState{
		committed: lib.committed,
		lastTxID:  lib.lastTxID,
		dbs:       make(map[string][]byte),
	}
	for name, db := range lib.dbs {
		st.dbs[name] = append([]byte(nil), db.region.Local...)
	}
	for _, srv := range servers {
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := tr.List()
		if err != nil {
			t.Fatal(err)
		}
		dump := make(map[string][]byte, len(segs))
		for _, s := range segs {
			h, err := tr.Connect(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := tr.Read(h.ID, 0, uint32(h.Size))
			if err != nil {
				t.Fatal(err)
			}
			dump[s.Name] = append([]byte(nil), data...)
		}
		st.servers = append(st.servers, dump)
		_ = tr.Close()
	}
	return st
}

// diffStates reports every way got diverges from want.
func diffStates(t *testing.T, workers int, want, got recoveredState) {
	t.Helper()
	if got.committed != want.committed {
		t.Errorf("workers=%d: committed id %d, serial recovered %d", workers, got.committed, want.committed)
	}
	if got.lastTxID != want.lastTxID {
		t.Errorf("workers=%d: id reseed %d, serial recovered %d", workers, got.lastTxID, want.lastTxID)
	}
	if len(got.dbs) != len(want.dbs) {
		t.Errorf("workers=%d: recovered %d databases, serial recovered %d", workers, len(got.dbs), len(want.dbs))
	}
	for name, w := range want.dbs {
		if !bytes.Equal(got.dbs[name], w) {
			t.Errorf("workers=%d: database %q local image diverges from serial recovery", workers, name)
		}
	}
	if len(got.servers) != len(want.servers) {
		t.Fatalf("workers=%d: %d mirror dumps, want %d", workers, len(got.servers), len(want.servers))
	}
	for i := range want.servers {
		if len(got.servers[i]) != len(want.servers[i]) {
			t.Errorf("workers=%d: mirror %d holds %d segments, serial left %d",
				workers, i, len(got.servers[i]), len(want.servers[i]))
		}
		for name, w := range want.servers[i] {
			if !bytes.Equal(got.servers[i][name], w) {
				t.Errorf("workers=%d: mirror %d segment %q diverges from serial recovery", workers, i, name)
			}
		}
	}
}

// attachParallel recovers the crashed mirror set on a fresh node at the
// given parallelism: new transports, new client, full recovery. decided
// non-nil routes through RecoverWithDecisions, the coordinator's path.
func attachParallel(t *testing.T, servers []*memserver.Server, clock simclock.Clock, q, workers int, decided map[int]uint64) (*Library, *netram.Client) {
	t.Helper()
	var mirrors []netram.Mirror
	for _, srv := range servers {
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
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
	var opts []Option
	if workers > 1 {
		opts = append(opts, WithRecoveryParallelism(workers))
	}
	if decided == nil {
		lib, err := Attach(net, clock, opts...)
		if err != nil {
			t.Fatalf("attach with %d workers: %v", workers, err)
		}
		return lib, net
	}
	l := &Library{
		net:     net,
		mem:     hostmem.Default(),
		clock:   clock,
		crashed: true,
		txs:     make(map[*Tx]struct{}),
		locks:   newConflictTable(),
	}
	for _, o := range opts {
		o(l)
	}
	net.SetClock(clock)
	if err := l.RecoverWithDecisions(decided); err != nil {
		t.Fatalf("recover with decisions at %d workers: %v", workers, err)
	}
	return l, net
}

// buildAllAckCrash constructs the all-ack scenario: two databases, two
// committed transactions, and two transactions on two undo slots caught
// mid-commit — Prepare landed their records and their garbage on every
// mirror, the words never left. The primary is then abandoned.
func buildAllAckCrash(t *testing.T) ([]*memserver.Server, *simclock.SimClock) {
	t.Helper()
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []netram.Mirror
	for i := 0; i < 3; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
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
	dbA, err := lib.CreateDB("alpha", 4096)
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := lib.CreateDB("beta", 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dbA.Bytes() {
		dbA.Bytes()[i] = 0x11
	}
	for i := range dbB.Bytes() {
		dbB.Bytes()[i] = 0x22
	}
	if err := lib.InitDB(dbA); err != nil {
		t.Fatal(err)
	}
	if err := lib.InitDB(dbB); err != nil {
		t.Fatal(err)
	}
	for i, db := range []interface {
		Bytes() []byte
	}{dbA, dbB} {
		tx, err := lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(db.(*Database), uint64(i)*64, 8); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[uint64(i)*64:], []byte(fmt.Sprintf("commit-%d", i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Two concurrent in-flight transactions occupy undo slots 0 and 1;
	// their modifications land on every mirror, then the primary dies.
	tx1, err := lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.SetRange(dbA, 128, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(dbB, 256, 8); err != nil {
		t.Fatal(err)
	}
	copy(dbA.Bytes()[128:], "GARBAGE1")
	copy(dbB.Bytes()[256:], "GARBAGE2")
	if err := tx1.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Prepare(); err != nil {
		t.Fatal(err)
	}
	return servers, clock
}

// TestParallelRecoveryEquivalenceAllAck: all-ack crash with rollback
// work on two slots — workers 2 and 4 must reproduce the serial
// recovery byte for byte.
func TestParallelRecoveryEquivalenceAllAck(t *testing.T) {
	var want recoveredState
	for _, workers := range []int{1, 2, 4} {
		servers, clock := buildAllAckCrash(t)
		lib, net := attachParallel(t, servers, clock, 0, workers, nil)
		db, err := lib.OpenDB("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(db.Bytes()[128:136]); got == "GARBAGE1" {
			t.Fatalf("workers=%d: in-flight transaction not rolled back", workers)
		}
		mismatches, err := net.VerifyAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mismatches {
			t.Errorf("workers=%d: post-recovery divergence: %v", workers, m)
		}
		got := captureState(t, lib, servers, clock)
		if workers == 1 {
			want = got
			continue
		}
		diffStates(t, workers, want, got)
	}
}

// TestParallelRecoveryEquivalenceQuorum: w=1 quorum crash where only
// mirror A holds the last committed transaction and an in-flight
// transaction dirtied mirror A alone. Striped fetches and batched
// repairs must land on the identical final state.
func TestParallelRecoveryEquivalenceQuorum(t *testing.T) {
	build := func(t *testing.T) *quorumCrashRig {
		r := newQuorumCrashRig(t, 3, 1)
		db, err := r.lib.CreateDB("ledger", 2048)
		if err != nil {
			t.Fatal(err)
		}
		for i := range db.Bytes() {
			db.Bytes()[i] = 0x33
		}
		if err := r.lib.InitDB(db); err != nil {
			t.Fatal(err)
		}
		tx, err := r.lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(db, 0, 6); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[0:], []byte("stable"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		r.net.WaitCatchUp()
		tx2, err := r.lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		tx3, err := r.lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		// From here on only mirror A receives writes: B and C drop off
		// the network with their memory intact.
		r.servers[1].Partition()
		r.servers[2].Partition()
		if err := tx2.SetRange(db, 512, 6); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[512:], []byte("lonely"))
		if err := tx2.Commit(); err != nil {
			t.Fatalf("1-of-3 commit: %v", err)
		}
		// In-flight transaction, caught mid-commit by Prepare: undo
		// record on A, garbage on A, no word.
		if err := tx3.SetRange(db, 1024, 6); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[1024:], "BROKEN")
		if err := tx3.Prepare(); err != nil {
			t.Fatal(err)
		}
		r.servers[1].Heal()
		r.servers[2].Heal()
		return r
	}
	var want recoveredState
	for _, workers := range []int{1, 2, 4} {
		r := build(t)
		lib, net := attachParallel(t, r.servers, r.clock, 1, workers, nil)
		db, err := lib.OpenDB("ledger")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(db.Bytes()[512:518]); got != "lonely" {
			t.Errorf("workers=%d: single-mirror committed tx lost: %q", workers, got)
		}
		if got := string(db.Bytes()[1024:1030]); got == "BROKEN" {
			t.Errorf("workers=%d: in-flight transaction not rolled back", workers)
		}
		mismatches, err := net.VerifyAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mismatches {
			t.Errorf("workers=%d: post-recovery divergence: %v", workers, m)
		}
		got := captureState(t, lib, r.servers, r.clock)
		if workers == 1 {
			want = got
			continue
		}
		diffStates(t, workers, want, got)
	}
}

// TestParallelRecoveryEquivalenceDecided: the cross-shard crash window —
// a transaction's data is fully propagated and a coordinator decided it
// committed, but the commit word never landed. RecoverWithDecisions must
// publish the word and keep the transaction at every parallelism.
func TestParallelRecoveryEquivalenceDecided(t *testing.T) {
	build := func(t *testing.T) (*quorumCrashRig, map[int]uint64) {
		r := newQuorumCrashRig(t, 3, 2)
		db, err := r.lib.CreateDB("orders", 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.lib.InitDB(db); err != nil {
			t.Fatal(err)
		}
		tx, err := r.lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(db, 0, 8); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[0:], []byte("baseline"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		r.net.WaitCatchUp()
		// The decided transaction: the straggler C is off the network,
		// Prepare lands the undo records and the data on mirrors A and B,
		// the decision is durable on the coordinator, and the commit
		// word push loses the race with the crash.
		r.servers[2].Partition()
		tx2, err := r.lib.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx2.SetRange(db, 64, 8); err != nil {
			t.Fatal(err)
		}
		copy(db.Bytes()[64:], []byte("decided!"))
		if err := tx2.Prepare(); err != nil {
			t.Fatal(err)
		}
		r.servers[2].Heal()
		return r, map[int]uint64{tx2.slot.idx: tx2.id}
	}
	var want recoveredState
	for _, workers := range []int{1, 2, 4} {
		r, decided := build(t)
		lib, net := attachParallel(t, r.servers, r.clock, 2, workers, decided)
		db, err := lib.OpenDB("orders")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(db.Bytes()[64:72]); got != "decided!" {
			t.Errorf("workers=%d: decided transaction rolled back: %q", workers, got)
		}
		mismatches, err := net.VerifyAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mismatches {
			t.Errorf("workers=%d: post-recovery divergence: %v", workers, m)
		}
		got := captureState(t, lib, r.servers, r.clock)
		if workers == 1 {
			want = got
			continue
		}
		diffStates(t, workers, want, got)
	}
}

// TestQuorumRepublishShipsPrefixOnly pins the coalesced undo republish:
// quorum recovery used to re-push every undo slot in full (n mirrors ×
// undo-region bytes on the wire); now only the winner's fetched prefix
// ships as payload and the tail is zeroed server-side. With a 1 MiB
// undo region holding a handful of records, recovery's total pushed
// payload must stay far below one region's size — let alone three.
func TestQuorumRepublishShipsPrefixOnly(t *testing.T) {
	const undoSize = 1 << 20
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []netram.Mirror
	for i := 0; i < 3; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
	}
	net, err := netram.NewClient(mirrors, netram.WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	lib, err := Init(net, clock, WithUndoLogSize(undoSize))
	if err != nil {
		t.Fatal(err)
	}
	db, err := lib.CreateDB("bank", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.InitDB(db); err != nil {
		t.Fatal(err)
	}
	tx, err := lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 64); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("conserved"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	net.WaitCatchUp()

	lib2, net2 := attachParallel(t, servers, clock, 2, 1, nil)
	re, err := lib2.OpenDB("bank")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[0:9]); got != "conserved" {
		t.Errorf("recovered %q, want %q", got, "conserved")
	}
	// The republish still leaves every mirror byte-identical…
	mismatches, err := net2.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-recovery divergence: %v", m)
	}
	// …while the whole recovery pushed a small fraction of one undo
	// region as payload. The historical full republish shipped at least
	// 3 mirrors × 1 MiB here.
	if wire := net2.Stats().WireBytes; wire > undoSize/2 {
		t.Errorf("recovery pushed %d payload bytes, want well under the %d-byte undo region", wire, undoSize)
	}
}
