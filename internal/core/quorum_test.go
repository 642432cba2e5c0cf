package core

import (
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// stallTransport parks every write on the gate channel while stall is
// set — a mirror that falls behind the quorum but stays reachable for
// reads and pings (recovery fetches from it through a fresh transport).
type stallTransport struct {
	transport.Transport
	stall atomic.Bool
	gate  chan struct{}
}

func (s *stallTransport) Write(seg uint32, offset uint64, data []byte) error {
	if s.stall.Load() {
		<-s.gate
	}
	return s.Transport.Write(seg, offset, data)
}

func (s *stallTransport) WriteBatch(writes []transport.BatchWrite) error {
	if s.stall.Load() {
		<-s.gate
	}
	if bw, ok := s.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := s.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// quorumCrashRig wires a quorum-w library over n mirrors, of which the
// mirrors named in stalled get a stallTransport (initially passing
// writes through).
type quorumCrashRig struct {
	lib     *Library
	net     *netram.Client
	servers []*memserver.Server
	stalls  []*stallTransport
	clock   *simclock.SimClock
	gate    chan struct{}
}

func newQuorumCrashRig(t *testing.T, n, w int, stalled ...int) *quorumCrashRig {
	t.Helper()
	r := &quorumCrashRig{clock: simclock.NewSim(), gate: make(chan struct{})}
	isStalled := make(map[int]bool)
	for _, i := range stalled {
		isStalled[i] = true
	}
	var mirrors []netram.Mirror
	for i := 0; i < n; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), r.clock)
		if err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
		var tp transport.Transport = tr
		if isStalled[i] {
			st := &stallTransport{Transport: tr, gate: r.gate}
			r.stalls = append(r.stalls, st)
			tp = st
		}
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tp})
	}
	net, err := netram.NewClient(mirrors, netram.WithQuorum(w))
	if err != nil {
		t.Fatal(err)
	}
	r.net = net
	t.Cleanup(net.Close) // registered first, so it runs after the gate opens
	lib, err := Init(net, r.clock)
	if err != nil {
		t.Fatal(err)
	}
	r.lib = lib
	// Release any parked straggler at the end so its worker goroutine
	// retires; by then every assertion has run.
	t.Cleanup(func() { close(r.gate) })
	return r
}

// engageStalls turns the parked-write behaviour on after setup.
func (r *quorumCrashRig) engageStalls() {
	for _, st := range r.stalls {
		st.stall.Store(true)
	}
}

// attach simulates the primary dying and a fresh node taking over: a
// brand-new client over fresh transports to the same mirror servers
// (the old client — and its parked stragglers — is simply abandoned,
// as a dead process's in-flight writes are).
func (r *quorumCrashRig) attach(t *testing.T, w int) (*Library, *netram.Client) {
	t.Helper()
	var mirrors []netram.Mirror
	for _, srv := range r.servers {
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), r.clock)
		if err != nil {
			t.Fatal(err)
		}
		mirrors = append(mirrors, netram.Mirror{Name: srv.Label(), T: tr})
	}
	net, err := netram.NewClient(mirrors, netram.WithQuorum(w))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	lib, err := Attach(net, r.clock)
	if err != nil {
		t.Fatalf("attach after quorum crash: %v", err)
	}
	return lib, net
}

// TestQuorumCommitSurvivesPrimaryDeath is the tentpole crash window: a
// transaction commits at 2-of-3 acks, the straggler never receives its
// undo records, data or commit word, and the primary dies. A fresh node
// attaching over the mirrors must see the committed transaction, repair
// the lagging mirror before anything is readable, and leave every
// mirror byte-identical.
func TestQuorumCommitSurvivesPrimaryDeath(t *testing.T) {
	r := newQuorumCrashRig(t, 3, 2, 2)
	db, err := r.lib.CreateDB("bank", 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range db.Bytes() {
		db.Bytes()[i] = 0x11
	}
	if err := r.lib.InitDB(db); err != nil {
		t.Fatal(err)
	}

	// A fully propagated baseline commit.
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

	// Mirror C stops receiving writes; the next commit reaches quorum
	// on A and B only.
	r.engageStalls()
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 64, 10); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[64:], []byte("quorum-win"))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("2-of-3 commit with a stalled straggler: %v", err)
	}
	if got := r.net.CatchUpPending(2); got == 0 {
		t.Fatal("straggler has no pending catch-up; the stall is not engaged")
	}

	// Primary dies here — quorum reached, catch-up outstanding.
	lib2, net2 := r.attach(t, 2)
	re, err := lib2.OpenDB("bank")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[64:74]); got != "quorum-win" {
		t.Errorf("quorum-committed tx lost: recovered %q", got)
	}
	if got := string(re.Bytes()[0:8]); got != "baseline" {
		t.Errorf("baseline commit lost: recovered %q", got)
	}
	if re.Bytes()[511] != 0x11 {
		t.Error("initial fill lost")
	}

	// Repair-before-read: after recovery every mirror — including the
	// one that missed the commit entirely — is byte-identical.
	mismatches, err := net2.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-recovery divergence: %v", m)
	}

	// The attached node processes new transactions.
	tx3, err := lib2.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.SetRange(re, 0, 8); err != nil {
		t.Fatal(err)
	}
	copy(re.Bytes()[0:], []byte("newboss!"))
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumRecoveryWordOnSingleMirror stresses the word-merge: with
// w=1, the commit word (and the transaction's records) may exist on a
// single mirror when the primary dies. Recovery must pick the maximum
// word across copies, treat that transaction as committed, and repair
// both lagging mirrors from the one that has it.
func TestQuorumRecoveryWordOnSingleMirror(t *testing.T) {
	r := newQuorumCrashRig(t, 3, 1, 1, 2)
	db, err := r.lib.CreateDB("ledger", 256)
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
	if err := tx.SetRange(db, 0, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("stable"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.net.WaitCatchUp()

	// Only mirror A receives anything from here on.
	r.engageStalls()
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 128, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[128:], []byte("lonely"))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("1-of-3 commit: %v", err)
	}

	lib2, net2 := r.attach(t, 1)
	re, err := lib2.OpenDB("ledger")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[128:134]); got != "lonely" {
		t.Errorf("single-mirror committed tx lost: recovered %q", got)
	}
	if got := string(re.Bytes()[0:6]); got != "stable" {
		t.Errorf("baseline lost: recovered %q", got)
	}
	mismatches, err := net2.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-recovery divergence: %v", m)
	}
}

// TestQuorumRecoveryRollsBackInFlight: the dual window — the primary
// dies after a transaction's undo records and data reached a quorum but
// its commit word reached nobody. The transaction never committed;
// recovery must roll the touched mirrors back using the before-images
// and leave the mirror set byte-identical at the pre-transaction state.
func TestQuorumRecoveryRollsBackInFlight(t *testing.T) {
	r := newQuorumCrashRig(t, 3, 2)
	db, err := r.lib.CreateDB("bank", 256)
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
	if err := tx.SetRange(db, 0, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("stable"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.net.WaitCatchUp()

	// In-flight transaction: the straggler drops off the network (its
	// memory stays up), then Prepare — the first half of Commit — lands
	// the undo records and the data on the two mirrors left and stops
	// short of the word, as TestRecoverRollsBackInFlightTransaction does
	// on the all-ack path.
	r.servers[2].Partition()
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 0, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[0:], []byte("BROKEN"))
	if err := tx2.Prepare(); err != nil {
		t.Fatal(err)
	}
	r.servers[2].Heal()

	lib2, net2 := r.attach(t, 2)
	re, err := lib2.OpenDB("bank")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(re.Bytes()[0:6]); got != "stable" {
		t.Errorf("recovered %q, want rolled-back %q", got, "stable")
	}
	mismatches, err := net2.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-rollback divergence: %v", m)
	}
}

// TestLaggingMirrorLeavesBeforeTheSlotsRunOut: at quorum every commit a
// straggler has not taken yet keeps its undo slot out of reuse (the
// fence), and a commit is one queued write. A mirror that stops taking
// writes must therefore overflow its catch-up queue and leave the data
// path while there are still slots to begin transactions in; were the
// queue as deep as the slot cap, Begin would fail busy first.
func TestLaggingMirrorLeavesBeforeTheSlotsRunOut(t *testing.T) {
	r := newQuorumCrashRig(t, 3, 2, 2)
	db, err := r.lib.CreateDB("bank", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.lib.InitDB(db); err != nil {
		t.Fatal(err)
	}
	r.net.WaitCatchUp()
	commit := func(i int) {
		t.Helper()
		tx, err := r.lib.BeginTx()
		if err != nil {
			t.Fatalf("Begin %d with a stalled straggler: %v", i, err)
		}
		if err := tx.SetRange(db, 0, 8); err != nil {
			t.Fatal(err)
		}
		db.Bytes()[0] = byte(i)
		if err := tx.Commit(); err != nil {
			t.Fatalf("2-of-3 commit %d with a stalled straggler: %v", i, err)
		}
	}
	r.engageStalls()
	n := 0
	for ; !r.net.MirrorDown(2); n++ {
		commit(n)
	}
	// The straggler finishes the one write it was parked in; everything
	// queued behind it is dropped, the mirror being down, and the fences
	// that pinned the slots clear.
	r.stalls[0].stall.Store(false)
	r.gate <- struct{}{}
	r.net.WaitCatchUp()
	for i := 0; i < 2*maxUndoSlots; i++ {
		commit(n + i)
	}
	if got := len(r.lib.slots); got >= maxUndoSlots {
		t.Errorf("%d undo slots allocated, the cap", got)
	}
}
