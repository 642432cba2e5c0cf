package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// The interrupted-recovery suite: recovery restores the local images
// first and publishes each database as one batch afterwards, so a
// second crash can land between any two of its mirror writes. For every
// such point the suite cuts the first recovery short, attaches again
// over healthy transports, and demands the outcome an uninterrupted
// recovery produces — recovery must be idempotent from any prefix of
// its own writes.

// cutTransport counts every write and batch write on a counter — shared
// by all mirrors of one client, or private to one mirror — and refuses
// them from the failFrom-th on, while reads and pings keep answering: the
// node behind it loses its outbound path mid-repair, or mid-commit. It
// hides the transport's Filler, so server-side zeroing falls back to
// counted writes as well. With torn set every entry of a batch is its
// own counted write, applied one by one, so a cut can fall inside a
// batch and leave a prefix of it on the mirror — what a transport
// without batching, or a frame cut short by the sender's death, leaves.
// onCut, when set, runs as the first write is refused: the node behind
// the link going down with it.
type cutTransport struct {
	transport.Transport
	writes   *atomic.Int64
	failFrom int64
	torn     bool
	onCut    func()
}

func (c *cutTransport) admit() error {
	n := c.writes.Add(1)
	if n == c.failFrom && c.onCut != nil {
		c.onCut()
	}
	if n >= c.failFrom {
		return errors.New("cut: node lost its outbound path")
	}
	return nil
}

func (c *cutTransport) Write(seg uint32, offset uint64, data []byte) error {
	if err := c.admit(); err != nil {
		return err
	}
	return c.Transport.Write(seg, offset, data)
}

func (c *cutTransport) WriteBatch(writes []transport.BatchWrite) error {
	if c.torn {
		for _, w := range writes {
			if err := c.Write(w.Seg, w.Offset, w.Data); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.admit(); err != nil {
		return err
	}
	return c.Transport.(transport.BatchWriter).WriteBatch(writes)
}

// cloneServers copies every segment of the crashed mirror set onto fresh
// servers, so every cut starts from the identical crash without
// replaying the workload that led to it.
func cloneServers(t *testing.T, crashed []*memserver.Server) []*memserver.Server {
	t.Helper()
	var out []*memserver.Server
	for _, src := range crashed {
		dst := memserver.New(memserver.WithLabel(src.Label()))
		for _, info := range src.List() {
			data, err := src.Read(info.ID, 0, uint32(info.Size))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := dst.Malloc(info.Name, info.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Write(seg.ID, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, dst)
	}
	return out
}

// freshClient is a new node's client over new transports to servers,
// each passed through wrap when it is non-nil.
func freshClient(t *testing.T, servers []*memserver.Server, clock simclock.Clock, q int, wrap func(transport.Transport) transport.Transport) *netram.Client {
	t.Helper()
	var mirrors []netram.Mirror
	for _, srv := range servers {
		var tr transport.Transport
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			tr = wrap(tr)
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
	return net
}

// attachCut runs recovery over servers through cutTransports failing
// from the failFrom-th write on, and reports how many writes were
// attempted.
func attachCut(t *testing.T, servers []*memserver.Server, clock simclock.Clock, q int, failFrom int64) (*Library, int64, error) {
	t.Helper()
	var writes atomic.Int64
	net := freshClient(t, servers, clock, q, func(tr transport.Transport) transport.Transport {
		return &cutTransport{Transport: tr, writes: &writes, failFrom: failFrom}
	})
	defer net.Close()
	lib, err := Attach(net, clock)
	return lib, writes.Load(), err
}

// buildQuorumForwardCrash constructs a 2-of-3 crash needing both kinds
// of repair: one transaction committed on mirrors A and B while the
// straggler C, off the network, saw none of it (a forward repair), and a
// second slot's transaction caught mid-commit — Prepare landed its
// records and its garbage on A and B, no word (a rollback).
func buildQuorumForwardCrash(t *testing.T) ([]*memserver.Server, *simclock.SimClock) {
	t.Helper()
	r := newQuorumCrashRig(t, 3, 2)
	db, err := r.lib.CreateDB("bank", 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range db.Bytes() {
		db.Bytes()[i] = 0x44
	}
	if err := r.lib.InitDB(db); err != nil {
		t.Fatal(err)
	}
	r.net.WaitCatchUp()
	won, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	inflight, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	r.servers[2].Partition()
	if err := won.SetRange(db, 64, 10); err != nil {
		t.Fatal(err)
	}
	if err := inflight.SetRange(db, 512, 6); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[64:], []byte("quorum-win"))
	if err := won.Commit(); err != nil {
		t.Fatalf("2-of-3 commit with a stalled straggler: %v", err)
	}
	copy(db.Bytes()[512:], "BROKEN")
	if err := inflight.Prepare(); err != nil {
		t.Fatal(err)
	}
	r.servers[2].Heal()
	return r.servers, r.clock
}

func TestInterruptedRecoveryIsIdempotent(t *testing.T) {
	for _, sc := range []struct {
		name  string
		q     int
		build func(*testing.T) ([]*memserver.Server, *simclock.SimClock)
		check func(*testing.T, *Library)
	}{
		{"all-ack", 0, buildAllAckCrash, func(t *testing.T, lib *Library) {
			for _, c := range []struct {
				name string
				off  int
				fill byte
			}{{"alpha", 128, 0x11}, {"beta", 256, 0x22}} {
				db, err := lib.OpenDB(c.name)
				if err != nil {
					t.Fatal(err)
				}
				if got := db.Bytes()[c.off]; got != c.fill {
					t.Errorf("%s: in-flight transaction not rolled back (byte %#x)", c.name, got)
				}
			}
		}},
		{"quorum-2of3", 2, buildQuorumForwardCrash, func(t *testing.T, lib *Library) {
			db, err := lib.OpenDB("bank")
			if err != nil {
				t.Fatal(err)
			}
			if got := string(db.Bytes()[64:74]); got != "quorum-win" {
				t.Errorf("quorum-committed transaction lost: %q", got)
			}
			if got := string(db.Bytes()[512:518]); got == "BROKEN" {
				t.Error("in-flight transaction not rolled back")
			}
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			crashed, clock := sc.build(t)
			servers := cloneServers(t, crashed)
			lib, total, err := attachCut(t, servers, clock, sc.q, math.MaxInt64)
			if err != nil {
				t.Fatalf("uninterrupted recovery: %v", err)
			}
			if total < 2 {
				t.Fatalf("scenario made recovery write %d times; nothing to interrupt", total)
			}
			sc.check(t, lib)
			if mm, err := lib.net.VerifyAll(); err != nil || len(mm) != 0 {
				t.Fatalf("uninterrupted recovery left the mirrors diverging: %v %v", mm, err)
			}
			want := captureState(t, lib, servers, clock)

			// diffStates compares every local image and every byte of
			// every mirror against that verified reference.
			for k := int64(1); k <= total; k++ {
				servers := cloneServers(t, crashed)
				if _, _, err := attachCut(t, servers, clock, sc.q, k); err == nil {
					t.Fatalf("recovery cut at write %d of %d reported success", k, total)
				}
				lib, net := attachParallel(t, servers, clock, sc.q, 1, nil)
				sc.check(t, lib)
				got := captureState(t, lib, servers, clock)
				net.Close()
				if diffStates(t, 1, want, got); t.Failed() {
					t.Fatalf("second recovery after a cut at write %d of %d diverges from the uninterrupted one", k, total)
				}
			}
		})
	}
}

// TestRecoveryPhaseSequence pins what one Attach emits: the phases are
// one fixed sequence at every quorum and every width, each announced by
// one RecoveryPhase flight event, one child span of the "recover" root
// and one histogram sample. What the quorum scenario adds — a straggler
// to repair forward, a log and a word to republish — shows in the
// counters and the RecoveryRepair events, not in the phase list.
func TestRecoveryPhaseSequence(t *testing.T) {
	phases := []string{"meta_fetch", "slot_connect", "db_fetch", "slot_scan", "repair", "republish"}
	for _, sc := range []struct {
		name                           string
		q                              int
		build                          func(*testing.T) ([]*memserver.Server, *simclock.SimClock)
		forward, rolledBack, republish uint64
	}{
		{"all-ack", 0, buildAllAckCrash, 0, 2, 0},
		{"quorum-2of3", 2, buildQuorumForwardCrash, 1, 1, 2},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				crashed, clock := sc.build(t)
				net := freshClient(t, cloneServers(t, crashed), clock, sc.q, nil)
				defer net.Close()
				fr := flight.New(0)
				fr.Enable()
				rec := trace.NewRecorder()
				rec.Enable()
				lib, err := Attach(net, clock, WithRecoveryParallelism(workers), WithFlightRecorder(fr), WithTracer(rec))
				if err != nil {
					t.Fatal(err)
				}

				var events []string
				repairs := 0
				for _, ev := range fr.Snapshot() {
					switch ev.Kind {
					case flight.RecoveryPhase:
						events = append(events, ev.Detail)
					case flight.RecoveryRepair:
						repairs++
					}
				}
				if want := slices.Concat(phases, []string{"complete"}); !slices.Equal(events, want) {
					t.Errorf("RecoveryPhase flight events %v, want %v", events, want)
				}

				spans := make(map[string]int)
				for _, sp := range rec.Snapshot() {
					if sp.Layer == trace.LayerCore {
						spans[sp.Name]++
					}
				}
				if len(spans) != len(phases)+1 || spans["recover"] != 1 {
					t.Errorf("core spans %v, want one recover root and one span per phase of %v", spans, phases)
				}
				for _, name := range phases {
					if spans[name] != 1 {
						t.Errorf("phase %s recorded %d spans, want 1", name, spans[name])
					}
				}

				m := lib.RecoveryMetrics()
				for name, h := range map[string]*obs.Histogram{
					"meta_fetch": &m.MetaFetch, "slot_connect": &m.SlotConnect, "db_fetch": &m.DBFetch,
					"slot_scan": &m.SlotScan, "repair": &m.Repair, "republish": &m.Republish,
				} {
					if got := h.Snapshot().Count; got != 1 {
						t.Errorf("histogram of %s holds %d samples, want 1", name, got)
					}
				}
				if f, rb, rp := m.SlotsForward.Load(), m.SlotsRolledBack.Load(), m.SlotsRepublished.Load(); f != sc.forward || rb != sc.rolledBack || rp != sc.republish {
					t.Errorf("slots forward/rolled back/republished = %d/%d/%d, want %d/%d/%d", f, rb, rp, sc.forward, sc.rolledBack, sc.republish)
				}
				if repairs == 0 {
					t.Error("a recovery that repaired slots recorded no RecoveryRepair flight event")
				}
			})
		}
	}
}

// tallyTransport counts what one mirror is asked for during a recovery:
// the reads per segment, and every write — a Write, each entry of a
// WriteBatch, a Fill — as the (segment, offset, bytes) it carried.
type tallyTransport struct {
	transport.Transport
	mu      sync.Mutex
	reads   map[uint32]int
	written []transport.BatchWrite
	batches int
}

func (c *tallyTransport) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	c.mu.Lock()
	c.reads[seg]++
	c.mu.Unlock()
	return c.Transport.Read(seg, offset, n)
}

func (c *tallyTransport) Write(seg uint32, offset uint64, data []byte) error {
	return c.WriteBatch([]transport.BatchWrite{{Seg: seg, Offset: offset, Data: data}})
}

func (c *tallyTransport) WriteBatch(writes []transport.BatchWrite) error {
	c.mu.Lock()
	c.batches++
	for _, w := range writes {
		c.written = append(c.written, transport.BatchWrite{Seg: w.Seg, Offset: w.Offset, Data: append([]byte(nil), w.Data...)})
	}
	c.mu.Unlock()
	return c.Transport.(transport.BatchWriter).WriteBatch(writes)
}

func (c *tallyTransport) Fill(seg uint32, offset, n uint64) error {
	return c.Write(seg, offset, make([]byte, n))
}

// attachTallied recovers servers on a fresh node through tallyTransports.
func attachTallied(t *testing.T, servers []*memserver.Server, clock simclock.Clock) (*Library, *netram.Client, []*tallyTransport) {
	t.Helper()
	var tallies []*tallyTransport
	net := freshClient(t, servers, clock, 0, func(tr transport.Transport) transport.Transport {
		tally := &tallyTransport{Transport: tr, reads: make(map[uint32]int)}
		tallies = append(tallies, tally)
		return tally
	})
	lib, err := Attach(net, clock)
	if err != nil {
		t.Fatal(err)
	}
	return lib, net, tallies
}

// TestAgreeingMirrorsAreOnlyRead is the cost side of electing at every
// quorum: after a crash that left the mirrors agreeing — the usual one —
// recovery writes nothing to any of them, and reads each mirror's
// metadata region exactly once (that copy is the base copy and the
// election's input both).
func TestAgreeingMirrorsAreOnlyRead(t *testing.T) {
	r := newCutRig(t, 2, 0, false)
	edb, err := r.lib.CreateDB("bank", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.lib.InitDB(edb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := declare(t, r.lib, edb.(*Database), byte(i+1)).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	declare(t, r.lib, edb.(*Database), 0x66) // in flight, nothing remote

	lib, net, tallies := attachTallied(t, r.servers, r.clock)
	defer net.Close()
	for i, tally := range tallies {
		if tally.batches != 0 {
			t.Errorf("mirror %d took %d write exchanges (%d entries) from a recovery whose mirrors agree, want 0", i, tally.batches, len(tally.written))
		}
		if n := tally.reads[lib.meta.Handle(i).ID]; n != 1 {
			t.Errorf("mirror %d had its metadata region read %d times, want 1", i, n)
		}
	}
	m := lib.RecoveryMetrics()
	if f, rb, rp := m.SlotsForward.Load(), m.SlotsRolledBack.Load(), m.SlotsRepublished.Load(); f+rb+rp != 0 {
		t.Errorf("slots forward/rolled back/republished = %d/%d/%d, want none", f, rb, rp)
	}
	if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll: %v %v", mm, err)
	}
}

// TestStaleMirrorGetsExactlyWhatItLacks: one mirror took a commit batch
// whole, the other none of it, and the primary died. Recovery elects the
// transaction forward, leaves the mirror that has it alone, and sends the
// other one batch holding exactly the bytes it lacks, in commit order:
// the span of the slot's log that differs, the transaction's ranges, the
// commit word.
func TestStaleMirrorGetsExactlyWhatItLacks(t *testing.T) {
	s := commitShape{name: "all-ack", mirrors: 2}
	r, tx, _, after := crashPointRig(t, s)
	r.cuts[1].failFrom = r.cuts[1].writes.Load() + 1 // mirror 1 takes none of the batch
	slot, id, ranges := tx.slot.idx, tx.id, append([]pending(nil), tx.ranges...)
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit should fail with a mirror refusing the batch")
	}
	stale := cloneServers(t, r.servers)[1] // mirror 1 as the crash leaves it

	lib, net, tallies := attachTallied(t, r.servers, r.clock)
	defer net.Close()
	if got := lib.dbs["bank"].Bytes(); !bytes.Equal(got, after) {
		t.Fatal("the transaction one mirror holds whole was not elected forward")
	}
	if tallies[0].batches != 0 {
		t.Errorf("the mirror holding the whole batch took %d write exchanges, want 0", tallies[0].batches)
	}
	if tallies[1].batches != 1 {
		t.Fatalf("the stale mirror took %d write exchanges, want 1", tallies[1].batches)
	}
	undo, db, meta := lib.slots[slot].region, lib.dbs["bank"].region, lib.meta
	got := tallies[1].written
	if len(got) != 1+len(ranges)+1 {
		t.Fatalf("the stale mirror was sent %d entries, want a log span, %d ranges and the word", len(got), len(ranges))
	}
	// The log span is tight: its first and last byte differ from what
	// the mirror held, and nothing outside it does.
	was, err := stale.Read(undo.Handle(1).ID, 0, uint32(undo.Size()))
	if err != nil {
		t.Fatal(err)
	}
	log := got[0]
	if log.Seg != undo.Handle(1).ID || log.Data[0] == was[log.Offset] || log.Data[len(log.Data)-1] == was[log.Offset+uint64(len(log.Data))-1] {
		t.Errorf("first entry [%d,+%d) of segment %d is not the differing span of the slot's log", log.Offset, len(log.Data), log.Seg)
	}
	copy(was[log.Offset:], log.Data)
	if !bytes.Equal(was, undo.Local) {
		t.Error("the slot's log differs outside the span the mirror was sent")
	}
	slices.Reverse(ranges) // recovery restores newest record first
	for i, rg := range ranges {
		if w := got[1+i]; w.Seg != db.Handle(1).ID || w.Offset != rg.offset || uint64(len(w.Data)) != rg.length {
			t.Errorf("entry %d is [%d,+%d) of segment %d, want the transaction's range [%d,+%d)", 1+i, w.Offset, len(w.Data), w.Seg, rg.offset, rg.length)
		}
	}
	if w := got[len(got)-1]; w.Seg != meta.Handle(1).ID || w.Offset != lib.slots[slot].wordOff || binary.BigEndian.Uint64(w.Data) != id {
		t.Errorf("last entry is [%d,+%d) of segment %d, want the slot's commit word", w.Offset, len(w.Data), w.Seg)
	}
	m := lib.RecoveryMetrics()
	if f, rb, rp := m.SlotsForward.Load(), m.SlotsRolledBack.Load(), m.SlotsRepublished.Load(); f != 1 || rb != 0 || rp != 1 {
		t.Errorf("slots forward/rolled back/republished = %d/%d/%d, want 1/0/1", f, rb, rp)
	}
	if mm, err := net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll: %v %v", mm, err)
	}
}
