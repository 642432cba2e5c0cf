package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
type cutTransport struct {
	transport.Transport
	writes   *atomic.Int64
	failFrom int64
	torn     bool
}

func (c *cutTransport) admit() error {
	if c.writes.Add(1) >= c.failFrom {
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

// TestRecoveryPhaseSequence pins what one Attach emits: the phases are a
// fixed sequence at every width, each announced by one RecoveryPhase
// flight event, one child span of the "recover" root and one histogram
// sample — quorum_repair only when a repair was staged, undo_republish
// only under quorum.
func TestRecoveryPhaseSequence(t *testing.T) {
	allAck := []string{"meta_fetch", "slot_connect", "db_fetch", "slot_scan", "rollback"}
	for _, sc := range []struct {
		name  string
		q     int
		build func(*testing.T) ([]*memserver.Server, *simclock.SimClock)
		want  []string
	}{
		{"all-ack", 0, buildAllAckCrash, allAck},
		{"quorum-2of3", 2, buildQuorumForwardCrash, slices.Concat(allAck, []string{"quorum_repair", "undo_republish"})},
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
				for _, ev := range fr.Snapshot() {
					if ev.Kind == flight.RecoveryPhase {
						events = append(events, ev.Detail)
					}
				}
				if want := slices.Concat(sc.want, []string{"complete"}); !slices.Equal(events, want) {
					t.Errorf("RecoveryPhase flight events %v, want %v", events, want)
				}

				spans := make(map[string]int)
				for _, sp := range rec.Snapshot() {
					if sp.Layer == trace.LayerCore {
						spans[sp.Name]++
					}
				}
				if len(spans) != len(sc.want)+1 || spans["recover"] != 1 {
					t.Errorf("core spans %v, want one recover root and one span per phase of %v", spans, sc.want)
				}
				for _, name := range sc.want {
					if spans[name] != 1 {
						t.Errorf("phase %s recorded %d spans, want 1", name, spans[name])
					}
				}

				m := lib.RecoveryMetrics()
				for name, h := range map[string]*obs.Histogram{
					"meta_fetch": &m.MetaFetch, "slot_connect": &m.SlotConnect, "db_fetch": &m.DBFetch,
					"slot_scan": &m.SlotScan, "rollback": &m.Rollback, "quorum_repair": &m.Repair,
					"undo_republish": &m.Republish,
				} {
					want := uint64(0)
					if slices.Contains(sc.want, name) {
						want = 1
					}
					if got := h.Snapshot().Count; got != want {
						t.Errorf("histogram of %s holds %d samples, want %d", name, got, want)
					}
				}
			})
		}
	}
}
