package guardian

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// rig is a netram client over n in-process mirrors plus s spare nodes,
// all sharing one clock.
type rig struct {
	net     *netram.Client
	servers []*memserver.Server
	spares  []netram.Mirror
	spareSv []*memserver.Server
	clock   simclock.Clock
}

func newRig(t *testing.T, nMirrors, nSpares int, clock simclock.Clock) *rig {
	t.Helper()
	node := func(label string) (netram.Mirror, *memserver.Server) {
		srv := memserver.New(memserver.WithLabel(label))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		return netram.Mirror{Name: label, T: tr}, srv
	}
	r := &rig{clock: clock}
	var mirrors []netram.Mirror
	for i := 0; i < nMirrors; i++ {
		m, srv := node("node" + string(rune('A'+i)))
		mirrors = append(mirrors, m)
		r.servers = append(r.servers, srv)
	}
	for i := 0; i < nSpares; i++ {
		m, srv := node(fmt.Sprintf("spare%d", i))
		r.spares = append(r.spares, m)
		r.spareSv = append(r.spareSv, srv)
	}
	net, err := netram.NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	r.net = net
	return r
}

// tick advances the simulated clock by d and runs the detector.
func tick(t *testing.T, g *Guardian, clock *simclock.SimClock, d time.Duration) {
	t.Helper()
	clock.Advance(d)
	if !g.Tick() {
		t.Fatal("Tick did not fire after advancing past the interval")
	}
}

// TestGuardianKillMidWorkload is the acceptance scenario: a mirror dies
// in the middle of a transactional workload; the guardian confirms the
// death within the miss threshold, rebuilds onto a spare while further
// transactions commit, and afterwards every region is byte-identical on
// every mirror with zero lost commits.
func TestGuardianKillMidWorkload(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 3, 1, clock)
	lib, err := core.Init(r.net, clock)
	if err != nil {
		t.Fatal(err)
	}
	db, err := lib.CreateDB("accounts", 32768)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.InitDB(db); err != nil {
		t.Fatal(err)
	}

	var events []Event
	var evMu sync.Mutex
	g, err := New(r.net, clock, Config{
		Interval: time.Second,
		Misses:   3,
		Spares:   r.spares,
		OnEvent: func(ev Event) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	commit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if err := lib.Update(func(tx *core.Tx) error {
				off := uint64((int(lib.CommittedTxID()) * 128) % 32000)
				if err := tx.SetRange(db, off, 64); err != nil {
					return err
				}
				copy(db.Bytes()[off:off+64], bytes.Repeat([]byte{byte(lib.CommittedTxID() + 1)}, 64))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	commit(5)
	tick(t, g, clock, time.Second)
	for _, row := range g.Status() {
		if row.State != Healthy {
			t.Fatalf("slot %d %s before the kill", row.Slot, row.State)
		}
	}

	// Kill mirror 1 mid-workload.
	r.servers[1].Crash()
	commit(3)

	// Detection within the threshold: two suspect beats, the third
	// confirms death and triggers the rebuild — during which more
	// transactions commit concurrently.
	tick(t, g, clock, time.Second)
	tick(t, g, clock, time.Second)
	if st := g.Status()[1]; st.State != Suspect || st.Misses != 2 {
		t.Fatalf("after 2 missed beats: %+v", st)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		commit(10)
	}()
	tick(t, g, clock, time.Second) // confirms death, rebuilds synchronously
	wg.Wait()

	st := g.Status()[1]
	if st.State != Restored {
		t.Fatalf("slot 1 after rebuild: %+v", st)
	}
	if st.Mirror != "spare0" {
		t.Fatalf("slot 1 occupied by %q, want spare0", st.Mirror)
	}
	if st.Deaths != 1 || st.RebuildBytes == 0 {
		t.Fatalf("health row after rebuild: %+v", st)
	}
	if g.SparesLeft() != 0 {
		t.Fatalf("spares left = %d, want 0", g.SparesLeft())
	}
	if r.net.Live() != 3 {
		t.Fatalf("live mirrors = %d, want 3 (replication factor restored)", r.net.Live())
	}

	// Zero lost commits: every region byte-identical on every mirror,
	// and one more transaction lands everywhere.
	commit(1)
	if got := lib.CommittedTxID(); got != 19 {
		t.Fatalf("committed tx id = %d, want 19", got)
	}
	if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("verify after rebuild: %v %v", mm, err)
	}

	// The next good beat relaxes Restored to Healthy.
	tick(t, g, clock, time.Second)
	if st := g.Status()[1]; st.State != Healthy {
		t.Fatalf("slot 1 after restored beat: %v", st.State)
	}

	// The state machine walked exactly the documented path.
	var path []State
	evMu.Lock()
	for _, ev := range events {
		if ev.Slot == 1 {
			path = append(path, ev.To)
		}
	}
	evMu.Unlock()
	want := []State{Suspect, Dead, Rebuilding, Restored, Healthy}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("slot 1 transitions = %v, want %v", path, want)
	}

	m := g.Metrics()
	if m.Deaths.Load() != 1 || m.Rebuilds.Load() != 1 || m.RebuildFailures.Load() != 0 {
		t.Fatalf("metrics: deaths=%d rebuilds=%d failures=%d",
			m.Deaths.Load(), m.Rebuilds.Load(), m.RebuildFailures.Load())
	}
}

// TestGuardianIdleIsClockNeutral pins the reproduction guarantee: with
// every mirror healthy, detector passes charge no virtual time, so a
// guardian left enabled cannot shift a reproduced figure.
func TestGuardianIdleIsClockNeutral(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 3, 1, clock)
	g, err := New(r.net, clock, Config{Interval: time.Second, Misses: 3, Spares: r.spares})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := r.net.Malloc("fig", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	for i := 0; i < 50; i++ {
		g.Poll()
	}
	if after := clock.Now(); after != before {
		t.Fatalf("idle guardian advanced virtual time by %v", after-before)
	}
	if got := g.Metrics().Heartbeats.Load(); got != 150 {
		t.Fatalf("heartbeats = %d, want 150", got)
	}
}

// TestGuardianRevivesHealedPartition: a partitioned node keeps its
// memory; when it answers again the guardian reintegrates it in place
// instead of burning a spare.
func TestGuardianRevivesHealedPartition(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 2, 0, clock)
	reg, err := r.net.Malloc("db", 8192)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("partition tolerant"))
	if err := r.net.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	g, err := New(r.net, clock, Config{Interval: time.Second, Misses: 2})
	if err != nil {
		t.Fatal(err)
	}

	r.servers[1].Partition()
	tick(t, g, clock, time.Second)
	tick(t, g, clock, time.Second)
	st := g.Status()[1]
	if st.State != Dead {
		t.Fatalf("slot 1 after threshold: %v", st.State)
	}
	// Dead with an empty pool: recorded, not fatal.
	if !errors.Is(st.LastError, ErrNoSpares) {
		t.Fatalf("LastError = %v, want ErrNoSpares", st.LastError)
	}
	if r.net.Live() != 1 {
		t.Fatalf("live = %d, want 1", r.net.Live())
	}

	r.servers[1].Heal()
	tick(t, g, clock, time.Second)
	if st := g.Status()[1]; st.State != Restored {
		t.Fatalf("slot 1 after heal: %+v", st)
	}
	if got := g.Metrics().Revives.Load(); got != 1 {
		t.Fatalf("revives = %d, want 1", got)
	}
	if r.net.Live() != 2 {
		t.Fatalf("live after revive = %d, want 2", r.net.Live())
	}
	if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("verify after revive: %v %v", mm, err)
	}
}

// TestGuardianRevivesClientDegradedMirror: a mirror the client took off
// the data path itself (lag overflow, a failed write) never misses a
// probe, so no Suspect/Dead walk ever starts for it. The first pass that
// finds it answering but down revives it in place.
func TestGuardianRevivesClientDegradedMirror(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 3, 0, clock)
	reg, err := r.net.Malloc("db", 8192)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(r.net, clock, Config{Interval: time.Second, Misses: 2})
	if err != nil {
		t.Fatal(err)
	}
	tick(t, g, clock, time.Second)

	// The client degrades healthy mirror C, then keeps committing on the
	// other two: C now lags and nothing but a revive can resync it.
	if err := r.net.MarkMirrorDown(2); err != nil {
		t.Fatal(err)
	}
	copy(reg.Local[100:], []byte("written while C was off the data path"))
	if err := r.net.Push(reg, 100, 64); err != nil {
		t.Fatal(err)
	}
	if r.net.Live() != 2 {
		t.Fatalf("live = %d, want 2", r.net.Live())
	}

	tick(t, g, clock, time.Second)
	if st := g.Status()[2]; st.State != Restored || st.LastError != nil {
		t.Fatalf("slot 2 one pass after the client degraded it: %+v", st)
	}
	if got := g.Metrics().Revives.Load(); got != 1 {
		t.Fatalf("revives = %d, want 1", got)
	}
	if got := g.Metrics().Deaths.Load(); got != 0 {
		t.Fatalf("deaths = %d, want 0: the mirror never missed a probe", got)
	}
	if r.net.Live() != 3 {
		t.Fatalf("live after revive = %d, want 3", r.net.Live())
	}
	if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("verify after revive: %v %v", mm, err)
	}
	tick(t, g, clock, time.Second)
	if st := g.Status()[2]; st.State != Healthy {
		t.Fatalf("slot 2 on the next good probe: %v", st.State)
	}
}

// TestGuardianRebuildFailureReturnsSpare: a rebuild that cannot finish
// puts the spare back at the head of the pool and leaves the slot Dead
// for the next pass to retry.
func TestGuardianRebuildFailureReturnsSpare(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 2, 1, clock)
	if _, err := r.net.Malloc("db", 4096); err != nil {
		t.Fatal(err)
	}
	g, err := New(r.net, clock, Config{Interval: time.Second, Misses: 1, Spares: r.spares})
	if err != nil {
		t.Fatal(err)
	}
	r.servers[1].Crash()
	r.spareSv[0].Partition() // the spare is unreachable too
	tick(t, g, clock, time.Second)
	st := g.Status()[1]
	if st.State != Dead || st.LastError == nil {
		t.Fatalf("after failed rebuild: %+v", st)
	}
	if g.SparesLeft() != 1 {
		t.Fatalf("spare consumed by a failed rebuild: left=%d", g.SparesLeft())
	}
	if g.Metrics().RebuildFailures.Load() != 1 {
		t.Fatal("rebuild failure not counted")
	}

	// The spare comes back: the next pass retries and succeeds.
	r.spareSv[0].Heal()
	tick(t, g, clock, time.Second)
	if st := g.Status()[1]; st.State != Restored {
		t.Fatalf("after retry: %+v", st)
	}
	if g.SparesLeft() != 0 || r.net.Live() != 2 {
		t.Fatalf("retry outcome: spares=%d live=%d", g.SparesLeft(), r.net.Live())
	}
}

// TestGuardianWallClockLoop smoke-tests Start/Stop end to end on real
// time: kill a mirror, watch the loop detect and rebuild.
func TestGuardianWallClockLoop(t *testing.T) {
	clock := simclock.NewWall()
	r := newRig(t, 2, 1, clock)
	reg, err := r.net.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("wall clock"))
	if err := r.net.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	g, err := New(r.net, clock, Config{Interval: 2 * time.Millisecond, Misses: 2, Spares: r.spares})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err == nil {
		t.Fatal("double Start allowed")
	}
	defer g.Stop()

	r.servers[1].Crash()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := g.Status()[1]
		if st.Deaths >= 1 && (st.State == Restored || st.State == Healthy) && r.net.Live() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop never restored the mirror: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("verify: %v %v", mm, err)
	}
	g.Stop() // idempotent with the deferred Stop
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		Healthy: "healthy", Suspect: "suspect", Dead: "dead",
		Rebuilding: "rebuilding", Restored: "restored", State(42): "state(42)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
}

func TestNewValidation(t *testing.T) {
	clock := simclock.NewSim()
	r := newRig(t, 1, 0, clock)
	if _, err := New(nil, clock, Config{}); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := New(r.net, nil, Config{}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := New(r.net, clock, Config{Spares: []netram.Mirror{{Name: "x"}}}); err == nil {
		t.Error("transportless spare accepted")
	}
	g, err := New(r.net, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults applied; Tick not due until one interval elapses.
	if g.Tick() {
		t.Error("Tick fired with no time elapsed")
	}
	clock.Advance(time.Second)
	if !g.Tick() {
		t.Error("Tick did not fire after the default interval")
	}
}
