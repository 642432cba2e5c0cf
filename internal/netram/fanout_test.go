package netram

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// gated wraps a transport and parks every Write/WriteBatch until the
// gate channel is closed, simulating a mirror that is alive but slow.
type gated struct {
	transport.Transport
	gate chan struct{}
}

func (g *gated) Write(seg uint32, offset uint64, data []byte) error {
	<-g.gate
	return g.Transport.Write(seg, offset, data)
}

func (g *gated) WriteBatch(writes []transport.BatchWrite) error {
	<-g.gate
	if bw, ok := g.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := g.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// mirrorBytes reads n bytes of a named region directly from a mirror's
// server, bypassing the client.
func mirrorBytes(t *testing.T, srv *memserver.Server, name string, off, n uint64) []byte {
	t.Helper()
	seg, err := srv.Connect(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Read(seg.ID, off, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestParallelFanoutNotDelayedBySlowMirror pins the point of the
// parallel fan-out: while one mirror's write is parked (a retry, a
// stalled TCP peer), the other mirror's write completes independently —
// its server holds the bytes before the slow mirror is released.
func TestParallelFanoutNotDelayedBySlowMirror(t *testing.T) {
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []Mirror
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == 1 {
			tp = &gated{Transport: tr, gate: gate}
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("independent"))

	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 11) }()

	// The fast mirror must receive the bytes while the slow mirror is
	// still parked and the overall Push has not returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := mirrorBytes(t, servers[0], "db", 0, 11); bytes.Equal(got, []byte("independent")) {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("push returned (%v) before fast mirror had the bytes", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("fast mirror never received the push while the slow one was parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("push returned %v while one mirror was still parked", err)
	default:
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("push: %v", err)
	}
	if got := mirrorBytes(t, servers[1], "db", 0, 11); !bytes.Equal(got, []byte("independent")) {
		t.Errorf("slow mirror holds %q", got)
	}
}

// TestParallelFanoutRetryIsolated checks the worker-side retry: a
// transient failure on one mirror is retried inside that mirror's
// worker and succeeds without surfacing, while the healthy mirror is
// untouched.
func TestParallelFanoutRetryIsolated(t *testing.T) {
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []Mirror
	var fl *flaky
	for i := 0; i < 2; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == 1 {
			fl = &flaky{Transport: tr}
			tp = fl
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("retried"))

	fl.failNext = 1
	if err := c.Push(reg, 0, 7); err != nil {
		t.Fatalf("transient failure should be retried in the worker: %v", err)
	}
	if got := c.Metrics().Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if c.Live() != 2 {
		t.Error("pingable mirror was degraded")
	}
	for i, srv := range servers {
		if got := mirrorBytes(t, srv, "db", 0, 7); !bytes.Equal(got, []byte("retried")) {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}
}

// TestSerialParallelEquivalence pins figure neutrality: the same push
// sequence over the parallel fan-out and over WithSerialFanout charges
// identical virtual time and identical traffic stats. SimClock.Advance
// is additive and commutative, so worker interleaving cannot change the
// sum.
func TestSerialParallelEquivalence(t *testing.T) {
	run := func(opts ...Option) (time.Duration, Stats) {
		r := newRig(t, 3, opts...)
		reg, err := r.client.Malloc("db", 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reg.Local {
			reg.Local[i] = byte(i)
		}
		for k := 0; k < 10; k++ {
			if err := r.client.Push(reg, uint64(k*64), 64); err != nil {
				t.Fatal(err)
			}
			if err := r.client.PushMany(reg, []Range{
				{Offset: uint64(k * 128), Length: 100},
				{Offset: 4096 + uint64(k*96), Length: 33},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return r.clock.Now(), r.client.Stats()
	}
	parTime, parStats := run()
	serTime, serStats := run(WithSerialFanout())
	if parTime != serTime {
		t.Errorf("virtual time diverged: parallel %v, serial %v", parTime, serTime)
	}
	if parStats != serStats {
		t.Errorf("stats diverged:\nparallel %+v\nserial   %+v", parStats, serStats)
	}
}

// TestPushAllocsZero pins the allocation-free steady-state commit path:
// after warm-up, Push and PushMany over a 2-mirror parallel fan-out
// allocate nothing.
func TestPushAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Offset: 0, Length: 64}, {Offset: 512, Length: 200}, {Offset: 2048, Length: 9}}
	for i := 0; i < 8; i++ { // warm the worker pool and scratch buffers
		if err := r.client.Push(reg, 128, 64); err != nil {
			t.Fatal(err)
		}
		if err := r.client.PushMany(reg, ranges); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.client.Push(reg, 128, 64); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Push allocates %.1f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.client.PushMany(reg, ranges); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PushMany allocates %.1f objects per run, want 0", n)
	}
}

// TestCloseDegradesToSerial: a closed client keeps its data path — a
// push after Close runs the serial loop instead of panicking on the
// stopped workers.
func TestCloseDegradesToSerial(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("before"))
	if err := r.client.Push(reg, 0, 6); err != nil { // spins up workers
		t.Fatal(err)
	}
	r.client.Close()
	r.client.Close() // idempotent
	copy(reg.Local, []byte("afterx"))
	if err := r.client.Push(reg, 0, 6); err != nil {
		t.Fatalf("push after Close: %v", err)
	}
	for i, srv := range r.servers {
		if got := mirrorBytes(t, srv, "db", 0, 6); !bytes.Equal(got, []byte("afterx")) {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}
}

// TestRaceMirrorDeathAndRebuild hammers the fan-out, all-ack and at
// quorum, while a mirror dies and is rebuilt onto a replacement — the
// torture test the race detector runs over the topology lock, the
// dirty-range tracking, the sender queues and the catch-up drain. No
// push may fail (a mirror lost mid-flight leaves the denominator), and
// after the dust settles every surviving mirror must match local memory
// byte for byte. (Not w=1: there lag may degrade two of the three
// mirrors, and the test's kill could then take the last one.)
func TestRaceMirrorDeathAndRebuild(t *testing.T) {
	for _, w := range []int{0, 2} {
		t.Run(quorumName(w), func(t *testing.T) { raceMirrorDeathAndRebuild(t, w) })
	}
}

func quorumName(w int) string {
	if w == 0 {
		return "all-ack"
	}
	return fmt.Sprintf("w=%d", w)
}

func raceMirrorDeathAndRebuild(t *testing.T, w int) {
	r := newRig(t, 3, WithQuorum(w))
	reg, err := r.client.Malloc("db", 16384)
	if err != nil {
		t.Fatal(err)
	}

	spareSrv := memserver.New(memserver.WithLabel("spare"))
	spareTr, err := transport.NewInProc(spareSrv, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}

	const pushers, ring = 4, 32
	var stop atomic.Bool
	var progress [pushers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 4096)
			// A range is rewritten only once the stragglers of its last push
			// have landed — the discipline core applies to undo slots.
			var fences [ring]Fence
			for k := 0; !stop.Load(); k++ {
				for !fences[k%ring].Done() {
					runtime.Gosched()
				}
				off := base + uint64(k%ring)*64
				copy(reg.Local[off:off+64], bytes.Repeat([]byte{byte(g<<4 | k&0xf)}, 64))
				if err := r.client.PushMany(reg, []Range{{Offset: off, Length: 64}}); err != nil {
					t.Errorf("pusher %d: %v", g, err)
					return
				}
				fences[k%ring] = r.client.Fence()
				progress[g].Add(1)
			}
		}(g)
	}
	// advance waits until every pusher completed n more pushes.
	advance := func(n int64) {
		for g := range progress {
			for target := progress[g].Load() + n; progress[g].Load() < target && !t.Failed(); {
				runtime.Gosched()
			}
		}
	}

	advance(64)
	if err := r.client.MarkMirrorDown(2); err != nil {
		t.Fatal(err)
	}
	advance(64)
	if err := r.client.RebuildMirror(2, Mirror{Name: "spare", T: spareTr}, nil); err != nil {
		t.Fatal(err)
	}
	advance(64)
	stop.Store(true)
	wg.Wait()

	mismatches, err := r.client.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-rebuild divergence: %v", m)
	}
}

// lossy wraps the victim mirror's transport with the failures the
// policy table injects. Writes park while gate is open for parking
// (signalling entered once parked), then fail if the node is dead (its
// pings fail too) or while failWrites is positive (pings still succeed:
// an alive mirror failing a write).
type lossy struct {
	transport.Transport
	gate       chan struct{}
	entered    chan struct{}
	dead       atomic.Bool
	failWrites atomic.Int32
}

func (l *lossy) attempt() error {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	<-l.gate
	if l.dead.Load() {
		return errors.New("lossy: node is gone")
	}
	if l.failWrites.Add(-1) >= 0 {
		return errors.New("lossy: write refused")
	}
	return nil
}

func (l *lossy) Write(seg uint32, offset uint64, data []byte) error {
	if err := l.attempt(); err != nil {
		return err
	}
	return l.Transport.Write(seg, offset, data)
}

func (l *lossy) WriteBatch(writes []transport.BatchWrite) error {
	if err := l.attempt(); err != nil {
		return err
	}
	return l.Transport.(transport.BatchWriter).WriteBatch(writes)
}

func (l *lossy) Ping() error {
	if l.dead.Load() {
		return errors.New("lossy: node is gone")
	}
	return l.Transport.Ping()
}

// policyRig is a 3-mirror client at ack quorum w (0 = all-ack) whose
// last mirror is the lossy victim. push(k) stamps and pushes the k-th
// 8-byte cell (cells are 64 bytes apart and below the alignment
// threshold, so a cell's wire range is exactly its 8 bytes).
type policyRig struct {
	t       *testing.T
	c       *Client
	servers []*memserver.Server
	victim  *lossy
	reg     *Region
	many    bool
}

func newPolicyRig(t *testing.T, w int, many, gated bool) *policyRig {
	t.Helper()
	r := newRig(t, 3)
	p := &policyRig{t: t, many: many, servers: r.servers}
	mirrors := append([]Mirror(nil), r.client.mirrors...)
	p.victim = &lossy{Transport: mirrors[2].T, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	if !gated {
		close(p.victim.gate)
	}
	mirrors[2].T = p.victim
	var err error
	if p.c, err = NewClient(mirrors, WithQuorum(w)); err != nil {
		t.Fatal(err)
	}
	if p.reg, err = p.c.Malloc("db", 8192); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *policyRig) stamp(k int) {
	copy(p.reg.Local[k*64:], []byte{0xA0, byte(k), 2, 3, 4, 5, 6, 7})
}

func (p *policyRig) push(k int) error {
	if p.many {
		return p.c.PushMany(p.reg, []Range{{Offset: uint64(k * 64), Length: 8}})
	}
	return p.c.Push(p.reg, uint64(k*64), 8)
}

// pushAsync stamps cell k here and pushes it from its own goroutine.
func (p *policyRig) pushAsync(k int, res chan<- error) {
	p.stamp(k)
	go func() { res <- p.push(k) }()
}

// awaitQueued spins until the victim's sender has been handed n more
// jobs than it finished.
func (p *policyRig) awaitQueued(n int) {
	for p.c.CatchUpPending(2) != n {
		runtime.Gosched()
	}
}

// settle drains the stragglers and checks the one outcome every lost-
// mirror cell must show: the victim's state (down iff lost), survivors
// byte-identical with local memory, and the victim holding exactly the
// cells in onVictim out of total — nothing written past its failure
// point.
func (p *policyRig) settle(lost bool, total int, onVictim ...int) {
	p.t.Helper()
	p.c.WaitCatchUp()
	if got := p.c.MirrorDown(2); got != lost {
		p.t.Errorf("victim down = %v, want %v", got, lost)
	}
	for i := 0; i < 2; i++ {
		if p.c.MirrorDown(i) {
			p.t.Errorf("survivor %d was degraded", i)
		}
		if got := mirrorBytes(p.t, p.servers[i], "db", 0, p.reg.Size()); !bytes.Equal(got, p.reg.Local) {
			p.t.Errorf("survivor %d diverges from local memory", i)
		}
	}
	for k := 0; k < total; k++ {
		got := mirrorBytes(p.t, p.servers[2], "db", uint64(k*64), 8)
		want := make([]byte, 8)
		if slices.Contains(onVictim, k) {
			want = p.reg.Local[k*64 : k*64+8]
		}
		if !bytes.Equal(got, want) {
			p.t.Errorf("victim cell %d holds %x, want %x", k, got, want)
		}
	}
}

// TestMidFlightLossPolicy is the fan-out's one availability policy as a
// table: whatever the ack quorum, whatever took the mirror away between
// dispatch and join, and whichever push form carried the write, the
// push succeeds on the mirrors that are left, the lost mirror is down,
// the survivors hold local memory, and the lost mirror received nothing
// past its failure point. The alive-failure rows pin the other half: a
// write refused by a mirror that still answers pings fails the push
// (and leaves the mirror live for the caller's repair) exactly when the
// push needed that mirror, and degrades the mirror otherwise.
func TestMidFlightLossPolicy(t *testing.T) {
	for _, w := range []int{1, 2, 0} {
		for _, many := range []bool{false, true} {
			name := quorumName(w) + "/push"
			if many {
				name = quorumName(w) + "/pushmany"
			}
			t.Run(name+"/ping-fails-during-write", func(t *testing.T) {
				p := newPolicyRig(t, w, many, false)
				p.victim.dead.Store(true)
				for k := 0; k < 2; k++ { // the second push finds it already down
					p.stamp(k)
					if err := p.push(k); err != nil {
						t.Fatalf("push %d: %v", k, err)
					}
					p.c.WaitCatchUp()
				}
				p.settle(true, 2)
			})
			t.Run(name+"/marked-down-while-queued", func(t *testing.T) {
				p := newPolicyRig(t, w, many, true)
				res := make(chan error, 2)
				p.pushAsync(0, res)
				<-p.victim.entered // cell 0's write is parked inside the victim
				p.pushAsync(1, res)
				p.awaitQueued(2) // cell 1's job is queued behind it
				if err := p.c.MarkMirrorDown(2); err != nil {
					t.Fatal(err)
				}
				close(p.victim.gate)
				for k := 0; k < 2; k++ {
					if err := <-res; err != nil {
						t.Errorf("push: %v", err)
					}
				}
				p.settle(true, 2, 0) // the in-flight write landed; the queued one was dropped
			})
			t.Run(name+"/lag-overflow", func(t *testing.T) {
				p := newPolicyRig(t, w, many, true)
				// One write parked in the victim, catchUpQueueLen queued
				// behind it, and one more than fits.
				const total = catchUpQueueLen + 2
				if w == 0 {
					// Every all-ack push needs the victim's ack, so a full
					// queue can only be backpressure: nothing is lost.
					res := make(chan error, total)
					for k := 0; k < total; k++ {
						p.pushAsync(k, res)
					}
					// All but one fit; the last holds sendMu while it is
					// blocked on the full queue, not yet counted.
					p.awaitQueued(total - 1)
					for p.c.sendMu[2].TryLock() {
						p.c.sendMu[2].Unlock()
						runtime.Gosched()
					}
					close(p.victim.gate)
					all := make([]int, total)
					for k := range all {
						all[k] = k
						if err := <-res; err != nil {
							t.Errorf("push: %v", err)
						}
					}
					p.settle(false, total, all...)
					if got := p.c.Metrics().CatchUpOverflows.Load(); got != 0 {
						t.Errorf("all-ack client counted %d catch-up overflows", got)
					}
					return
				}
				for k := 0; k < total; k++ {
					p.stamp(k)
					if err := p.push(k); err != nil {
						t.Fatalf("push %d: %v", k, err)
					}
					// Only the victim lags: the survivors keep up (at w=1
					// the push returned on the first of them).
					for p.c.CatchUpPending(0)+p.c.CatchUpPending(1) != 0 {
						runtime.Gosched()
					}
				}
				if got := p.c.Metrics().CatchUpOverflows.Load(); got != 1 {
					t.Errorf("catch-up overflows = %d, want 1", got)
				}
				close(p.victim.gate)
				p.settle(true, total, 0)
			})
			t.Run(name+"/alive-mirror-refuses-write", func(t *testing.T) {
				p := newPolicyRig(t, w, many, false)
				p.victim.failWrites.Store(2) // the attempt and its retry
				p.stamp(0)
				err := p.push(0)
				if w != 0 {
					// The push did not need the victim: the caller never
					// learns of the failure, so the mirror is degraded.
					if err != nil {
						t.Fatalf("push: %v", err)
					}
					p.settle(true, 1)
					return
				}
				if err == nil || !strings.Contains(err.Error(), "nodeC") {
					t.Fatalf("all-ack push past a refusing mirror: %v", err)
				}
				if p.c.Live() != 3 {
					t.Error("alive-but-failing mirror was degraded although the caller saw the error")
				}
				if err := p.push(0); err != nil { // the caller's repair
					t.Fatalf("re-push: %v", err)
				}
				p.settle(false, 1, 0)
			})
		}
	}
}
