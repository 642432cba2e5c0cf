package netram

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// newQuorumRig builds a w-of-n client whose LAST mirror's writes park
// on the returned gate until it is closed — a straggler that is alive
// (it answers pings and probes) but arbitrarily slow.
func newQuorumRig(t *testing.T, n, w int) (*Client, []*memserver.Server, chan struct{}) {
	t.Helper()
	clock := simclock.NewSim()
	gate := make(chan struct{})
	var servers []*memserver.Server
	var mirrors []Mirror
	for i := 0; i < n; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == n-1 {
			tp = &gated{Transport: tr, gate: gate}
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors, WithQuorum(w))
	if err != nil {
		t.Fatal(err)
	}
	return c, servers, gate
}

func TestWithQuorumValidation(t *testing.T) {
	mirrors := func(n int) []Mirror {
		clock := simclock.NewSim()
		var ms []Mirror
		for i := 0; i < n; i++ {
			srv := memserver.New()
			tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, Mirror{Name: "m", T: tr})
		}
		return ms
	}
	if _, err := NewClient(mirrors(3), WithQuorum(4)); err == nil {
		t.Error("quorum larger than the mirror count should be rejected")
	}
	if _, err := NewClient(mirrors(3), WithQuorum(-1)); err == nil {
		t.Error("negative quorum should be rejected")
	}
	if _, err := NewClient(mirrors(3), WithQuorum(2), WithSerialFanout()); err == nil {
		t.Error("quorum needs the parallel fan-out; serial + quorum should be rejected")
	}
	// w == n is the all-ack default: the quorum machinery must be off.
	c, err := NewClient(mirrors(3), WithQuorum(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Quorum(); got != 0 {
		t.Errorf("Quorum() = %d after WithQuorum(n); want 0 (all-ack default)", got)
	}
	c2, err := NewClient(mirrors(3), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Quorum(); got != 2 {
		t.Errorf("Quorum() = %d, want 2", got)
	}
}

// TestQuorumPushReturnsBeforeStraggler pins the tentpole behaviour: a
// 2-of-3 push returns once two mirrors acked, while the third is still
// parked; the straggler catches up asynchronously and WaitCatchUp is
// the barrier after which every mirror holds the bytes.
func TestQuorumPushReturnsBeforeStraggler(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("quorum-fast"))

	// The push must return even though mirror C cannot complete: two
	// acks are a quorum. (A hang here is the bug this test pins.)
	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 11) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("quorum push: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("2-of-3 push did not return while the straggler was parked")
	}

	// The fast mirrors hold the bytes; the straggler does not yet.
	for i := 0; i < 2; i++ {
		if got := mirrorBytes(t, servers[i], "db", 0, 11); !bytes.Equal(got, []byte("quorum-fast")) {
			t.Errorf("fast mirror %d holds %q", i, got)
		}
	}
	if got := mirrorBytes(t, servers[2], "db", 0, 11); bytes.Equal(got, []byte("quorum-fast")) {
		t.Error("straggler already holds the bytes; the gate is not parking writes")
	}
	if got := c.CatchUpPending(2); got != 1 {
		t.Errorf("CatchUpPending(straggler) = %d, want 1", got)
	}
	if snap := c.Metrics().AckDepth.Snapshot(); snap.Count != 1 {
		t.Errorf("AckDepth observations = %d, want 1", snap.Count)
	}

	// Release the straggler: catch-up completes and the mirrors
	// converge.
	close(gate)
	c.WaitCatchUp()
	if got := c.CatchUpPending(2); got != 0 {
		t.Errorf("CatchUpPending after WaitCatchUp = %d, want 0", got)
	}
	if got := mirrorBytes(t, servers[2], "db", 0, 11); !bytes.Equal(got, []byte("quorum-fast")) {
		t.Errorf("straggler holds %q after catch-up", got)
	}
	if c.Live() != 3 {
		t.Errorf("Live = %d, want 3 (a slow mirror is not a dead mirror)", c.Live())
	}
}

// TestQuorumFenceTracksStragglers: a fence taken mid-flight reports
// not-done until the straggler retires, and the zero fence (and any
// fence from an all-ack client) is trivially done.
func TestQuorumFenceTracksStragglers(t *testing.T) {
	var zero Fence
	if !zero.Done() {
		t.Error("zero fence must be trivially done")
	}

	c, _, gate := newQuorumRig(t, 3, 2)
	if f := c.Fence(); !f.Done() {
		t.Error("fence with nothing in flight must be done")
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	f := c.Fence()
	if f.Done() {
		t.Error("fence must cover the parked straggler write")
	}
	close(gate)
	c.WaitCatchUp()
	if !f.Done() {
		t.Error("fence must be done once the straggler retired")
	}
}

// TestQuorumCatchUpOverflowDegradesMirror: a mirror that falls more
// than catchUpQueueLen writes behind is degraded (handed to the
// guardian's rebuild path) instead of accumulating unbounded lag —
// and the commit path keeps going on the remaining quorum.
func TestQuorumCatchUpOverflowDegradesMirror(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	events := flight.New(16)
	events.Enable()
	c.SetFlight(events)
	reg, err := c.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	// The parked worker holds one job; catchUpQueueLen more queue up;
	// the next dispatch overflows and degrades the mirror.
	for i := 0; i < catchUpQueueLen+6; i++ {
		off := uint64(i%32) * 64
		copy(reg.Local[off:off+8], []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		if err := c.Push(reg, off, 8); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if got := c.Metrics().CatchUpOverflows.Load(); got == 0 {
		t.Error("catch-up overflow was never counted")
	}
	if got := c.Live(); got != 2 {
		t.Errorf("Live = %d, want 2 (overflowed mirror degraded)", got)
	}
	// The event alone must say which mirror, how deep, and that an
	// exchange was in flight — lag, not an unscheduled worker.
	var detail string
	for _, ev := range events.Snapshot() {
		if ev.Kind == flight.CatchUpOverflow {
			detail = ev.Detail
		}
	}
	for _, want := range []string{"nodeC", fmt.Sprintf("depth %d", catchUpQueueLen), "in-flight exchange"} {
		if !strings.Contains(detail, want) {
			t.Errorf("overflow event %q does not mention %q", detail, want)
		}
	}

	// Release the parked worker so the queue drains (queued jobs for
	// the now-down mirror are dropped, preserving its write prefix).
	close(gate)
	c.WaitCatchUp()
	for i := 0; i < 2; i++ {
		if got := mirrorBytes(t, servers[i], "db", 0, 8); len(got) != 8 {
			t.Errorf("survivor %d unreadable", i)
		}
	}
}

// TestFenceHoldsAcrossCatchUpOverflow: an overflow drop finishes on the
// dispatcher, out of queue order, so it must not advance the counters a
// Fence reads — core reuses an undo slot (and rewrites the bytes a
// straggler's payload aliases) as soon as the slot's fence is done.
func TestFenceHoldsAcrossCatchUpOverflow(t *testing.T) {
	c, _, gate := newQuorumRig(t, 3, 2)
	reg, err := c.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	push := func(i int) {
		off := uint64(i%32) * 64
		reg.Local[off] = byte(i)
		if err := c.Push(reg, off, 8); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	push(0) // parks inside mirror C's Write, or queues behind nothing
	f := c.Fence()
	for i := 1; c.Metrics().CatchUpOverflows.Load() == 0; i++ {
		if i > catchUpQueueLen+2 {
			t.Fatal("queue never overflowed")
		}
		push(i)
	}
	if f.Done() {
		t.Fatal("fence done with its write still parked inside the mirror")
	}
	close(gate)
	c.WaitCatchUp()
	if !f.Done() {
		t.Error("fence not done after the queue drained")
	}
}

// TestFullQueueBehindIdleWorkerIsBackpressure is the other half of the
// overflow rule: a full catch-up queue whose worker is parked BETWEEN
// jobs — no exchange in flight, merely not running — must hold the
// dispatcher back, not degrade a healthy mirror.
func TestFullQueueBehindIdleWorkerIsBackpressure(t *testing.T) {
	r := newRig(t, 3, WithQuorum(2))
	c := r.client
	parked, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.betweenJobs = func(slot int) {
		if slot == 2 {
			once.Do(func() { close(parked); <-hold })
		}
	}
	reg, err := c.Malloc("db", 8192)
	if err != nil {
		t.Fatal(err)
	}
	push := func(k int) error {
		copy(reg.Local[k*64:], []byte{0xB0, byte(k), 2, 3, 4, 5, 6, 7})
		return c.Push(reg, uint64(k*64), 8)
	}
	if err := push(0); err != nil {
		t.Fatal(err)
	}
	<-parked // mirror C's worker finished cell 0 and is parked between jobs
	for k := 1; k <= catchUpQueueLen; k++ {
		if err := push(k); err != nil { // fills C's queue; A and B ack
			t.Fatalf("push %d: %v", k, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- push(catchUpQueueLen + 1) }() // one more than fits
	// The pusher holds sendMu[2] for as long as it is blocked on the send.
	for blocked := false; !blocked; runtime.Gosched() {
		select {
		case err := <-done:
			t.Fatalf("push returned (%v) past a full queue whose worker was idle", err)
		default:
		}
		if blocked = !c.sendMu[2].TryLock(); !blocked {
			c.sendMu[2].Unlock()
		}
	}
	if got := c.CatchUpPending(2); got != catchUpQueueLen {
		t.Errorf("pending = %d, want %d (a blocked send is not yet on the queue)", got, catchUpQueueLen)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held-back push: %v", err)
	}
	c.WaitCatchUp()
	if got := c.Metrics().CatchUpOverflows.Load(); got != 0 {
		t.Errorf("catch-up overflows = %d, want 0", got)
	}
	if got := c.Live(); got != 3 {
		t.Errorf("Live = %d, want 3 (an unscheduled worker is not a lagging mirror)", got)
	}
	for i, srv := range r.servers {
		if got := mirrorBytes(t, srv, "db", 0, reg.Size()); !bytes.Equal(got, reg.Local) {
			t.Errorf("mirror %d diverges from local memory", i)
		}
	}
}

// errSeq fails write attempts with a scripted sequence of DISTINCT
// errors, so a test can tell which attempt's error surfaced. A nil
// entry (or an exhausted script) passes the write through.
type errSeq struct {
	transport.Transport
	errs []error
}

func (e *errSeq) next() error {
	if len(e.errs) == 0 {
		return nil
	}
	err := e.errs[0]
	e.errs = e.errs[1:]
	return err
}

func (e *errSeq) Write(seg uint32, offset uint64, data []byte) error {
	if err := e.next(); err != nil {
		return err
	}
	return e.Transport.Write(seg, offset, data)
}

func (e *errSeq) WriteBatch(writes []transport.BatchWrite) error {
	if err := e.next(); err != nil {
		return err
	}
	if bw, ok := e.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := e.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// Fill makes errSeq a transport.Filler, so ZeroRangeTo takes the
// server-side fill path through the same script.
func (e *errSeq) Fill(seg uint32, offset, n uint64) error {
	if err := e.next(); err != nil {
		return err
	}
	return e.Transport.(transport.Filler).Fill(seg, offset, n)
}

func newErrSeqRig(t *testing.T) (*Client, *errSeq) {
	t.Helper()
	r := newRig(t, 1)
	es := &errSeq{Transport: r.client.mirrors[0].T}
	c, err := NewClient([]Mirror{{Name: "seq", T: es}})
	if err != nil {
		t.Fatal(err)
	}
	return c, es
}

// TestRetryErrorSurfacesFinalAttempt pins the one retry-and-classify
// routine on each operation that goes through it — a single write, a
// batch, a server-side fill. A transient failure on a mirror that still
// answers pings is retried once and absorbed; when the retry fails too,
// the error the caller sees is the RETRY's — the mirror's current
// failure mode — with the first attempt's error preserved as context,
// not the other way round.
func TestRetryErrorSurfacesFinalAttempt(t *testing.T) {
	ops := map[string]func(*Client, *Region) error{
		"write": func(c *Client, reg *Region) error { return c.Push(reg, 0, 8) },
		"batch": func(c *Client, reg *Region) error { return c.PushMany(reg, []Range{{Offset: 0, Length: 8}}) },
		"fill":  func(c *Client, reg *Region) error { return c.ZeroRangeTo(0, reg, 64, 128) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			c, es := newErrSeqRig(t)
			reg, err := c.Malloc("db", 256)
			if err != nil {
				t.Fatal(err)
			}
			errFirst := errors.New("transient connection reset")
			errRetry := errors.New("segment checksum mismatch")

			es.errs = []error{errFirst}
			if err := op(c, reg); err != nil {
				t.Fatalf("a transient failure must be absorbed by the retry: %v", err)
			}
			if got := c.Metrics().Retries.Load(); got != 1 {
				t.Errorf("retries = %d, want 1", got)
			}

			es.errs = []error{errFirst, errRetry}
			err = op(c, reg)
			if err == nil {
				t.Fatal("both attempts failing must error")
			}
			if !errors.Is(err, errRetry) {
				t.Errorf("surfaced error is not the retry's: %v", err)
			}
			if errors.Is(err, errFirst) {
				t.Errorf("stale first-attempt error surfaced as the failure: %v", err)
			}
			if !strings.Contains(err.Error(), errFirst.Error()) {
				t.Errorf("first attempt's error lost from the context: %v", err)
			}
			if c.Live() != 1 {
				t.Error("alive-but-failing mirror was degraded")
			}
		})
	}
}

// TestStragglerGaugeClearsOnSerialDegrade pins the gauge-staleness fix:
// once the client degrades to a single mirror (the serial path), the
// fanout_straggler_ns gauge must drop to zero instead of reporting the
// last parallel dispatch's spread forever.
func TestStragglerGaugeClearsOnSerialDegrade(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	// Simulate a recorded spread, then lose a mirror: the next push
	// runs serially and must clear the gauge.
	r.client.straggler.Store(42)
	if err := r.client.MarkMirrorDown(1); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	if got := r.client.straggler.Load(); got != 0 {
		t.Errorf("straggler gauge = %d after serial push, want 0", got)
	}
}

// TestStragglerGaugeClearsOnRebuild: a topology change (rebuild onto a
// spare) invalidates the last measured spread; the gauge resets.
func TestStragglerGaugeClearsOnRebuild(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	if err := r.client.MarkMirrorDown(1); err != nil {
		t.Fatal(err)
	}
	spare := memserver.New(memserver.WithLabel("spare"))
	spareTr, err := transport.NewInProc(spare, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}
	r.client.straggler.Store(42)
	if err := r.client.RebuildMirror(1, Mirror{Name: "spare", T: spareTr}, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.client.straggler.Load(); got != 0 {
		t.Errorf("straggler gauge = %d after rebuild, want 0", got)
	}
}
