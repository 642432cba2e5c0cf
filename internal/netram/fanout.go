// Replication fan-out: the one mechanism behind Push, PushMany and
// PushBatch. A push becomes one job per eligible mirror; each job runs
// on its mirror's long-lived sender worker — or inline on the caller's
// goroutine — and the caller joins on the first `need` acks. Over real
// transports the wall-clock cost of a commit is therefore the slowest
// needed mirror, not the sum of all of them: the posted-write behaviour
// the paper gets for free from SCI store-gathering. Retry and
// degradation classification run inside the job, so a flapping mirror's
// retry never delays a healthy one.
//
// The historical configurations are parameter values of this code, not
// other code: all-ack is need = every dispatched mirror (quorum with
// w = n), quorum commit is need = min(w, dispatched), and the serial
// fan-out (WithSerialFanout, a single eligible mirror, a closed client)
// is the same jobs executed inline in slot order.
//
// On the simulated SCI clock nothing depends on where jobs run:
// SimClock.Advance is additive and commutative, so the virtual time N
// workers charge equals the sequential sum, and the dispatcher samples
// the clock only before dispatch and after the join — reproduced
// figures stay byte-identical.
package netram

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// catchUpQueueLen bounds each mirror's sender channel, which is also
// its pending catch-up queue: writes a quorum push left behind park
// here until their turn. A mirror that falls further behind than this
// is degraded (and its queued writes dropped), handing it to the
// guardian's revive/rebuild path rather than letting unbounded lag
// accumulate. The bound is in writes, and the transaction library's
// commit is one write: every commit a mirror lags by pins one undo slot
// behind its fence, so the bound has to stay well under the library's
// slot cap (64) — or a hung mirror would exhaust the slots, and stall
// every Begin, before it ever overflowed its queue and left the data
// path. 32 commits is also more lag than the 64 writes of a
// three-write commit used to allow.
const catchUpQueueLen = 32

// errMirrorDown marks a write dropped because its mirror was degraded
// before the write ran. Dropping instead of writing keeps a down
// mirror's state a strict prefix of the push order — the property
// recovery's max-commit-word selection relies on.
var errMirrorDown = errors.New("netram: mirror degraded before queued write ran")

// wireSpan is one wire range of a push, alignment already applied:
// r.Local[lo:hi]. The spans of one push may name different regions.
type wireSpan struct {
	r      *Region
	lo, hi uint64
}

// fanoutJob is one mirror's share of a push. The dispatcher fills it
// under the topology read lock (so the Mirror value cannot be swapped
// mid-flight), whoever runs it writes the results, and the dispatcher
// reads them back under call.mu once done is set.
type fanoutJob struct {
	call *fanoutCall
	m    Mirror
	slot int
	// writes is the job's share of the payload in push order: one entry
	// per span whose region is mapped on the mirror, resolved to the
	// mirror's segment ids at dispatch. wire is its byte count. The slice
	// is persistent scratch.
	writes []transport.BatchWrite
	wire   uint64

	// Results. done and lost are guarded by call.mu; lost marks a failed
	// job whose mirror was down when the job finished.
	done, lost bool
	start, end time.Duration
	retried    bool
	err        error
}

// fanoutCall is the pooled per-push state: the payload, one job per
// dispatched mirror, and the join. Pooling it keeps the steady-state
// commit path allocation-free.
//
// Lifecycle: every call starts with one reference (the dispatcher's,
// dropped by releaseCall) and takes one more per job. The last
// reference to go — the dispatcher when it joined on every job, the
// slowest straggler's worker otherwise — runs reclaimCall: dirty-range
// recording, the straggler gauge, then back to the pool. Recording
// dirty ranges only once every job finished is what keeps the rebuild
// epochs honest: a range leaves the dirty set only after every survivor
// actually holds its bytes.
type fanoutCall struct {
	jobs []fanoutJob

	// The payload, identical for every job: the spans in push order (the
	// slice is persistent scratch), the bytes the caller asked for and the
	// bytes they became on the wire. single marks Push's one-range form,
	// which travels as a plain Write; everything else is one WriteBatch
	// per mirror, applied in order.
	spans         []wireSpan
	single        bool
	payload, wire uint64
	// tracking is set when rebuild dirty tracking was on at dispatch:
	// reclaim then records the payload's spans.
	tracking bool

	refs atomic.Int32

	// Join state, guarded by mu; cond wakes the dispatcher as jobs
	// finish. dispatched and need are fixed before the first job is
	// handed out. returned is set once the dispatcher has collected: a
	// job failing after that has nobody left to report to.
	mu                   sync.Mutex
	cond                 *sync.Cond
	dispatched, need     int
	finished, acks, lost int
	returned             bool
	minEnd, maxEnd       time.Duration
}

// satisfied reports whether the push has succeeded: at least one ack,
// and as many as needed of the mirrors not lost mid-flight. Monotone —
// acks and lost only grow — so once true it stays true. Caller holds mu.
func (call *fanoutCall) satisfied() bool {
	return call.acks >= 1 && call.acks >= min(call.need, call.dispatched-call.lost)
}

func (c *Client) getCall() *fanoutCall {
	call, _ := c.callPool.Get().(*fanoutCall)
	if call == nil {
		call = &fanoutCall{}
		call.cond = sync.NewCond(&call.mu)
	}
	if len(call.jobs) < len(c.mirrors) {
		call.jobs = make([]fanoutJob, len(c.mirrors))
	}
	call.refs.Store(1)
	return call
}

// releaseCall drops one call reference; the last one reclaims.
func (c *Client) releaseCall(call *fanoutCall) {
	if call.refs.Add(-1) == 0 {
		c.reclaimCall(call)
	}
}

// reclaimCall runs once per push, after every job (and the dispatcher)
// is done with the call: records the pushed wire ranges in the
// rebuild's dirty set, refreshes the straggler gauge, and returns the
// call to the pool.
func (c *Client) reclaimCall(call *fanoutCall) {
	if call.tracking {
		for _, s := range call.spans {
			c.recordDirty(s.r.Name, s.lo, s.hi-s.lo)
		}
	}
	if call.acks > 1 {
		// The straggler gap: how much later the slowest mirror completed
		// than the fastest — over parallel senders, roughly the
		// wall-clock win over writing them one after the other.
		c.straggler.Store(uint64(call.maxEnd - call.minEnd))
	} else {
		// Zero or one ack: no spread to report. Clearing (rather than
		// keeping the previous push's value) stops the gauge going stale
		// when mirrors die mid-run.
		c.straggler.Store(0)
	}
	for i := range call.jobs[:call.dispatched] {
		j := &call.jobs[i]
		for k := range j.writes {
			j.writes[k] = transport.BatchWrite{}
		}
		j.err, j.done, j.lost = nil, false, false
	}
	clear(call.spans) // drop the region references before pooling
	call.spans = call.spans[:0]
	call.single, call.tracking, call.payload, call.wire = false, false, 0, 0
	call.dispatched, call.need, call.finished, call.acks, call.lost = 0, 0, 0, 0, 0
	call.returned = false
	c.callPool.Put(call)
}

// startWorkers spawns one sender goroutine per mirror slot. Called at
// most once, lazily, on the first push that hands jobs to senders —
// single-mirror clients never pay for the goroutines.
func (c *Client) startWorkers() {
	c.senders = make([]chan *fanoutJob, len(c.mirrors))
	for i := range c.senders {
		// Deeper than the sends any one push makes: the channel is the
		// mirror's catch-up queue (see catchUpQueueLen).
		ch := make(chan *fanoutJob, catchUpQueueLen)
		c.senders[i] = ch
		go c.sender(ch)
	}
}

// sender executes jobs for one mirror slot in arrival order; a single
// worker per slot is what preserves per-mirror write ordering.
func (c *Client) sender(ch chan *fanoutJob) {
	for j := range ch {
		slot := j.slot // the job may be recycled as soon as it finished
		c.inflight[slot].Store(true)
		c.execJob(j)
		c.inflight[slot].Store(false)
		c.retire(slot)
		if c.betweenJobs != nil {
			c.betweenJobs(slot)
		}
	}
}

// enqueue hands j to its slot's sender. A full queue is backpressure —
// the dispatcher blocks on the send; the worker is runnable — unless it
// means lag: the push can complete without this mirror (droppable) and
// the mirror is mid-exchange with catchUpQueueLen writes already behind
// it. Then the mirror is degraded and the write dropped (its queued
// predecessors are dropped by the worker, keeping the mirror's state a
// prefix); the guardian revives or rebuilds it with a full resync.
//
// The pend counters stay in queue order, or a Fence could report done
// with a covered write still in flight: a job is counted only once it
// is on the queue, under sendMu so that a later sender's count implies
// every earlier sender's, and the overflow drop — which finishes here,
// out of queue order — touches neither counter.
func (c *Client) enqueue(j *fanoutJob, droppable bool) {
	i, ch := j.slot, c.senders[j.slot]
	c.sendMu[i].Lock()
	select {
	case ch <- j:
	default:
		if droppable && c.inflight[i].Load() {
			c.sendMu[i].Unlock()
			c.markDown(i)
			c.metrics.CatchUpOverflows.Inc()
			c.flight.Record(flight.CatchUpOverflow, "netram",
				fmt.Sprintf("catch-up queue full: mirror %s depth %d behind an in-flight exchange", j.m.Name, len(ch)), uint64(i))
			c.execJob(j) // down now: dropped, and finished like any other lost job
			return
		}
		ch <- j
	}
	c.pendMu.Lock()
	c.pendEnq[i]++
	c.pendMu.Unlock()
	c.sendMu[i].Unlock()
}

// retire counts one job slot i's sender took off its queue as finished
// and wakes the drainers. It runs only after the job released its call
// reference, so a drainer that observes the counters level also observes
// every reclaim-side effect (dirty records in particular) of the jobs it
// waited for.
func (c *Client) retire(i int) {
	c.pendMu.Lock()
	c.pendDone[i]++
	c.pendMu.Unlock()
	c.pendCond.Broadcast()
}

// waitIdle blocks until every job counted onto slot i's queue so far
// has finished. (A worker may retire a job before its dispatcher counted
// it, hence >= rather than ==.)
func (c *Client) waitIdle(i int) {
	c.pendMu.Lock()
	for c.pendDone[i] < c.pendEnq[i] {
		c.pendCond.Wait()
	}
	c.pendMu.Unlock()
}

// execJob runs one mirror write (single or batch) with the standard
// retry-and-classify policy, timing it against the client clock, and
// retires the job. A job whose mirror went down since dispatch is
// dropped, not written: executing past the failure point would leave a
// gap in the mirror's write order, and recovery is only safe while
// every mirror holds a strict prefix of it.
func (c *Client) execJob(j *fanoutJob) {
	j.start = c.clock.Now()
	if c.isDown(j.slot) {
		j.retried, j.err = false, errMirrorDown
	} else {
		j.retried, j.err = c.withRetry(j.m, j.slot, j.write)
	}
	j.end = c.clock.Now()
	c.finishJob(j)
}

// write is one attempt at the job's mirror write: the payload's single
// range, or every entry of the batch in order — one batched exchange
// when the transport supports it. The batch is atomic server-side, so a
// replay after a transient failure is idempotent.
func (j *fanoutJob) write() error {
	t := j.m.T
	if j.call.single {
		w := j.writes[0]
		return t.Write(w.Seg, w.Offset, w.Data)
	}
	if bw, ok := t.(transport.BatchWriter); ok {
		return bw.WriteBatch(j.writes)
	}
	for _, w := range j.writes {
		if err := t.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// finishJob retires one job: per-mirror metrics, then the join
// bookkeeping that may wake the dispatcher, then the call reference.
// Nothing of *j may be read after releaseCall — the next push may be
// recycling it. Acks keep arriving after a quorum push returned, so
// the wire bytes are accounted here, not by the dispatcher.
func (c *Client) finishJob(j *fanoutJob) {
	call := j.call
	if j.err == nil {
		c.metrics.MirrorPush[j.slot].ObserveDuration(j.end - j.start)
		c.metrics.WireBytes.Add(j.wire)
	}
	call.mu.Lock()
	j.done = true
	call.finished++
	switch {
	case j.err == nil:
		if call.acks == 0 || j.end < call.minEnd {
			call.minEnd = j.end
		}
		if call.acks == 0 || j.end > call.maxEnd {
			call.maxEnd = j.end
		}
		call.acks++
	case c.isDown(j.slot):
		// Lost mid-flight: the mirror leaves the push's denominator.
		j.lost = true
		call.lost++
	case call.returned:
		// An alive mirror failed a write the caller already counts as
		// durable: nobody is left to abort and repair it, so degrade it
		// — its (possibly divergent) state is never read, and the
		// guardian revives or rebuilds it.
		c.markDown(j.slot)
	}
	// Wake the dispatcher only when its join can end — an early ack it
	// cannot use would cost it a context switch per mirror — and only
	// after unlocking, so it does not wake straight into a held mutex.
	wake := call.finished == call.dispatched || call.satisfied()
	call.mu.Unlock()
	if wake {
		call.cond.Signal()
	}
	c.releaseCall(call)
}

// pushMirrors propagates call's payload to every eligible mirror — the
// live ones holding at least one of its regions, each receiving the
// spans of the regions it holds; only >= 0 narrows that to one slot — as
// one dispatch loop, one join, one collect. need is every dispatched
// mirror (all-ack clients, and the acked pushes of quorum clients) or
// min(w, dispatched). The mid-flight-loss policy, stated once:
//
//   - a mirror that is down when its job finishes — its ping failed
//     during the write, it was marked down while the job queued, it
//     was degraded for lag — leaves the denominator: the push succeeds
//     iff at least one mirror acked and acks >= min(need, dispatched-lost);
//   - a write that fails on a mirror that still answers pings (the
//     retry failed too) is the only thing that fails a push. If the
//     push succeeds without that mirror the caller never learns of the
//     failure, so the mirror is degraded; if the push fails, the caller
//     aborts and its re-push repairs the mirror, which stays live. The
//     lowest failing slot's error surfaces, for determinism.
//
// Caller holds topoMu.RLock for the whole call, which is what lets the
// jobs capture Mirror values and segment handles without copies being
// swapped underneath, and what orders recordDirty after the join.
func (c *Client) pushMirrors(call *fanoutCall, tt *trace.TxTrace, allAck bool, only int) error {
	name := call.spans[0].r.Name
	call.tracking = c.tracking.Load()
	jobs := call.jobs[:0]
	for i := range c.mirrors {
		if c.isDown(i) || (only >= 0 && i != only) {
			continue
		}
		j := &call.jobs[len(jobs)]
		j.writes, j.wire = j.writes[:0], 0
		for _, s := range call.spans {
			if h := s.r.handles[i]; h.ID != 0 {
				j.writes = append(j.writes, transport.BatchWrite{Seg: h.ID, Offset: s.lo, Data: s.r.Local[s.lo:s.hi]})
				j.wire += s.hi - s.lo
			}
		}
		if len(j.writes) == 0 {
			continue
		}
		jobs = call.jobs[:len(jobs)+1]
		j.call, j.m, j.slot = call, c.mirrors[i], i
	}
	n := len(jobs)
	if n == 0 {
		return fmt.Errorf("netram: push %q: %w", name, ErrAllMirrorsDown)
	}
	need := n
	if !allAck {
		// Never demand more acks than mirrors written: a degraded mirror
		// set keeps committing on whoever is left.
		need = min(c.quorumW, n)
	}
	call.dispatched, call.need = n, need
	// Inline: the jobs run here, in slot order, instead of on the
	// senders — nothing to overlap with one mirror, no workers on a
	// closed client, and the fan-out benchmark's baseline arm.
	inline := n == 1 || c.serialFanout || c.closed.Load()
	if !inline {
		c.workerOnce.Do(c.startWorkers)
	}
	// Per-mirror intervals are appended to the trace after the join
	// (TxTrace is goroutine-owned, so workers never touch it) under one
	// umbrella span.
	fo := tt.Start(trace.LayerNetram, "fanout")
	for k := range jobs {
		j := &jobs[k]
		// The job's reference is taken before it can run: once a worker
		// can see the job, the call must already be pinned.
		call.refs.Add(1)
		if inline {
			// An inline write must not overtake a straggler still queued
			// on this slot's sender from an earlier quorum push.
			c.waitIdle(j.slot)
			c.execJob(j)
		} else {
			c.enqueue(j, need < n)
		}
	}

	call.mu.Lock()
	for call.finished < n && !call.satisfied() {
		call.cond.Wait()
	}
	call.returned = true
	ok, acks := call.satisfied(), call.acks
	var failed *fanoutJob
	for k := range jobs {
		j := &jobs[k]
		if !j.done {
			continue // straggler: its span cannot be recorded on tt after we return
		}
		if j.retried {
			tt.Event(trace.LayerNetram, "retry", uint64(j.slot))
		}
		tt.Completed(trace.LayerNetram, j.m.Name, j.start, j.end-j.start, j.wire)
		if j.err != nil && !j.lost {
			if ok {
				c.markDown(j.slot) // the caller will not learn of it; see finishJob
			} else if failed == nil {
				failed = j
			}
		}
	}
	call.mu.Unlock()

	fo.EndN(call.wire)
	if !inline {
		c.metrics.Fanouts.Inc()
	}
	c.metrics.AckDepth.Observe(uint64(acks))
	switch {
	case ok:
		return nil
	case failed == nil:
		return fmt.Errorf("netram: push %q: %w", name, ErrAllMirrorsDown)
	case call.single:
		return fmt.Errorf("netram: push to mirror %s: %w", failed.m.Name, failed.err)
	default:
		return fmt.Errorf("netram: batch push to mirror %s: %w", failed.m.Name, failed.err)
	}
}

// Close stops the sender workers. Call once the data path is quiescent
// (no Push/PushMany in flight or following); a closed client runs its
// jobs inline if pushed again, it does not panic.
func (c *Client) Close() {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.closed.Swap(true) {
		return
	}
	// Let queued stragglers retire before their channels close; no new
	// jobs can arrive while the topology write lock is held.
	c.drainCatchUp()
	for _, ch := range c.senders {
		close(ch)
	}
	c.senders = nil
}
