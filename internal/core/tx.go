package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/trace"
)

// Tx is one in-flight PERSEAS transaction. A handle belongs to the
// goroutine that began it; handles from different Begin calls run
// concurrently, each logging into its own undo slot and committing
// through its own commit word.
type Tx struct {
	l    *Library
	id   uint64
	slot *undoSlot
	// cursor is the write position in the slot's undo log. Only the
	// owning goroutine touches it.
	cursor uint64
	ranges []pending
	pushed []pending
	// undo names the slot's log records, one (offset, length) per
	// SetRange, in log order; undo[:undoSent] are on the mirrors. The
	// records leave together when Commit or Prepare starts — no reader
	// looks at a remote record before its transaction's ranges reach a
	// mirror — or, retired, when Abort ends.
	undo     []netram.Range
	undoSent int
	// scratch is the commit path's reusable netram.Range buffer (one
	// database's run at a time); capacity survives across the handle's
	// reuses.
	scratch []netram.Range
	// done marks the handle retired (committed, aborted, or wiped out by
	// a crash); guarded by l.mu.
	done bool
	// tt buffers this transaction's span tree (nil when tracing is off;
	// every method on the nil handle is a no-op). root is the open "tx"
	// span covering the handle's whole lifetime. Owned by the driving
	// goroutine, like cursor.
	tt   *trace.TxTrace
	root trace.SpanRef
	// prepared marks a transaction whose ranges Prepare already pushed;
	// CommitPrepared publishes its commit word. prevWord and prepStart
	// carry the rollback word and the start time across the two halves.
	// All three are owned by the driving goroutine.
	prepared  bool
	prevWord  uint64
	prepStart time.Duration
}

// ID returns the transaction id (published at commit time).
func (t *Tx) ID() uint64 { return t.id }

// TraceID returns the transaction's trace id, 0 when tracing is off.
// A serving layer uses it to stitch its own request spans onto this
// transaction's span tree (trace.Recorder.LinkedSpan).
func (t *Tx) TraceID() uint64 { return t.tt.Trace() }

// Begin implements engine.Engine: the paper's PERSEAS_begin_transaction,
// returning an explicit handle. It is a purely local operation on the
// warm path — transaction ids are only published at commit time — but
// the first transaction to raise the concurrency level allocates and
// mirrors a fresh undo slot.
func (l *Library) Begin() (engine.Tx, error) {
	return l.BeginTx()
}

// BeginTraced implements engine.TraceBeginner: Begin adopting a trace
// id propagated from another process, so this library's commit-path
// spans join the remote caller's span tree instead of starting one of
// their own. With traceID 0 (or tracing off) it is exactly Begin.
func (l *Library) BeginTraced(traceID, parentSpan uint64) (engine.Tx, error) {
	return l.BeginTxTraced(traceID, parentSpan)
}

// BeginTxTraced is BeginTraced returning the concrete handle type.
func (l *Library) BeginTxTraced(traceID, parentSpan uint64) (*Tx, error) {
	return l.beginTx(traceID, parentSpan)
}

// BeginTx is Begin returning the concrete handle type, for callers that
// want the PERSEAS-specific helpers (Write, Writable, Read).
func (l *Library) BeginTx() (*Tx, error) {
	return l.beginTx(0, 0)
}

func (l *Library) beginTx(traceID, parentSpan uint64) (*Tx, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return nil, err
	}
	slot, err := l.acquireSlotLocked()
	if err != nil {
		return nil, err
	}
	l.lastTxID++
	t := slot.tx
	if t == nil {
		t = &Tx{}
		slot.tx = t
	}
	// Reset the recycled handle in place; ranges/pushed/undo/scratch keep
	// their capacity, which is what makes the steady-state commit path
	// allocation-free.
	t.l, t.id, t.slot = l, l.lastTxID, slot
	t.cursor = 0
	t.ranges = t.ranges[:0]
	t.pushed = t.pushed[:0]
	t.undo, t.undoSent = t.undo[:0], 0
	t.done = false
	t.prepared = false
	slot.busy = true
	l.txs[t] = struct{}{}
	l.stats.Begun++
	if traceID != 0 {
		t.tt = l.tracer.TxAdopt(traceID, parentSpan)
	} else {
		t.tt = l.tracer.Tx()
	}
	t.root = t.tt.Start(trace.LayerEngine, "tx")
	return t, nil
}

// finishLocked retires a transaction handle: its conflict claims are
// released and its undo slot becomes reusable. Caller holds l.mu.
func (l *Library) finishLocked(t *Tx) {
	t.done = true
	t.slot.busy = false
	// Snapshot the catch-up frontier: the slot may not host a new
	// transaction until every push this one enqueued has landed on
	// every mirror (no-op under all-ack, where the Fence zero value is
	// already Done). See undoSlot.fence.
	t.slot.fence = l.net.Fence()
	l.locks.releaseAll(t.id)
	delete(l.txs, t)
}

// SetRange implements engine.Tx: the paper's PERSEAS_set_range. It
// claims the declared range and logs its original image to the
// transaction's local undo slot (one local memory copy), after which the
// application may update the range in place. Nothing leaves the node: the
// log record travels to the slot's remote mirror with the transaction's
// other records when Commit or Prepare starts, ahead of the first
// modified byte. A range held by another in-flight transaction fails
// with engine.ErrConflict.
func (t *Tx) SetRange(db engine.DB, offset, length uint64) error {
	l := t.l
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if t.done {
		l.mu.Unlock()
		return engine.ErrNoTransaction
	}
	d, err := l.ownLocked(db)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	if offset > d.Size() || length > d.Size()-offset {
		l.mu.Unlock()
		return fmt.Errorf("%w: [%d,+%d) in %d-byte database %q",
			ErrBadRange, offset, length, d.Size(), d.name)
	}
	need := recordSize(length)
	if t.cursor+need > t.slot.region.Size() {
		l.mu.Unlock()
		return fmt.Errorf("%w: need %d bytes, %d free",
			ErrUndoLogFull, need, t.slot.region.Size()-t.cursor)
	}
	// The claim covers the span the commit push will put on the wire, not
	// just the declared range, whenever no other transaction holds a byte
	// of the widening: a push may ship only bytes its transaction holds.
	wlo, whi := l.net.WireSpan(d.region, offset, length)
	wlo, whi, err = l.locks.claim(d.id, offset, length, wlo, whi, t.id)
	if err != nil {
		l.stats.Conflicts++
		l.mu.Unlock()
		t.tt.Event(trace.LayerEngine, "conflict", uint64(d.id))
		return err
	}
	// Nothing below can fail, so the range counts as logged here and the
	// library lock is taken once per SetRange.
	l.stats.SetRanges++
	l.stats.BytesLogged += length
	l.mu.Unlock()

	// From here the range belongs to this transaction: the copy below
	// cannot race another transaction's writes, so it runs without the
	// library lock.
	sr := t.tt.Start(trace.LayerEngine, "set_range")

	// Step 1 (paper Fig. 3): before-image into the local undo log.
	phase := l.clock.Now()
	recOff := t.cursor
	cp := t.tt.Start(trace.LayerCore, "local_undo_copy")
	t.cursor += writeRecord(t.slot.region.Local, recOff, t.id, d.id, offset,
		d.region.Local[offset:offset+length])
	l.clock.Advance(l.mem.CopyCost(int(recordHeaderSize + length)))
	cp.EndN(recordHeaderSize + length)
	l.metrics.LocalCopy.ObserveDuration(l.clock.Now() - phase)

	t.ranges = append(t.ranges, pending{db: d, offset: wlo, length: whi - wlo})
	if !l.noRemoteUndo {
		t.undo = append(t.undo, netram.Range{Offset: recOff, Length: recordHeaderSize + length})
	}
	sr.EndN(length)
	return nil
}

// Commit implements engine.Tx: the paper's PERSEAS_commit_transaction,
// three joined pushes per mirror. The transaction's undo records travel
// to the slot's remote log (step 2 of Fig. 3, one batch); once they are
// on their quorum the modified portions of the database are copied to
// the equivalent portions in the remote nodes' memories (step 3); the
// transaction then commits atomically with one small remote write of its
// slot's commit word, which also discards that slot's remote undo log
// (records up to the committed id are ignored by recovery). Each push
// joins before the next starts, so on every mirror and across mirrors
// every record precedes every range and every range precedes the word.
func (t *Tx) Commit() error {
	l := t.l
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if t.done {
		l.mu.Unlock()
		return engine.ErrNoTransaction
	}
	prevWord := t.slot.committed
	l.mu.Unlock()

	merged := t.mergeRanges()
	cm := t.tt.Start(trace.LayerEngine, "commit")
	total := l.clock.Now()
	if err := t.pushUndo(cm, false); err != nil {
		return err
	}
	if err := t.pushRanges(cm, merged, false); err != nil {
		return err
	}
	if err := t.publishWord(cm, prevWord); err != nil {
		return err
	}
	l.metrics.CommitTotal.ObserveDuration(l.clock.Now() - total)
	return t.retireCommitted()
}

// Prepare runs the first half of the two-phase form of Commit the shard
// router uses for cross-shard transactions: the undo records and then
// every modified range are pushed to this instance's mirrors (commit
// steps 2 and 3, joined on every mirror), but the commit word
// stays unpublished and the transaction stays open with its claims held.
// A prepared transaction either finishes with CommitPrepared or rolls
// back with Abort. If the node dies in between, the prepared state is
// indistinguishable from a crash in the middle of an ordinary Commit, so
// plain recovery rolls it back — unless a coordinator decision record
// says otherwise (RecoverWithDecisions).
func (t *Tx) Prepare() error {
	l := t.l
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if t.done {
		l.mu.Unlock()
		return engine.ErrNoTransaction
	}
	prevWord := t.slot.committed
	l.mu.Unlock()

	merged := t.mergeRanges()
	pp := t.tt.Start(trace.LayerEngine, "prepare")
	t.prepStart = l.clock.Now()
	if err := t.pushUndo(pp, true); err != nil {
		return err
	}
	if err := t.pushRanges(pp, merged, true); err != nil {
		return err
	}
	pp.EndN(uint64(len(merged)))
	t.prevWord = prevWord
	t.prepared = true
	return nil
}

// CommitPrepared publishes the commit word of a transaction Prepare left
// in the prepared state — the per-shard completion half of a cross-shard
// commit. The word push is the same atomic commit point an ordinary
// Commit uses; once it lands, this shard's part of the transaction
// survives any crash. A failed push leaves the transaction prepared (the
// local word rolls back), so a coordinator holding a durable decision
// can re-drive the idempotent push instead of leaving the transaction —
// and its claims and undo slot — in doubt until the next crash.
func (t *Tx) CommitPrepared() error {
	l := t.l
	if !t.prepared {
		return fmt.Errorf("perseas: CommitPrepared on an unprepared transaction")
	}
	cm := t.tt.Start(trace.LayerEngine, "commit_prepared")
	if err := t.publishWord(cm, t.prevWord); err != nil {
		return err
	}
	t.prepared = false
	l.metrics.CommitTotal.ObserveDuration(l.clock.Now() - t.prepStart)
	return t.retireCommitted()
}

// Slot returns the undo-slot index this transaction logs into. A
// cross-shard coordinator persists (shard, slot, id) triples in its
// decision record so recovery can finish a decided commit slot by slot.
func (t *Tx) Slot() int { return t.slot.idx }

// mergeRanges orders (and optionally coalesces) the pending ranges for
// the commit-path push.
func (t *Tx) mergeRanges() []pending {
	l := t.l
	// Sort the pending ranges by (database, offset): sorting groups
	// each database's ranges contiguously, so each database travels in
	// one batched exchange per mirror (one TCP round trip per table
	// instead of one per range), and primes the optional store-gather
	// merge below. Push order across databases is commutative on the
	// SCI model (virtual time is a sum of per-write costs), so
	// reordering leaves reproduced figures untouched. The handle's own
	// slices back everything; a warm commit allocates nothing.
	slices.SortFunc(t.ranges, func(a, b pending) int {
		if a.db != b.db {
			if a.db.id < b.db.id {
				return -1
			}
			return 1
		}
		switch {
		case a.offset < b.offset:
			return -1
		case a.offset > b.offset:
			return 1
		default:
			return 0
		}
	})
	merged := t.ranges
	if l.coalesce {
		// Store-gather: collapse adjacent/overlapping ranges of the
		// same database into one wire range, the way the SCI adapter's
		// store-gathering collapses back-to-back stores into full
		// 64-byte packets. In place on the sorted slice.
		merged = t.ranges[:0]
		for _, r := range t.ranges {
			if n := len(merged); n > 0 {
				last := &merged[n-1]
				if last.db == r.db && r.offset <= last.offset+last.length {
					if end := r.offset + r.length; end > last.offset+last.length {
						last.length = end - last.offset
					}
					continue
				}
			}
			merged = append(merged, r)
		}
		t.ranges = merged
	}
	return merged
}

// pushUndo is commit step 2 (paper Fig. 3), deferred from SetRange: the
// log records not yet on the mirrors travel to the slot's remote undo
// log as one batch, one wire range per record — the same stores, and on
// the simulated clock the same cost, as pushing each when it was written.
// It joins before the caller pushes a single database byte, which is the
// whole ordering requirement: a mirror must hold the before-image of
// every byte a range push may overwrite. A failed push can still have
// reached some mirrors; undoSent does not move, so a retried Commit or
// the Abort re-sends the set. parent and allAck are as in pushRanges.
func (t *Tx) pushUndo(parent trace.SpanRef, allAck bool) error {
	l := t.l
	recs := t.undo[t.undoSent:]
	if len(recs) == 0 {
		return nil
	}
	phase := l.clock.Now()
	up := t.tt.Start(trace.LayerCore, "undo_push")
	push := l.net.PushManyTraced
	if allAck {
		push = l.net.PushManyAckedTraced
	}
	if err := push(t.slot.region, recs, t.tt); err != nil {
		up.End()
		parent.End()
		return fmt.Errorf("perseas: push undo records: %w", err)
	}
	t.undoSent = len(t.undo)
	up.EndN(uint64(len(recs)))
	l.metrics.UndoPush.ObserveDuration(l.clock.Now() - phase)
	return nil
}

// pushRanges is commit step 3 (paper Fig. 3): the modified portions of
// each database travel to its mirrors, one batched exchange per database
// per mirror. parent is the enclosing "commit" or "prepare" span; it is
// closed on failure so the trace tree stays balanced. allAck forces the
// full-fanout join on quorum clients — Prepare needs it, because a
// coordinator decision makes the prepared data durable without a commit
// word and recovery then has no word-max mirror guaranteed to hold the
// data; Commit's word push carries that guarantee itself, so the fast
// quorum join stays safe there.
func (t *Tx) pushRanges(parent trace.SpanRef, merged []pending, allAck bool) error {
	l := t.l
	phase := l.clock.Now()
	rp := t.tt.Start(trace.LayerCore, "range_push")
	for i := 0; i < len(merged); {
		db := merged[i].db
		j := i
		scratch := t.scratch[:0]
		for ; j < len(merged) && merged[j].db == db; j++ {
			scratch = append(scratch, netram.Range{Offset: merged[j].offset, Length: merged[j].length})
		}
		t.scratch = scratch
		// Record the run as pushed BEFORE the attempt: PushMany can
		// fail after reaching a subset of the mirrors, and a range that
		// reached even one mirror must be re-pushed by Abort or that
		// mirror's database silently diverges from local.
		t.pushed = append(t.pushed, merged[i:j]...)
		if err := l.net.PushSpansTraced(db.region, scratch, t.tt, allAck); err != nil {
			rp.End()
			parent.End()
			return fmt.Errorf("perseas: push database ranges: %w", err)
		}
		i = j
	}
	rp.EndN(uint64(len(merged)))
	l.metrics.RangePush.ObserveDuration(l.clock.Now() - phase)
	return nil
}

// publishWord is the atomic commit point: publish the transaction id in
// this slot's commit word. Commit words of different slots are disjoint
// bytes of the metadata region, so concurrent committers share the
// read lock; only a directory rewrite (which pushes the whole region)
// excludes them. parent is the enclosing "commit" or "commit_prepared"
// span; publishWord closes it on every path.
func (t *Tx) publishWord(parent trace.SpanRef, prevWord uint64) error {
	l := t.l
	l.metaMu.RLock()
	meta := l.meta
	if meta == nil {
		// A simulated crash raced the commit; recovery decides the
		// transaction's fate from what reached the mirrors.
		l.metaMu.RUnlock()
		parent.End()
		return engine.ErrCrashed
	}
	phase := l.clock.Now()
	wp := t.tt.Start(trace.LayerCore, "word_push")
	binary.BigEndian.PutUint64(meta.Local[t.slot.wordOff:], t.id)
	if err := l.net.PushTraced(meta, t.slot.wordOff, 8, t.tt); err != nil {
		// Roll the local commit word back; the transaction stays
		// uncommitted and can be retried or aborted.
		binary.BigEndian.PutUint64(meta.Local[t.slot.wordOff:], prevWord)
		l.metaMu.RUnlock()
		wp.End()
		parent.End()
		return fmt.Errorf("perseas: publish commit word: %w", err)
	}
	l.metaMu.RUnlock()
	wp.EndN(8)
	parent.End()
	l.metrics.WordPush.ObserveDuration(l.clock.Now() - phase)
	return nil
}

// retireCommitted finalises a transaction whose commit word landed:
// claims release, the slot frees, and the trace tree closes.
func (t *Tx) retireCommitted() error {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		// A simulated crash raced the final push; the handle was already
		// retired and whether the commit word made it out is exactly
		// what recovery will decide.
		return engine.ErrCrashed
	}
	if t.done {
		return engine.ErrNoTransaction
	}
	t.slot.committed = t.id
	if t.id > l.committed {
		l.committed = t.id
	}
	l.finishLocked(t)
	l.stats.Committed++
	t.root.EndN(t.id)
	t.tt.Finish()
	t.tt = nil
	return nil
}

// Abort implements engine.Tx: the paper's PERSEAS_abort_transaction.
// Declared ranges are restored from the transaction's local undo slot
// with plain local memory copies, newest record first. If a failed
// Commit had already pushed some ranges to the mirrors, those ranges are
// re-pushed with their restored (pre-transaction) content so local and
// remote databases stay identical. Last, the slot's log is retired: the
// records' transaction ids are zeroed and the records pushed, in one
// batch. That leaves the slot byte-identical on every mirror whether
// Commit never ran, sent none, some or all of the records — and leaves no
// valid record of an aborted transaction at a remote log head, where a
// later crash would roll its stale before-images back over whatever
// another transaction has committed to those bytes since.
func (t *Tx) Abort() error {
	l := t.l
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if t.done {
		l.mu.Unlock()
		return engine.ErrNoTransaction
	}
	l.mu.Unlock()
	ab := t.tt.Start(trace.LayerEngine, "abort")

	// Every database this transaction touched is reachable from its own
	// pending ranges — no shared lookup needed while restoring.
	owned := make(map[uint32]*Database, len(t.ranges))
	for _, r := range t.ranges {
		owned[r.db.id] = r.db
	}

	// Walk the slot's local undo log and restore before-images in
	// reverse order, so overlapping SetRange declarations unwind
	// correctly.
	var recs []undoRecord
	var cursor uint64
	for cursor < t.cursor {
		rec, advance, ok := parseRecord(t.slot.region.Local, cursor)
		if !ok {
			return fmt.Errorf("perseas: corrupt local undo log at %d", cursor)
		}
		recs = append(recs, rec)
		cursor += advance
	}
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		db, ok := owned[rec.dbID]
		if !ok {
			return fmt.Errorf("perseas: undo record for unknown database %d", rec.dbID)
		}
		l.mem.Copy(l.clock, db.region.Local[rec.offset:rec.offset+rec.length], rec.data)
	}

	// Repair mirrors touched by a partially executed Commit. t.pushed
	// includes groups whose PushMany failed partway — a range that
	// reached even one mirror needs its restored content re-pushed.
	for _, r := range t.pushed {
		t.scratch = append(t.scratch[:0], netram.Range{Offset: r.offset, Length: r.length})
		if err := l.net.PushSpansTraced(r.db.region, t.scratch, t.tt, false); err != nil {
			ab.End()
			return fmt.Errorf("perseas: repair mirror after failed commit: %w", err)
		}
		l.metrics.Repairs.Inc()
	}
	for _, u := range t.undo {
		binary.BigEndian.PutUint64(t.slot.region.Local[u.Offset:], 0)
	}
	// The local image is restored; a retried Abort must not parse the
	// retired log again, only finish sending it.
	t.cursor, t.undoSent = 0, 0
	if err := t.pushUndo(ab, false); err != nil {
		return err
	}
	ab.End()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return engine.ErrCrashed
	}
	if t.done {
		return engine.ErrNoTransaction
	}
	l.finishLocked(t)
	l.stats.Aborted++
	t.root.End()
	t.tt.Finish()
	t.tt = nil
	return nil
}
