package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/flight"
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
	// undo names the slot's log records, one (offset, length) per
	// SetRange, in log order. The records leave at the head of the batch
	// Commit or Prepare sends — no reader looks at a remote record before
	// its transaction's ranges reach that mirror — or, retired, when Abort
	// ends.
	undo []netram.Range
	// sent is every part a push of this transaction has tried to put on
	// the mirrors; a failed push may have landed whole on some of them, so
	// Abort takes back exactly these.
	sent parts
	// batch is the commit path's reusable entry buffer; capacity survives
	// across the handle's reuses.
	batch []netram.Entry
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
	// CommitPrepared publishes its commit word. prevWord is the slot's
	// commit word from before this transaction, which a failed word push
	// and Abort restore; prepStart carries the start time across the two
	// halves. All three are owned by the driving goroutine.
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
	if err := l.retireRolledBackLocked(); err != nil {
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
	// Reset the recycled handle in place; ranges/undo/batch keep their
	// capacity, which is what makes the steady-state commit path
	// allocation-free.
	t.l, t.id, t.slot = l, l.lastTxID, slot
	t.cursor = 0
	t.ranges = t.ranges[:0]
	t.undo, t.sent = t.undo[:0], 0
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

// retireRolledBackLocked retires the log records of the transactions the
// last recovery rolled back, the way Abort retires an aborted
// transaction's: their ids are zeroed and pushed, joined on every mirror,
// so no valid record of a transaction that is gone stays at a remote log
// head — where the next crash would roll its stale before-images back
// over whatever another slot has since committed to those bytes. It runs
// when the first transaction after the recovery begins, not inside
// Recover: no transaction can commit before one begins, a crash in
// between finds the records valid and rolls the same transaction back
// again, and the modelled recovery time of the Section 6 experiment,
// which ends when Recover returns, is left exactly where it was. Caller
// holds l.mu.
func (l *Library) retireRolledBackLocked() error {
	if len(l.retire) == 0 {
		return nil
	}
	for _, e := range l.retire {
		binary.BigEndian.PutUint64(e.Region.Local[e.Offset:], 0)
	}
	if err := l.net.PushBatch(l.retire, nil, true); err != nil {
		return fmt.Errorf("perseas: retire rolled-back undo records: %w", err)
	}
	l.flightRec.Record(flight.RecoveryRepair, "core", "rolled-back records retired", uint64(len(l.retire)))
	l.retire = nil
	return nil
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

// start opens a commit-path call: it checks that the library is alive
// and the handle open, and notes the slot's commit word as it stands.
func (t *Tx) start() error {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return err
	}
	if t.done {
		return engine.ErrNoTransaction
	}
	if !t.prepared {
		t.prevWord = t.slot.committed
	}
	return nil
}

// Commit implements engine.Tx: the paper's PERSEAS_commit_transaction,
// one ordered batch per mirror and one join. The batch carries the
// transaction's undo records to the slot's remote log (step 2 of Fig. 3),
// then the modified portions of the database to the equivalent portions
// in the remote node's memory (step 3), then the slot's commit word — one
// small write that commits the transaction atomically and discards the
// slot's remote undo log (records up to the committed id are ignored by
// recovery). A mirror applies the entries in that order, so on every
// mirror a range is never present without every record, nor the word
// without every range; what one mirror holds says nothing about another,
// and recovery settles that by election (recovery.go).
func (t *Tx) Commit() error {
	if err := t.start(); err != nil {
		return err
	}
	l := t.l
	t.mergeRanges()
	cm := t.tt.Start(trace.LayerEngine, "commit")
	total := l.clock.Now()
	if err := t.push(cm, partUndo|partRanges|partWord, false, false); err != nil {
		return err
	}
	cm.End()
	l.metrics.CommitTotal.ObserveDuration(l.clock.Now() - total)
	return t.retireCommitted()
}

// Prepare runs the first half of the two-phase form of Commit the shard
// router uses for cross-shard transactions: the commit batch without its
// word — undo records, then every modified range — joined on every
// mirror; the transaction stays open with its claims held.
// A prepared transaction either finishes with CommitPrepared or rolls
// back with Abort. If the node dies in between, the prepared state is
// indistinguishable from a crash in the middle of an ordinary Commit, so
// plain recovery rolls it back — unless a coordinator decision record
// says otherwise (RecoverWithDecisions).
func (t *Tx) Prepare() error {
	if err := t.start(); err != nil {
		return err
	}
	merged := t.mergeRanges()
	pp := t.tt.Start(trace.LayerEngine, "prepare")
	t.prepStart = t.l.clock.Now()
	// Joined on every mirror even on a quorum client: a coordinator
	// decision makes the prepared data durable without a commit word, and
	// recovery then has no word holder guaranteed to hold the data.
	// Commit's batch carries that guarantee in its word.
	if err := t.push(pp, partUndo|partRanges, true, false); err != nil {
		return err
	}
	pp.EndN(uint64(len(merged)))
	t.prepared = true
	return nil
}

// CommitPrepared publishes the commit word of a transaction Prepare left
// in the prepared state — the per-shard completion half of a cross-shard
// commit. The word push is the same atomic commit point an ordinary
// Commit ends on; once it lands, this shard's part of the transaction
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
	if err := t.push(cm, partWord, false, false); err != nil {
		return err
	}
	cm.End()
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
	// Sort the pending ranges by (database, offset): a transaction's
	// ranges then cross the wire in one order whatever order it declared
	// them in, and adjacent ones sit side by side for the optional
	// store-gather merge below. Push order is commutative on the SCI
	// model (virtual time is a sum of per-write costs), so reordering
	// leaves reproduced figures untouched. The handle's own slices back
	// everything; a warm commit allocates nothing.
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

// parts names what a commit-path push carries. Commit order is the bit
// order: the slot's undo records, the claimed database spans, the commit
// word.
type parts uint8

const (
	partUndo parts = 1 << iota
	partRanges
	partWord
)

// push is the commit path's one mirror exchange: p of the transaction as
// a single ordered batch per mirror, joined once (on every mirror when
// allAck is set, else on the quorum). Commit order — every record (one
// wire range each, widened as a lone push would widen it: the same
// stores, and on the simulated clock the same cost, as pushing each when
// it was written), then every claimed span exactly, then the word — is
// the whole ordering requirement: a mirror must hold the before-image of
// every byte it may see overwritten, and every byte of the transaction
// before the word that commits it. Abort sends what it takes back in the
// reverse order (undoing), so every prefix of its batch leaves a mirror
// either committed and whole or rolling back with its records intact.
//
// The batch can fail after landing whole on some mirrors, so p joins
// t.sent before the attempt and nothing is consumed: a retried call
// sends the set again, and Abort repairs and retires all of it. The
// commit word is disjoint bytes of the metadata region per slot, so
// concurrent committers share the read lock; only a directory rewrite
// (which pushes the whole region) excludes them. parent is the enclosing
// engine span, closed here on failure so the trace tree stays balanced.
func (t *Tx) push(parent trace.SpanRef, p parts, allAck, undoing bool) error {
	l := t.l
	l.metaMu.RLock()
	defer l.metaMu.RUnlock()
	meta := l.meta
	if meta == nil {
		// A simulated crash raced the push; recovery decides the
		// transaction's fate from what reached the mirrors.
		parent.End()
		return engine.ErrCrashed
	}
	batch := t.batch[:0]
	if p&partUndo != 0 {
		for _, u := range t.undo {
			batch = append(batch, netram.Entry{Region: t.slot.region, Range: u})
		}
	}
	if p&partRanges != 0 {
		for _, r := range t.ranges {
			batch = append(batch, netram.Entry{Region: r.db.region, Range: netram.Range{Offset: r.offset, Length: r.length}, Exact: true})
		}
	}
	if p&partWord != 0 {
		batch = append(batch, netram.Entry{Region: meta, Range: netram.Range{Offset: t.slot.wordOff, Length: 8}})
		if !undoing {
			binary.BigEndian.PutUint64(meta.Local[t.slot.wordOff:], t.id)
		}
	}
	if undoing {
		slices.Reverse(batch)
	}
	t.batch = batch
	if len(batch) == 0 {
		return nil // an Abort with nothing logged and nothing sent
	}
	var payload uint64
	for _, e := range batch {
		payload += e.Length
	}
	t.sent |= p
	phase := l.clock.Now()
	sp := t.tt.Start(trace.LayerCore, "commit_push")
	if err := l.net.PushBatch(batch, t.tt, allAck); err != nil {
		if p&partWord != 0 {
			// Roll the local commit word back; the transaction stays
			// uncommitted and can be retried or aborted.
			binary.BigEndian.PutUint64(meta.Local[t.slot.wordOff:], t.prevWord)
		}
		sp.End()
		parent.End()
		return fmt.Errorf("perseas: commit push: %w", err)
	}
	sp.EndN(uint64(len(batch)))
	l.metrics.Push.ObserveDuration(l.clock.Now() - phase)
	l.metrics.PushEntries.Observe(uint64(len(batch)))
	l.metrics.PushBytes.Observe(payload)
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
// with plain local memory copies, newest record first. Then one batch
// takes back whatever a failed Commit, Prepare or CommitPrepared may have
// left on any mirror — the batch can have landed whole, word included, on
// some mirrors and not at all on others: the slot's previous commit word,
// the ranges with their restored (pre-transaction) content, and last the
// slot's log, retired — the records' transaction ids zeroed. That leaves
// every region byte-identical on every mirror whether Commit never ran or
// reached none, some or all of them — and leaves no valid record of an
// aborted transaction at a remote log head, where a later crash would
// roll its stale before-images back over whatever another transaction
// has committed to those bytes since.
func (t *Tx) Abort() error {
	if err := t.start(); err != nil {
		return err
	}
	l := t.l
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
	for _, u := range t.undo {
		binary.BigEndian.PutUint64(t.slot.region.Local[u.Offset:], 0)
	}
	// The local image is restored; a retried Abort must not parse the
	// retired log again, only finish sending it.
	t.cursor = 0
	if err := t.push(ab, t.sent|partUndo, false, true); err != nil {
		return err
	}
	if t.sent&partRanges != 0 {
		l.metrics.Repairs.Add(uint64(len(t.ranges)))
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
