package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/hostmem"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
)

// Recovery trusts no single mirror. The commit path sends one ordered
// batch per mirror — undo records, ranges, commit word — and joins on w
// of n mirrors (w = n is all-ack), so after a crash each mirror holds
// some prefix of the push order and nothing says which: one may hold a
// transaction's whole batch beside one that holds none of it. Recovery
// therefore reads every reachable mirror and elects per undo slot: the
// maximum commit word (a commit acked by w mirrors is on at least one of
// any n-w+1) and, among that word's holders — who received everything
// enqueued before it — the longest log. What it elects becomes the local
// state and is republished only to the mirrors found to differ, in
// commit order: log, then data, then word.

// mirrorCopy is one reachable mirror's copy of the metadata region, read
// when recovery starts.
type mirrorCopy struct {
	idx int
	buf []byte
}

// recoveredSlot pairs a reconnected undo-slot region with what the
// election settled for it. committed is the slot's commit word: the
// maximum any reachable mirror holds, or a coordinator decision that
// outranks it. holders are the mirrors whose copy held that maximum —
// the candidates for the log election; lacking are the reachable mirrors
// whose word is not committed, which are sent the word and, when the
// slot's head transaction is the committed one, its ranges.
type recoveredSlot struct {
	region    *netram.Region
	committed uint64
	holders   []int
	lacking   []int
}

// fetchMetaCopies reads the metadata region from every mirror, up to
// workers at a time. Recovery needs at least n-w+1 copies: a commit word acked by w of n
// mirrors is then guaranteed to appear in at least one, so the per-slot
// maximum over the copies recovers every committed word.
func (l *Library) fetchMetaCopies(meta *netram.Region, workers int) ([]mirrorCopy, error) {
	n := l.net.Mirrors()
	w := n
	if q := l.net.Quorum(); q > 0 {
		w = q
	}
	bufs := make([][]byte, n)
	errs := make([]error, n)
	// Unreachable mirrors are expected here — they are why recovery is
	// running — so a fetch failure is recorded per index, never returned,
	// and the remaining mirrors are always tried.
	_ = netram.ForEach(workers, n, func(i int) error {
		bufs[i], errs[i] = l.net.FetchMirror(i, meta, 0, meta.Size())
		return nil
	})
	copies := make([]mirrorCopy, 0, n)
	var lastErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		copies = append(copies, mirrorCopy{idx: i, buf: bufs[i]})
	}
	if len(copies) < n-w+1 {
		return nil, fmt.Errorf("perseas: recovery reached %d of %d metadata copies, needs %d to cover every %d-ack commit: %w",
			len(copies), n, n-w+1, w, lastErr)
	}
	return copies, nil
}

// repairOp is one undo slot's staged crash repair. forward means the
// slot's head transaction is committed (its id equals the slot's elected
// commit word, or a coordinator decided it) but has not reached every
// mirror: its modified ranges are re-fetched from the winner mirror and
// sent to the mirrors lacking the word. Otherwise the head transaction
// is in flight and its before-images roll it back everywhere. holders
// counts the mirrors whose copy held the slot's word — because every
// mirror receives the push stream in the same order, holder sets of
// different commit words are nested, so a larger holder set means the
// word was enqueued earlier: sorting forward repairs by descending
// holder count replays committed overlaps in true commit order even when
// transaction ids (assigned at Begin) disagree with it.
type repairOp struct {
	slot    int
	forward bool
	winner  int
	holders int
	recs    []undoRecord
}

// slotLog is one mirror's copy of one undo slot, read lazily, chunk by
// chunk, as far as the scan for the head transaction's records needs
// it: most crashes leave a handful of records per slot, so recovery
// transfers kilobytes, not the whole undo region. buf is the prefix
// materialised so far; it grows with the reads instead of being sized
// for the region up front, so reading every mirror's copy of every slot
// allocates in proportion to the records actually written. recs alias
// it (or an earlier, shorter incarnation that keeps its bytes).
type slotLog struct {
	net    *netram.Client
	mirror int
	region *netram.Region
	chunk  uint64
	buf    []byte
	recs   []undoRecord
	err    error
	// differs marks a log found to differ from the slot's elected one.
	differs bool
}

// ensure materialises at least the log's first n bytes, reading whole
// chunks, and returns the buffer holding them.
func (lg *slotLog) ensure(n uint64) ([]byte, error) {
	size, have := lg.region.Size(), uint64(len(lg.buf))
	target := min((n+lg.chunk-1)/lg.chunk*lg.chunk, size)
	if target <= have {
		return lg.buf, nil
	}
	data, err := lg.net.FetchMirror(lg.mirror, lg.region, have, target-have)
	if err != nil {
		return nil, fmt.Errorf("perseas: fetch undo log from mirror %d: %w", lg.mirror, err)
	}
	if have == 0 {
		lg.buf = data // the transport's buffer is ours to keep
	} else {
		lg.buf = append(lg.buf, data...)
	}
	return lg.buf, nil
}

// head is the id of the transaction whose records open the log.
func (lg *slotLog) head() uint64 {
	if len(lg.recs) == 0 {
		return 0
	}
	return lg.recs[0].txID
}

// diffSpan returns the smallest span [lo,hi) of want outside which have,
// at least as long, holds the same bytes.
func diffSpan(have, want []byte) (lo, hi uint64) {
	i, j := 0, len(want)
	for i < j && have[i] == want[i] {
		i++
	}
	for j > i && have[j-1] == want[j-1] {
		j--
	}
	return uint64(i), uint64(j)
}

// Recover implements engine.Engine: the paper's Section 3/4 recovery
// procedure, run after the primary node crashed and lost its main memory.
//
// The library first reconnects to the segments holding the PERSEAS
// metadata (the paper's sci_connect_segment); from those it retrieves the
// information needed to find and reconnect to the remote database records
// and the remote undo logs. Undo slots beyond the paper's slot 0 are
// discovered by probing their derived segment names until one is missing.
// Each slot is then handled exactly as the paper handles its single log:
// if the slot's head transaction had started propagating modifications
// before the failure (its records are newer than the slot's commit word),
// the original data found in the remote undo log are copied back to the
// remote database, discarding the illegal updates; the local database is
// then recovered from the — now legal — remote segments. Concurrent
// transactions hold disjoint ranges, so the rollback order across slots
// does not matter — which is also what lets WithRecoveryParallelism
// scan and roll back slots concurrently without changing the outcome.
// Where the paper reads its one mirror, this reads every reachable one and
// elects each slot's commit word and log among them (see the top of this
// file); mirrors found to differ from what was elected are brought to it.
func (l *Library) Recover() error {
	return l.RecoverWithDecisions(nil)
}

// RecoverWithDecisions is Recover plus a coordinator's verdicts: decided
// maps an undo-slot index to a transaction id a cross-shard coordinator
// recorded as committed. A decided id that outranks the slot's elected
// commit word means the commit-word push lost a race with the crash
// after the decision became durable; recovery takes the decided id for
// the slot's word and sends it to every mirror, so the transaction's
// records count as committed on this shard instead of being rolled back.
// Stale decisions
// (id not above the recovered word) are no-ops, so replaying an old
// decision record is always safe.
func (l *Library) RecoverWithDecisions(decided map[int]uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.crashed {
		return fmt.Errorf("perseas: recover called on a running library")
	}
	workers := l.recoveryWorkers
	if workers < 1 {
		workers = 1
	}
	root := l.tracer.Start(trace.LayerCore, "recover")
	start := l.clock.Now()
	if err := l.recoverLocked(root, workers, decided); err != nil {
		l.flightRec.Record(flight.RecoveryPhase, "core", "failed", uint64(workers))
		root.End()
		return err
	}
	l.recMetrics.RecoverTotal.ObserveDuration(l.clock.Now() - start)
	l.flightRec.Record(flight.RecoveryPhase, "core", "complete", uint64(workers))
	root.EndN(uint64(workers))
	return nil
}

// recovery carries one run of the procedure from phase to phase: what
// the metadata said, the regions reconnected so far, the repairs the
// slot scan staged and what each mirror was found to lack. The phases are
// the same at every quorum — all-ack is w = n — and every width: every
// phase spreads its independent units — the mirrors' metadata copies,
// slot reconnects and scans and within a scan the mirrors' logs,
// database fetches, winner fetches, per-mirror republishes — over
// netram.ForEach at the configured width, and database fetches additionally stripe read chunks
// across the surviving mirrors; at width 1 (the default) that is the
// same pipeline run inline on the caller's goroutine. The recovered
// state is byte-identical at every width: slots hold disjoint ranges,
// staged repairs apply serially in commit order, and every republish
// ships final local bytes.
type recovery struct {
	l       *Library
	root    trace.InfraSpan
	workers int
	decided map[int]uint64

	// meta_fetch
	meta         *netram.Region
	copies       []mirrorCopy
	undoSize     uint64
	storedNextID uint32
	entries      []dirEntry
	// slot_connect, db_fetch
	slots []recoveredSlot
	dbs   map[string]*Database
	byID  map[uint32]*Database
	maxID uint32
	// slot_scan, repair
	committed uint64
	lastTxID  uint64
	repairs   []repairOp
	retire    []netram.Entry
	// stale[i] is what mirror i was found to lack, filled phase by phase.
	stale []staleMirror
}

// staleMirror is one reachable mirror's share of the republish: the
// entries it is sent as one batch in commit order — log spans, then
// data, then commit words — and the slot logs whose tail beyond the
// elected prefix is cleared afterwards.
type staleMirror struct {
	logs, data, words []netram.Entry
	tails             []netram.Entry
}

// recoverLocked is the recovery procedure proper: a fixed sequence of
// phases whose only variables are the quorum and the width.
func (l *Library) recoverLocked(root trace.InfraSpan, workers int, decided map[int]uint64) error {
	rc := &recovery{l: l, root: root, workers: workers, decided: decided, stale: make([]staleMirror, l.net.Mirrors())}
	m := &l.recMetrics
	for _, ph := range []struct {
		name string
		h    *obs.Histogram
		run  func() error
	}{
		{"meta_fetch", &m.MetaFetch, rc.metaFetch},
		{"slot_connect", &m.SlotConnect, rc.slotConnect},
		{"db_fetch", &m.DBFetch, rc.dbFetch},
		{"slot_scan", &m.SlotScan, rc.slotScan},
		{"repair", &m.Repair, rc.repair},
		{"republish", &m.Republish, rc.republish},
	} {
		if err := rc.step(ph.name, ph.h, ph.run); err != nil {
			return err
		}
	}
	rc.install()
	l.retire = rc.retire
	l.committed = rc.committed
	l.lastTxID = rc.lastTxID
	l.txs = make(map[*Tx]struct{})
	l.locks = newConflictTable()
	l.crashed = false
	l.stats.Recoveries++
	return nil
}

// step runs one phase under a trace span, a phase histogram, and a
// flight-recorder event. The clock is only read, never advanced, so
// instrumented recovery reports the same modelled time as the bare
// procedure.
func (rc *recovery) step(name string, h *obs.Histogram, phase func() error) error {
	l := rc.l
	l.flightRec.Record(flight.RecoveryPhase, "core", name, uint64(rc.workers))
	sp := rc.root.Child(trace.LayerCore, name)
	start := l.clock.Now()
	err := phase()
	h.ObserveDuration(l.clock.Now() - start)
	sp.End()
	return err
}

// metaFetch reconnects the metadata region and reads every reachable
// mirror's copy of it, once. The lowest-numbered copy is the base: the
// directory is always pushed fully acked, so any copy is authoritative
// for everything but the commit words, which slotConnect elects.
func (rc *recovery) metaFetch() error {
	l := rc.l
	var err error
	rc.meta, err = l.net.Connect(l.qualify(metaRegionName))
	if err != nil {
		return fmt.Errorf("perseas: reconnect metadata: %w", err)
	}
	if rc.copies, err = l.fetchMetaCopies(rc.meta, rc.workers); err != nil {
		return fmt.Errorf("perseas: fetch metadata: %w", err)
	}
	copy(rc.meta.Local, rc.copies[0].buf)
	_, rc.undoSize, rc.storedNextID, rc.entries, err = readDirectory(rc.meta.Local)
	return err
}

// slotConnect reconnects every undo slot and elects its commit word.
// Slot 0 always exists; further slots were allocated on demand by past
// concurrency and are found by probing their names — the connected
// prefix is the slot set, and at width 1 the probe stops at the first
// missing name. The election is local: the maximum over the copies — a
// commit that reached its quorum is on at least one of them — or a
// coordinator decision that outranks it, which makes the decided
// transaction count as committed on this shard instead of being rolled
// back. Every mirror whose copy says otherwise is owed the word.
func (rc *recovery) slotConnect() error {
	l := rc.l
	names := make([]string, maxUndoSlots)
	for k := range names {
		names[k] = l.qualify(undoSlotName(k))
	}
	regions, cerr := l.net.ConnectMany(names, rc.workers)
	if len(regions) == 0 {
		return fmt.Errorf("perseas: reconnect undo log: %w", cerr)
	}
	for k, region := range regions {
		if region.Size() != rc.undoSize {
			return fmt.Errorf("perseas: undo slot %d size %d does not match metadata %d",
				k, region.Size(), rc.undoSize)
		}
		wordOff := slotWordOffset(rc.meta.Size(), k)
		rs := recoveredSlot{region: region}
		words := make([]uint64, len(rc.copies))
		for i, mc := range rc.copies {
			words[i] = binary.BigEndian.Uint64(mc.buf[wordOff:])
			rs.committed = max(rs.committed, words[i])
		}
		// A word holder has everything enqueued before the word: the head
		// transaction's records and data, when the word is its own.
		for i, mc := range rc.copies {
			if words[i] == rs.committed {
				rs.holders = append(rs.holders, mc.idx)
			}
		}
		// No copy holds a decided word, but the prepared data behind a
		// decision was pushed fully acked: the election above still names
		// the mirrors that can serve the repair, and every mirror is owed
		// the word and the data.
		rs.committed = max(rs.committed, rc.decided[k])
		binary.BigEndian.PutUint64(rc.meta.Local[wordOff:], rs.committed)
		for i, mc := range rc.copies {
			if words[i] != rs.committed {
				rs.lacking = append(rs.lacking, mc.idx)
				rc.stale[mc.idx].words = append(rc.stale[mc.idx].words,
					netram.Entry{Region: rc.meta, Range: netram.Range{Offset: wordOff, Length: 8}})
			}
		}
		rc.slots = append(rc.slots, rs)
	}
	return nil
}

// dbFetch reconnects every database record and copies it back. Each
// image is fetched in read-chunk stripes spread round-robin across the
// surviving mirrors, so at width the transfer rides their aggregate
// bandwidth. Striping is safe mid-recovery: replicas can only disagree
// on bytes of some slot's head transaction, and exactly those ranges
// are rolled back or repaired after the fetch.
func (rc *recovery) dbFetch() error {
	l := rc.l
	names := make([]string, len(rc.entries))
	for i, e := range rc.entries {
		names[i] = l.qualify(dbRegionPrefix + e.name)
	}
	regions, cerr := l.net.ConnectMany(names, rc.workers)
	if cerr != nil {
		return fmt.Errorf("perseas: reconnect database %q: %w", rc.entries[len(regions)].name, cerr)
	}
	for i, e := range rc.entries {
		if regions[i].Size() != e.size {
			return fmt.Errorf("perseas: database %q size %d does not match directory %d",
				e.name, regions[i].Size(), e.size)
		}
	}
	if err := netram.ForEach(rc.workers, len(regions), func(i int) error {
		if err := l.net.FetchIntoStriped(regions[i], rc.workers); err != nil {
			return fmt.Errorf("perseas: fetch database %q: %w", rc.entries[i].name, err)
		}
		return nil
	}); err != nil {
		return err
	}
	rc.dbs = make(map[string]*Database, len(rc.entries))
	rc.byID = make(map[uint32]*Database, len(rc.entries))
	for i, e := range rc.entries {
		db := &Database{id: e.id, name: e.name, region: regions[i]}
		rc.dbs[e.name] = db
		rc.byID[e.id] = db
		if e.id > rc.maxID {
			rc.maxID = e.id
		}
	}
	return nil
}

// slotScan reads each slot's log from every reachable mirror, elects the
// one to adopt, and stages the head transaction's repair. Every mirror
// receives a slot's pushes in enqueue order, so each mirror's log is a
// prefix of the slot's true record sequence; scanning from the lowest
// threshold that still admits the head transaction (word-1) makes a
// committed head visible. Among the slot's word holders the log with the
// highest head id, then the most records, is the longest prefix — it
// contains every record that has data anywhere. Its fetched bytes become
// the local view of the slot, and every mirror whose fetched bytes differ
// is owed the differing span and a cleared tail: a future scan treats
// zeros as log end, and a stale divergent tail must not survive into the
// next crash's election. Slots hold disjoint ranges and each scan touches
// only its own region, so the scans are independent; the aggregation runs
// in slot order, keeping the repair list and the id re-seed deterministic.
// The largest id seen anywhere — commit words and log records — re-seeds
// the transaction-id counter.
func (rc *recovery) slotScan() error {
	logs := make([][]slotLog, len(rc.slots))
	winner := make([]int, len(rc.slots))
	if err := netram.ForEach(rc.workers, len(rc.slots), func(k int) (err error) {
		logs[k], winner[k], err = rc.electLog(k)
		return err
	}); err != nil {
		return err
	}
	for k, rs := range rc.slots {
		rc.committed = max(rc.committed, rs.committed)
		rc.lastTxID = max(rc.lastTxID, rs.committed)
		won := &logs[k][winner[k]]
		owed := len(rs.lacking) > 0
		for i := range logs[k] {
			lg := &logs[k][i]
			if !lg.differs || lg.err != nil {
				continue // agrees; or unreadable now, and not written either
			}
			owed = true
			st := &rc.stale[lg.mirror]
			lo, hi := diffSpan(lg.buf, won.buf)
			st.logs = append(st.logs, netram.Entry{Region: rs.region, Range: netram.Range{Offset: lo, Length: hi - lo}, Exact: true})
			if tail := uint64(len(won.buf)); tail < rs.region.Size() {
				st.tails = append(st.tails, netram.Entry{Region: rs.region, Range: netram.Range{Offset: tail, Length: rs.region.Size() - tail}})
			}
		}
		if owed {
			rc.l.recMetrics.SlotsRepublished.Inc()
		}
		if len(won.recs) == 0 {
			continue
		}
		for _, rec := range won.recs {
			rc.lastTxID = max(rc.lastTxID, rec.txID)
		}
		rc.repairs = append(rc.repairs, repairOp{
			slot:    k,
			forward: won.head() == rs.committed,
			winner:  won.mirror,
			holders: len(rs.holders),
			recs:    won.recs,
		})
	}
	return nil
}

// electLog scans slot k's log on every reachable mirror and adopts the longest prefix among the word holders' into the local
// region. It returns the logs and the winner's index. The first mirror
// is read in undoChunk pieces, as a lone mirror always was — its prefix
// is the local image unless another wins, and that one is then read as
// far — and the others in undoProbe pieces, as far as the scan for their
// head transaction goes: mirrors that agree on what they were read
// agree on the slot. One that does not is read up to the winner's
// prefix, so that it can be sent exactly the span that differs.
func (rc *recovery) electLog(k int) ([]slotLog, int, error) {
	rs := &rc.slots[k]
	threshold := rs.committed
	if threshold > 0 {
		threshold--
	}
	logs := make([]slotLog, len(rc.copies))
	_ = netram.ForEach(rc.workers, len(logs), func(i int) error {
		lg := &logs[i]
		*lg = slotLog{net: rc.l.net, mirror: rc.copies[i].idx, region: rs.region, chunk: undoProbe}
		if i == 0 {
			lg.chunk = undoChunk
		}
		lg.recs, lg.err = scanUndoLogLazy(threshold, rs.region.Size(), lg.ensure)
		return nil
	})
	best := -1
	var lastErr error
	for i := range logs {
		lg := &logs[i]
		switch {
		case lg.err != nil:
			lastErr = lg.err
		case !slices.Contains(rs.holders, lg.mirror):
		case best < 0, lg.head() > logs[best].head(),
			lg.head() == logs[best].head() && len(lg.recs) > len(logs[best].recs):
			best = i
		}
	}
	if best < 0 {
		return nil, 0, fmt.Errorf("perseas: undo slot %d unreadable on every mirror holding its commit word: %w", k, lastErr)
	}
	won := &logs[best]
	won.chunk = undoChunk
	if _, err := won.ensure(uint64(len(won.buf))); err != nil {
		return nil, 0, err
	}
	for i := range logs {
		lg := &logs[i]
		if n := min(len(lg.buf), len(won.buf)); i != best && lg.err == nil && !bytes.Equal(lg.buf[:n], won.buf[:n]) {
			lg.differs = true
			_, lg.err = lg.ensure(uint64(len(won.buf)))
		}
	}
	copy(rs.region.Local, won.buf)
	return logs, best, nil
}

// install points the library at the reconnected regions.
func (rc *recovery) install() {
	l := rc.l
	l.metaSize = rc.meta.Size()
	l.undoSize = rc.undoSize
	l.metaMu.Lock()
	l.meta = rc.meta
	l.metaMu.Unlock()
	l.slots = make([]*undoSlot, len(rc.slots))
	for k, rs := range rc.slots {
		l.slots[k] = &undoSlot{
			idx:       k,
			region:    rs.region,
			wordOff:   slotWordOffset(rc.meta.Size(), k),
			committed: rs.committed,
		}
	}
	l.dbs = rc.dbs
	l.byID = rc.byID
	l.nextDBID = rc.maxID + 1
	if rc.storedNextID > l.nextDBID {
		// Ids of dropped databases stay retired so no stale undo record
		// can ever alias a database created after this recovery.
		l.nextDBID = rc.storedNextID
	}
	l.dirEnd = directoryEnd(rc.entries)
}

// restore is one undo record's repair of the local image: image holds
// the record's before-image for a rollback, or the winner mirror's
// current bytes of the range for a forward repair.
type restore struct {
	db    *Database
	rec   undoRecord
	op    *repairOp
	image []byte
}

// repair settles the slots' head transactions against the local images
// and stages what each mirror is owed. Forward repairs apply in commit
// order (descending holder count — see repairOp), each newest record
// first; rollbacks apply last, because an in-flight claim is always the
// newest writer of its bytes. A committed head every reachable mirror
// holds the word of is whole everywhere — the word is the last entry of
// its batch — and needs nothing. Nothing is written here: every winner's
// bytes are fetched before the republish touches a mirror, so one slot's
// repair can never clobber bytes another slot still needs to read.
// Ranges within a transaction may overlap, so what a mirror is sent for
// a range is its final local bytes — the bytes per-record pushes would
// have converged on: a rolled-back range goes to every reachable mirror,
// a forward-repaired one to the mirrors lacking the slot's word.
func (rc *recovery) repair() error {
	l := rc.l
	sort.SliceStable(rc.repairs, func(i, j int) bool {
		a, b := rc.repairs[i], rc.repairs[j]
		if a.forward != b.forward {
			return a.forward
		}
		return a.forward && a.holders > b.holders
	})
	var steps []restore
	var fetches []int
	for i := range rc.repairs {
		op := &rc.repairs[i]
		switch {
		case !op.forward:
			l.recMetrics.SlotsRolledBack.Inc()
			l.flightRec.Record(flight.RecoveryRepair, "core", "head transaction rolled back", uint64(op.slot))
			// Its records stay valid at the slot's log head on the
			// mirrors until the first Begin retires them (Library.retire).
			var cursor uint64
			for _, rec := range op.recs {
				rc.retire = append(rc.retire, netram.Entry{Region: rc.slots[op.slot].region, Range: netram.Range{Offset: cursor, Length: 8}})
				cursor += recordSize(rec.length)
			}
		case len(rc.slots[op.slot].lacking) == 0:
			continue
		default:
			l.recMetrics.SlotsForward.Inc()
			l.flightRec.Record(flight.RecoveryRepair, "core", "committed head transaction repaired forward", uint64(op.slot))
		}
		for j := len(op.recs) - 1; j >= 0; j-- {
			rec := op.recs[j]
			db, ok := rc.byID[rec.dbID]
			if !ok {
				// The record references a database dropped after the
				// transaction aborted; there is nothing left to restore.
				continue
			}
			if rec.offset > db.Size() || rec.length > db.Size()-rec.offset {
				return fmt.Errorf("perseas: undo record outside database %q", db.name)
			}
			if op.forward {
				fetches = append(fetches, len(steps))
				steps = append(steps, restore{db: db, rec: rec, op: op})
			} else {
				steps = append(steps, restore{db: db, rec: rec, op: op, image: rec.data})
			}
		}
	}
	if err := netram.ForEach(rc.workers, len(fetches), func(n int) error {
		st := &steps[fetches[n]]
		data, err := l.net.FetchMirror(st.op.winner, st.db.region, st.rec.offset, st.rec.length)
		if err != nil {
			return fmt.Errorf("perseas: re-fetch committed range of %q: %w", st.db.name, err)
		}
		st.image = data
		return nil
	}); err != nil {
		return err
	}
	for _, st := range steps {
		off, n := st.rec.offset, st.rec.length
		l.mem.Copy(l.clock, st.db.region.Local[off:off+n], st.image)
		e := netram.Entry{Region: st.db.region, Range: netram.Range{Offset: off, Length: n}}
		if st.op.forward {
			for _, m := range rc.slots[st.op.slot].lacking {
				rc.stale[m].data = append(rc.stale[m].data, e)
			}
		} else {
			for _, mc := range rc.copies {
				rc.stale[mc.idx].data = append(rc.stale[mc.idx].data, e)
			}
		}
	}
	return nil
}

// republish sends every mirror found to differ from the elected state
// what it lacks, as one batch in commit order — log spans, data, commit
// words, so a second crash finds each mirror at a state the commit path
// itself could have left — and then clears the log tails beyond the
// adopted prefixes, remotely, without shipping a payload of zeroes.
// Mirrors that agree are not written at all. A mirror that dies under the
// republish is absorbed by degradation, like a push.
func (rc *recovery) republish() error {
	l := rc.l
	return netram.ForEach(rc.workers, len(rc.stale), func(i int) error {
		st := &rc.stale[i]
		batch := slices.Concat(st.logs, st.data, st.words)
		if len(batch) == 0 {
			return nil
		}
		l.flightRec.Record(flight.RecoveryRepair, "core",
			fmt.Sprintf("mirror sent %d log spans, %d ranges, %d commit words", len(st.logs), len(st.data), len(st.words)), uint64(i))
		if err := l.net.PushBatchTo(i, batch); err != nil && !l.net.MirrorDown(i) {
			return fmt.Errorf("perseas: republish to mirror %d: %w", i, err)
		}
		for _, t := range st.tails {
			if err := l.net.ZeroRangeTo(i, t.Region, t.Offset, t.Length); err != nil {
				return fmt.Errorf("perseas: clear undo log tail on mirror %d: %w", i, err)
			}
		}
		return nil
	})
}

// Attach builds a Library on a node that did not create the database —
// either the restarted primary or any other workstation taking over after
// a failure (the paper stresses that mirrored data are accessible from
// any node, so recovery "can be started right-away in any available
// workstation"). It runs the full recovery procedure before returning.
func Attach(net *netram.Client, clock simclock.Clock, opts ...Option) (*Library, error) {
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
	l.tracer.SetClock(clock)
	if err := l.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}
