package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/hostmem"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
)

// recoveredSlot pairs a reconnected undo-slot region with its committed
// word as read from the recovered metadata region. Under quorum
// recovery, committed is the maximum word any reachable mirror holds
// for the slot and holders lists the mirrors whose metadata snapshot
// held that maximum (empty in all-ack mode). prefix is how many leading
// bytes of the winning mirror's log were adopted into the local image —
// the only bytes the final republish must ship; the tail beyond it is
// zeroed remotely without a payload.
type recoveredSlot struct {
	region    *netram.Region
	committed uint64
	holders   []int
	prefix    uint64
}

// mirrorCopy is one reachable mirror's snapshot of the metadata region,
// taken at the start of a quorum recovery. A crash can leave mirrors at
// different prefixes of the push stream, so no single copy can be
// trusted for the commit words.
type mirrorCopy struct {
	idx int
	buf []byte
}

// fetchMetaCopies snapshots the metadata region from every reachable
// mirror, up to workers at a time. Quorum recovery needs at least n-w+1
// copies: a commit word acked by w of n mirrors is then guaranteed to
// appear in at least one snapshot, so taking the per-slot maximum over
// the copies recovers every quorum-committed word.
func (l *Library) fetchMetaCopies(meta *netram.Region, workers int) ([]mirrorCopy, error) {
	n := l.net.Mirrors()
	w := l.net.Quorum()
	bufs := make([][]byte, n)
	errs := make([]error, n)
	// Unreachable mirrors are expected here — they are why recovery is
	// running — so a fetch failure is recorded per index, never returned,
	// and the remaining mirrors are always tried.
	_ = netram.ForEach(workers, n, func(i int) error {
		data, err := l.net.FetchMirror(i, meta, 0, meta.Size())
		if err != nil {
			errs[i] = err
			return nil
		}
		buf := make([]byte, len(data))
		copy(buf, data)
		bufs[i] = buf
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
		return nil, fmt.Errorf("perseas: quorum recovery reached %d of %d metadata copies, needs %d to cover every %d-ack commit: %w",
			len(copies), n, n-w+1, w, lastErr)
	}
	return copies, nil
}

// repairOp is one undo slot's staged crash repair. forward means the
// slot's head transaction is committed (its id equals the slot's merged
// commit word, or a coordinator decided it) but may not have reached
// every mirror: its modified ranges are re-fetched from the winner
// mirror and re-published. Otherwise the head transaction is in flight
// and its before-images roll it back. holders counts the mirrors whose
// snapshot held the slot's merged word — because every mirror receives
// the push stream in the same order, holder sets of different commit
// words are nested, so a larger holder set means the word was enqueued
// earlier: sorting forward repairs by descending holder count replays
// committed overlaps in true commit order even when transaction ids
// (assigned at Begin) disagree with it.
type repairOp struct {
	slot    int
	forward bool
	txID    uint64
	winner  int
	holders int
	recs    []undoRecord
}

// scanMirrorUndoLog parses mirror m's copy of an undo-slot region
// without touching the region's local buffer, fetching lazily in
// chunks. The buffer grows with the fetched prefix instead of being
// sized for the whole region up front, so scanning every holder of
// every slot allocates proportionally to the records actually written,
// not mirrors × slots × region size. The returned records alias buf;
// fetched is how many leading bytes of the mirror's log were
// materialised.
func (l *Library) scanMirrorUndoLog(m int, region *netram.Region, committed uint64) (recs []undoRecord, buf []byte, fetched uint64, err error) {
	size := region.Size()
	ensure := func(n uint64) ([]byte, error) {
		if n > size {
			n = size
		}
		if n <= fetched {
			return buf, nil
		}
		target := (n + undoChunk - 1) / undoChunk * undoChunk
		if target > size {
			target = size
		}
		if uint64(len(buf)) < target {
			grow := uint64(2 * len(buf))
			if grow < target {
				grow = target
			}
			if grow > size {
				grow = size
			}
			grown := make([]byte, grow)
			copy(grown, buf[:fetched])
			buf = grown
		}
		data, ferr := l.net.FetchMirror(m, region, fetched, target-fetched)
		if ferr != nil {
			return nil, fmt.Errorf("perseas: fetch undo log from mirror %d: %w", m, ferr)
		}
		copy(buf[fetched:], data)
		fetched = target
		return buf, nil
	}
	recs, err = scanUndoLogLazy(committed, size, ensure)
	return recs, buf, fetched, err
}

// planSlotRepair decides how quorum recovery settles undo slot k. Every
// mirror receives the slot's pushes in enqueue order, so each mirror's
// log is a prefix of the slot's true record sequence; the scan with the
// lowest threshold that still admits the head transaction (word-1)
// makes a committed-but-possibly-lagging head visible. Among the
// slot's word holders the log with the highest head id, then the most
// records, is the longest prefix — it contains every record that has
// data anywhere. Its bytes become the local view of the slot; the
// returned prefix is how many of them were materialised, which is all
// the final republish needs to ship.
func (l *Library) planSlotRepair(k int, rs recoveredSlot) (*repairOp, uint64, error) {
	threshold := rs.committed
	if threshold > 0 {
		threshold--
	}
	bestN := -1
	var bestHead, bestFetched uint64
	var bestWinner int
	var bestRecs []undoRecord
	var bestBuf []byte
	var lastErr error
	for _, m := range rs.holders {
		recs, buf, fetched, err := l.scanMirrorUndoLog(m, rs.region, threshold)
		if err != nil {
			lastErr = err
			continue
		}
		head := uint64(0)
		if len(recs) > 0 {
			head = recs[0].txID
		}
		if bestN < 0 || head > bestHead || (head == bestHead && len(recs) > bestN) {
			bestHead, bestN, bestWinner = head, len(recs), m
			bestRecs, bestBuf, bestFetched = recs, buf, fetched
		}
	}
	if bestN < 0 {
		return nil, 0, fmt.Errorf("perseas: undo slot %d unreadable on every quorum-current mirror: %w", k, lastErr)
	}
	copy(rs.region.Local[:bestFetched], bestBuf[:bestFetched])
	if bestN == 0 {
		return nil, bestFetched, nil
	}
	return &repairOp{
		slot:    k,
		forward: bestHead == rs.committed,
		txID:    bestHead,
		winner:  bestWinner,
		holders: len(rs.holders),
		recs:    bestRecs,
	}, bestFetched, nil
}

// lazyFetcher returns an ensure(n) callback that materialises region
// bytes [0,n) on demand, chunk by chunk: most crashes leave only a
// handful of records per slot, so recovery transfers kilobytes, not the
// whole undo region.
func (l *Library) lazyFetcher(region *netram.Region) func(uint64) ([]byte, error) {
	var fetched uint64
	return func(n uint64) ([]byte, error) {
		if n > region.Size() {
			n = region.Size()
		}
		if n <= fetched {
			return region.Local, nil
		}
		target := (n + undoChunk - 1) / undoChunk * undoChunk
		if target > region.Size() {
			target = region.Size()
		}
		if err := l.net.FetchInto(region, fetched, target-fetched); err != nil {
			return nil, fmt.Errorf("perseas: fetch undo log: %w", err)
		}
		fetched = target
		return region.Local, nil
	}
}

// mergeSlotWord settles slot k's commit word after the crash. All-ack
// mode trusts the fetched metadata copy. Quorum mode merges the word
// across the mirror snapshots by maximum — a commit acked by w mirrors
// is on at least one snapshot — and republishes it if any mirror
// lagged; the returned holders are the mirrors whose snapshot held the
// winning word. A coordinator decision that outranks the merged word is
// published the same way, so the decided transaction counts as
// committed on this shard instead of being rolled back.
func (l *Library) mergeSlotWord(meta *netram.Region, k int, committed0 uint64, q int, metaCopies []mirrorCopy, decided map[int]uint64) (uint64, []int, error) {
	word := committed0
	if k > 0 {
		word = binary.BigEndian.Uint64(meta.Local[slotWordOffset(meta.Size(), k):])
	}
	var holders []int
	if q > 0 {
		// Merge the slot's word across the snapshots: a commit that
		// reached its quorum is on at least one of them. Mirrors
		// holding the maximum are the slot's repair candidates — the
		// word is enqueued after the head transaction's records and
		// data, so a word holder has all of them.
		wordOff := slotWordOffset(meta.Size(), k)
		merged := word
		for _, mc := range metaCopies {
			if w := binary.BigEndian.Uint64(mc.buf[wordOff:]); w > merged {
				merged = w
			}
		}
		stale := false
		for _, mc := range metaCopies {
			if binary.BigEndian.Uint64(mc.buf[wordOff:]) == merged {
				holders = append(holders, mc.idx)
			} else {
				stale = true
			}
		}
		if len(holders) == 0 {
			for _, mc := range metaCopies {
				holders = append(holders, mc.idx)
			}
		}
		if merged != word || stale {
			binary.BigEndian.PutUint64(meta.Local[wordOff:], merged)
			if err := l.net.PushAcked(meta, wordOff, 8); err != nil {
				return 0, nil, fmt.Errorf("perseas: republish commit word of slot %d: %w", k, err)
			}
			word = merged
		}
	}
	if d := decided[k]; d > word {
		// The coordinator decided this slot's head transaction
		// committed but the crash beat the word push. Publish the
		// word now, before the rollback scan, so the scan treats the
		// transaction's records as committed.
		wordOff := slotWordOffset(meta.Size(), k)
		binary.BigEndian.PutUint64(meta.Local[wordOff:], d)
		if err := l.net.PushAcked(meta, wordOff, 8); err != nil {
			return 0, nil, fmt.Errorf("perseas: publish decided commit word: %w", err)
		}
		word = d
		if q > 0 {
			// No snapshot holds the decided word, but the prepared
			// data behind a decision is always pushed fully acked,
			// so any reachable mirror can serve the repair.
			holders = holders[:0]
			for _, mc := range metaCopies {
				holders = append(holders, mc.idx)
			}
		}
	}
	return word, holders, nil
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
func (l *Library) Recover() error {
	return l.RecoverWithDecisions(nil)
}

// RecoverWithDecisions is Recover plus a coordinator's verdicts: decided
// maps an undo-slot index to a transaction id a cross-shard coordinator
// recorded as committed. A decided id that outranks the slot's recovered
// commit word means the commit-word push lost a race with the crash
// after the decision became durable; recovery publishes the word itself
// before the rollback scan, so the transaction's records count as
// committed on this shard instead of being rolled back. Stale decisions
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
// the metadata said, the regions reconnected so far, and the repairs
// the slot scan staged. Every phase spreads its independent units —
// metadata snapshots, slot reconnects and scans, database fetches,
// winner fetches, repair publishes — over netram.ForEach at the
// configured width, and database fetches additionally stripe read
// chunks across the surviving mirrors; at width 1 (the default) that is
// the same pipeline run inline on the caller's goroutine. The recovered
// state is byte-identical at every width: slots hold disjoint ranges,
// staged repairs apply serially in commit order, and every publish
// ships final local bytes.
type recovery struct {
	l       *Library
	root    trace.InfraSpan
	workers int
	q       int
	decided map[int]uint64

	// meta_fetch
	meta         *netram.Region
	committed0   uint64
	undoSize     uint64
	storedNextID uint32
	entries      []dirEntry
	metaCopies   []mirrorCopy
	// slot_connect, db_fetch
	slots []recoveredSlot
	dbs   map[string]*Database
	byID  map[uint32]*Database
	maxID uint32
	// slot_scan: rollbacks holds each all-ack slot's in-flight records,
	// repairs each quorum slot's staged repair.
	committed uint64
	lastTxID  uint64
	rollbacks []repairOp
	repairs   []repairOp
}

// recoverLocked is the recovery procedure proper: a fixed sequence of
// phases whose only variable is the width.
func (l *Library) recoverLocked(root trace.InfraSpan, workers int, decided map[int]uint64) error {
	rc := &recovery{l: l, root: root, workers: workers, q: l.net.Quorum(), decided: decided}
	m := &l.recMetrics
	if err := rc.step("meta_fetch", &m.MetaFetch, rc.metaFetch); err != nil {
		return err
	}
	if err := rc.step("slot_connect", &m.SlotConnect, rc.slotConnect); err != nil {
		return err
	}
	if err := rc.step("db_fetch", &m.DBFetch, rc.dbFetch); err != nil {
		return err
	}
	if err := rc.step("slot_scan", &m.SlotScan, rc.slotScan); err != nil {
		return err
	}
	rc.install()
	if err := rc.step("rollback", &m.Rollback, rc.rollback); err != nil {
		return err
	}
	if len(rc.repairs) > 0 {
		if err := rc.step("quorum_repair", &m.Repair, rc.quorumRepair); err != nil {
			return err
		}
	}
	if rc.q > 0 {
		if err := rc.step("undo_republish", &m.Republish, rc.undoRepublish); err != nil {
			return err
		}
	}
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

// metaFetch reconnects the metadata region, fetches the directory, and —
// under quorum — snapshots the metadata from every reachable mirror.
func (rc *recovery) metaFetch() error {
	l := rc.l
	var err error
	rc.meta, err = l.net.Connect(l.qualify(metaRegionName))
	if err != nil {
		return fmt.Errorf("perseas: reconnect metadata: %w", err)
	}
	if err := l.net.FetchInto(rc.meta, 0, rc.meta.Size()); err != nil {
		return fmt.Errorf("perseas: fetch metadata: %w", err)
	}
	rc.committed0, rc.undoSize, rc.storedNextID, rc.entries, err = readDirectory(rc.meta.Local)
	if err != nil {
		return err
	}
	if rc.q > 0 {
		// Quorum mode: the commit words on the fetched copy may lag
		// other mirrors, so snapshot the metadata from every reachable
		// mirror and merge each slot's word by maximum later. The
		// directory itself is always pushed fully acked, so the base
		// copy is authoritative for everything but the words.
		rc.metaCopies, err = l.fetchMetaCopies(rc.meta, rc.workers)
		if err != nil {
			return err
		}
	}
	return nil
}

// slotConnect reconnects every undo slot and settles its commit word.
// Slot 0 always exists; further slots were allocated on demand by past
// concurrency and are found by probing their names — the connected
// prefix is the slot set, and at width 1 the probe stops at the first
// missing name. Word settlement is serial at every width: it is a
// handful of 8-byte writes and its meta.Local updates must not race.
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
		word, holders, err := l.mergeSlotWord(rc.meta, k, rc.committed0, rc.q, rc.metaCopies, rc.decided)
		if err != nil {
			return err
		}
		rc.slots = append(rc.slots, recoveredSlot{region: region, committed: word, holders: holders})
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

// slotScan scans each slot's remote undo log for its head transaction's
// records. Slots hold disjoint ranges and each scan touches only its own
// region, so the scans are independent; the aggregation runs in slot
// order, keeping the repair lists and the id re-seed deterministic. The
// largest id seen anywhere — commit words and log records — re-seeds
// the transaction-id counter.
func (rc *recovery) slotScan() error {
	l := rc.l
	ops := make([]*repairOp, len(rc.slots))
	if err := netram.ForEach(rc.workers, len(rc.slots), func(k int) error {
		rs := &rc.slots[k]
		if rc.q > 0 {
			var err error
			ops[k], rs.prefix, err = l.planSlotRepair(k, *rs)
			return err
		}
		recs, err := scanUndoLogLazy(rs.committed, rs.region.Size(), l.lazyFetcher(rs.region))
		if len(recs) > 0 {
			ops[k] = &repairOp{slot: k, recs: recs}
		}
		return err
	}); err != nil {
		return err
	}
	for k, rs := range rc.slots {
		rc.committed = max(rc.committed, rs.committed)
		rc.lastTxID = max(rc.lastTxID, rs.committed)
		op := ops[k]
		if op == nil {
			continue
		}
		for _, rec := range op.recs {
			rc.lastTxID = max(rc.lastTxID, rec.txID)
		}
		if rc.q > 0 {
			rc.repairs = append(rc.repairs, *op)
		} else {
			rc.rollbacks = append(rc.rollbacks, *op)
		}
	}
	return nil
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

// rollback rolls back each all-ack slot's in-flight transaction: the
// original data found in the remote undo log are copied back over the
// illegal updates, locally and on the mirrors. Concurrent transactions
// hold disjoint ranges, so the order across slots does not matter.
func (rc *recovery) rollback() error {
	return rc.repair(rc.rollbacks)
}

// quorumRepair settles the quorum slots' head transactions. Forward
// repairs apply in commit order (descending holder count — see
// repairOp); rollbacks apply last, because an in-flight claim is always
// the newest writer of its bytes.
func (rc *recovery) quorumRepair() error {
	sort.SliceStable(rc.repairs, func(i, j int) bool {
		a, b := rc.repairs[i], rc.repairs[j]
		if a.forward != b.forward {
			return a.forward
		}
		return a.forward && a.holders > b.holders
	})
	return rc.repair(rc.repairs)
}

// restore is one undo record's repair of the local image: image holds
// the record's before-image for a rollback, or the winner mirror's
// current bytes of the range for a forward repair.
type restore struct {
	db     *Database
	rec    undoRecord
	winner int
	image  []byte
}

// repair applies ops in order, each newest record first, against the
// local images and then publishes the result. Everything is staged
// before any mirror is written: writes begin only after every winner's
// bytes were fetched, so one slot's repair can never clobber bytes
// another slot still needs to read (the mirrors are untouched until
// the publish, so fetching the winners concurrently reads the same
// bytes). Ranges within a transaction may overlap, so the publish ships
// each database's final local bytes as one batch joined on every
// mirror — the bytes per-record pushes would have converged on.
func (rc *recovery) repair(ops []repairOp) error {
	l := rc.l
	var steps []restore
	var fetches []int
	for _, op := range ops {
		for i := len(op.recs) - 1; i >= 0; i-- {
			rec := op.recs[i]
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
				steps = append(steps, restore{db: db, rec: rec, winner: op.winner})
			} else {
				steps = append(steps, restore{db: db, rec: rec, image: rec.data})
			}
		}
	}
	if err := netram.ForEach(rc.workers, len(fetches), func(n int) error {
		st := &steps[fetches[n]]
		data, err := l.net.FetchMirror(st.winner, st.db.region, st.rec.offset, st.rec.length)
		if err != nil {
			return fmt.Errorf("perseas: re-fetch committed range of %q: %w", st.db.name, err)
		}
		st.image = append([]byte(nil), data...)
		return nil
	}); err != nil {
		return err
	}
	var order []*Database
	ranges := make(map[*Database][]netram.Range)
	for _, st := range steps {
		off, n := st.rec.offset, st.rec.length
		l.mem.Copy(l.clock, st.db.region.Local[off:off+n], st.image)
		if _, ok := ranges[st.db]; !ok {
			order = append(order, st.db)
		}
		ranges[st.db] = append(ranges[st.db], netram.Range{Offset: off, Length: n})
	}
	return netram.ForEach(rc.workers, len(order), func(i int) error {
		db := order[i]
		if err := l.net.PushManyAckedTraced(db.region, ranges[db], nil); err != nil {
			return fmt.Errorf("perseas: repair mirror of %q: %w", db.name, err)
		}
		return nil
	})
}

// undoRepublish: quorum recovery adopted each slot's winning undo log
// as the local image; republish it so every mirror's copy — including
// one that missed straggler writes entirely — is byte-identical before
// the region set is readable. Only the materialised prefix ships as
// payload; the tail beyond the winner's records must be zeros
// everywhere (a future scan treats zeros as log end, and stale
// divergent tails must not survive into the next crash's winner
// election), so it is cleared remotely without shipping a payload of
// zeroes.
func (rc *recovery) undoRepublish() error {
	l := rc.l
	return netram.ForEach(rc.workers, len(rc.slots), func(k int) error {
		rs := rc.slots[k]
		if rs.prefix > 0 {
			if err := l.net.PushAcked(rs.region, 0, rs.prefix); err != nil {
				return fmt.Errorf("perseas: republish undo log: %w", err)
			}
		}
		if rs.prefix < rs.region.Size() {
			if err := l.net.ZeroRangeAcked(rs.region, rs.prefix, rs.region.Size()-rs.prefix); err != nil {
				return fmt.Errorf("perseas: republish undo log: %w", err)
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
