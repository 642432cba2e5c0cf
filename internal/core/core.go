// Package core implements PERSEAS, the paper's transaction library for
// main-memory databases.
//
// PERSEAS keeps every database region in local main memory and mirrors it
// in the main memory of one or more remote workstations through the
// reliable network RAM layer (package netram). A transaction needs only
// memory copies — no magnetic disk ever sits on the commit path:
//
//  1. Tx.SetRange copies the before-image of the declared range into a
//     local undo log. Nothing leaves the node.
//  2. The application updates the declared ranges in place.
//  3. Tx.Commit sends every mirror one ordered batch — the transaction's
//     log records for the remote undo log, then every modified range for
//     the mirrored remote database, then the transaction id as one small
//     write of the commit word, the atomic commit point — and joins
//     once. A mirror applies the batch in order, so it never holds a
//     modified byte without the record that restores it, nor the word
//     without every byte it commits; no reader looks at a remote undo
//     record before its transaction's ranges reach that mirror, so the
//     records only have to get there first, not early.
//
// Where the paper's library serves one sequential application, this
// implementation hands out explicit transaction handles and lets many
// transactions run concurrently. Each in-flight transaction owns a
// private undo-log slot (slot 0 is the paper's single undo region;
// further slots are allocated on demand and mirrored under derived
// names) and a per-slot commit word in the metadata region, so commits
// from different transactions never contend for the same remote bytes.
// A range-conflict table makes overlapping SetRange declarations from
// concurrent transactions fail fast with engine.ErrConflict, preserving
// the paper's in-place update discipline: a declared range has exactly
// one writer until its transaction finishes.
//
// Abort restores the declared ranges from the transaction's undo slot
// with plain local memory copies, and takes back — as one batch, in the
// reverse order — whatever a failed commit batch left on any mirror.
//
// What one mirror holds after a crash says nothing about another: a
// commit batch in flight is on some and not on others, whole or not at
// all. So after a primary-node crash Recover reconnects to the surviving
// remote segments by name, reads every reachable mirror, and settles each
// transaction slot by election — the highest commit word any of them
// holds, the longest log among that word's holders. It rolls the remote
// database back with the slot's remote undo log if an in-flight
// transaction had started propagating updates, brings the mirrors found
// to differ to what it elected, and re-fetches the database — the
// paper's Section 3 recovery procedure, applied per transaction slot and
// per mirror. Committing at a quorum of w < n mirrors (netram.WithQuorum)
// changes a parameter of this, not the procedure.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/hostmem"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
)

// Region-name prefixes used on the remote memory servers. Named segments
// are what let a restarted primary reconnect after losing every pointer.
// A library's namespace is prepended to each, so several applications can
// share the same mirror workstations without colliding.
const (
	metaRegionName   = "perseas.meta"
	undoRegionName   = "perseas.undo"
	dbRegionPrefix   = "perseas.db."
	metaMagic        = uint64(0x5045525345415301) // "PERSEAS\x01"
	metaHeaderSize   = 32
	metaMagicOff     = 0
	metaCommittedOff = 8
	metaUndoSizeOff  = 16
	metaDBCountOff   = 24
	metaNextDBIDOff  = 28
)

// Defaults for tunable sizes.
const (
	// DefaultMetaSize is the metadata region size: header plus database
	// directory plus the per-slot commit words at the region tail.
	DefaultMetaSize = 64 << 10
	// DefaultUndoLogSize bounds the before-images one transaction can
	// log.
	DefaultUndoLogSize = 4 << 20
	// maxUndoSlots caps the number of concurrently open transactions:
	// each needs its own undo-log slot and commit word. The cap bounds
	// the reconnection probe recovery performs.
	maxUndoSlots = 64
)

// Errors specific to PERSEAS.
var (
	// ErrUndoLogFull is returned by SetRange when the transaction's
	// before-images exceed the undo log capacity.
	ErrUndoLogFull = errors.New("perseas: undo log full")
	// ErrStaleDB is returned when a database handle from before a crash
	// is used after recovery.
	ErrStaleDB = errors.New("perseas: stale database handle; reopen after recovery")
	// ErrNoSuchDB is returned by OpenDB for unknown names.
	ErrNoSuchDB = errors.New("perseas: no such database")
	// ErrMetaFull is returned when the database directory outgrows the
	// metadata region.
	ErrMetaFull = errors.New("perseas: metadata region full")
	// ErrBadRange is returned for ranges outside a database.
	ErrBadRange = errors.New("perseas: range outside database")
	// ErrTooManyTxs is returned by Begin when every undo slot is busy
	// and the slot cap is reached. It wraps engine.ErrBusy: the caller
	// backs off and retries once a slot frees.
	ErrTooManyTxs = fmt.Errorf("%w: too many concurrent transactions", engine.ErrBusy)
)

// Stats counts library activity.
type Stats struct {
	Begun       uint64
	Committed   uint64
	Aborted     uint64
	Conflicts   uint64
	SetRanges   uint64
	BytesLogged uint64
	Recoveries  uint64
}

// Database is one PERSEAS-managed main-memory database region. It
// implements engine.DB.
type Database struct {
	id     uint32
	name   string
	region *netram.Region
	stale  bool // guarded by the owning Library's mu
}

// Name implements engine.DB.
func (d *Database) Name() string { return d.name }

// Size implements engine.DB.
func (d *Database) Size() uint64 { return d.region.Size() }

// Bytes implements engine.DB. The slice is the local main-memory copy;
// modify only ranges declared with SetRange, as the paper's API requires.
func (d *Database) Bytes() []byte { return d.region.Local }

// Region exposes the database's mirrored network-RAM region. It exists
// for tooling and failure-injection tests that need to reach the mirror
// layer directly; applications should not use it.
func (d *Database) Region() *netram.Region { return d.region }

// pending is the span SetRange claimed for one declared range — the
// bytes the commit push ships, exactly — remembered until commit.
type pending struct {
	db     *Database
	offset uint64
	length uint64
}

// undoSlot is one transaction-private undo log: a mirrored region plus
// the offset of the slot's commit word inside the metadata region.
// Slot 0 is the paper's undo log with the paper's commit word; extra
// slots live under derived segment names with commit words packed at
// the metadata region's tail.
type undoSlot struct {
	idx     int
	region  *netram.Region
	wordOff uint64
	busy    bool // guarded by Library.mu
	// committed is the id of the last transaction committed from this
	// slot — the local view of the slot's remote commit word. Records
	// at the slot head with larger ids belong to an unfinished
	// transaction. Guarded by Library.mu.
	committed uint64
	// tx is the slot's reusable transaction handle: BeginTx hands it
	// out again once the previous transaction on this slot retired, so
	// the steady state allocates no handle and keeps the range/scratch
	// slices' capacity warm. A retired handle must not be used once a
	// new transaction has begun on its slot (the usual Go rule for
	// pooled objects); retired-handle misuse before that is still
	// caught by the done flag.
	tx *Tx
	// fence gates slot reuse on the retiring transaction's quorum
	// stragglers: the slot stays out of acquireSlotLocked until every
	// push the last transaction enqueued has reached every mirror. This
	// keeps the per-slot undo log's remote copies prefix-consistent —
	// at most the HEAD transaction of a slot can be partially
	// propagated at a crash, which is what recovery's forward-repair
	// step relies on. The zero Fence is already Done, so
	// all-ack clients never wait.
	fence netram.Fence
}

// Library is one PERSEAS instance. Unlike the paper's sequential
// library, it is safe for concurrent use: Begin hands out independent
// transaction handles and any number of them may be in flight.
type Library struct {
	net   *netram.Client
	mem   hostmem.Model
	clock simclock.Clock

	metaSize     uint64
	undoSize     uint64
	namespace    string
	noRemoteUndo bool
	// coalesce enables store-gather merging of a committing
	// transaction's adjacent/overlapping ranges (see Tx.Commit). Off by
	// default: merging reduces the modelled per-write packet overhead,
	// so reproduced figures keep the paper's one-write-per-range cost.
	coalesce bool

	// mu guards every mutable field below plus Database.stale, Tx.done
	// and undoSlot.busy/committed. Network pushes run outside mu; the
	// conflict table guarantees the bytes they read are not concurrently
	// written.
	mu       sync.Mutex
	meta     *netram.Region
	slots    []*undoSlot
	dbs      map[string]*Database
	byID     map[uint32]*Database
	nextDBID uint32
	// dirEnd is the first metadata byte past the serialised directory;
	// slot commit words may not be allocated below it.
	dirEnd   uint64
	lastTxID uint64
	// committed is the largest committed transaction id across slots.
	committed uint64
	txs       map[*Tx]struct{}
	locks     conflictTable
	crashed   bool
	stats     Stats
	// retire names the transaction-id fields of the log records of
	// transactions the last recovery rolled back. The records are still
	// valid at their slots' remote log heads; the first Begin zeroes the
	// ids and pushes them, before any new transaction can commit to the
	// bytes they cover (see beginTx).
	retire []netram.Entry

	// metaMu orders writes to the metadata region's local buffer and its
	// pushes: per-slot commit words are disjoint bytes, so their writers
	// share the read lock; directory rewrites (which push the whole
	// region) take the write lock.
	metaMu sync.RWMutex

	// metrics is the lock-free commit-path breakdown; it reads the
	// clock but never advances it.
	metrics CommitMetrics

	// recMetrics is the per-phase recovery breakdown, populated by
	// Recover/Attach; like metrics it only reads the clock.
	recMetrics RecoveryMetrics

	// tracer records per-transaction span trees; nil (the default)
	// disables tracing entirely. Like metrics it only reads the clock.
	tracer *trace.Recorder

	// flightRec records recovery/rebuild phase transitions on the shared
	// anomaly flight recorder; nil records nothing.
	flightRec *flight.Recorder

	// recoveryWorkers is the width of the recovery pipeline: how many
	// units of one phase run at once. At 1 (the default) every phase runs
	// inline on the caller's goroutine.
	recoveryWorkers int
}

// Option configures a Library.
type Option func(*Library)

// WithUndoLogSize overrides the per-transaction undo log capacity.
func WithUndoLogSize(n uint64) Option {
	return func(l *Library) { l.undoSize = n }
}

// WithMetaSize overrides the metadata region size.
func WithMetaSize(n uint64) Option {
	return func(l *Library) { l.metaSize = n }
}

// WithMemModel overrides the local memory-copy cost model.
func WithMemModel(m hostmem.Model) Option {
	return func(l *Library) { l.mem = m }
}

// WithNamespace prefixes every remote segment name with ns, letting
// several applications keep independent PERSEAS databases on the same
// mirror workstations.
func WithNamespace(ns string) Option {
	return func(l *Library) { l.namespace = ns }
}

// WithTracer attaches a span recorder to the library: every transaction
// records its commit-path phases (and the per-mirror writes under them)
// as one span tree. The recorder never advances the library clock, so
// simulated figures are unaffected; a nil recorder records nothing.
func WithTracer(rec *trace.Recorder) Option {
	return func(l *Library) { l.tracer = rec }
}

// WithRecoveryParallelism sets the width of the recovery pipeline: up to
// n units of each phase run at once — metadata snapshots, undo-slot
// reconnects and scans (slots hold disjoint ranges, so their scans are
// independent), database fetches (which also stripe read chunks across
// the surviving mirrors), winner fetches and per-database repair
// publishes. n <= 1 runs the same phases inline on the caller's
// goroutine. The recovered state is identical at every width, and so is
// the modelled recovery time: the simulated link charges per operation,
// whatever the order.
func WithRecoveryParallelism(n int) Option {
	return func(l *Library) {
		if n > 1 {
			l.recoveryWorkers = n
		}
	}
}

// WithFlightRecorder attaches the anomaly flight recorder: recovery and
// rebuild phase transitions are recorded as events, giving a crash
// post-mortem the timeline metrics alone cannot. A nil recorder records
// nothing.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(l *Library) { l.flightRec = rec }
}

// WithUnsafeNoRemoteUndo disables the remote undo-log push that opens
// Commit. This exists ONLY for the ablation benchmarks that price the remote
// undo mirroring: without it a primary crash during commit cannot be
// rolled back on the mirrors, so never enable it in real deployments.
func WithUnsafeNoRemoteUndo() Option {
	return func(l *Library) { l.noRemoteUndo = true }
}

// WithStoreGather merges adjacent or overlapping declared ranges at
// commit time — the software analogue of the SCI adapter's 8×64 B
// store-gathering — shrinking the wire range count for workloads that
// touch consecutive rows (order-entry's order-line inserts). Off by
// default so reproduced figures keep the paper's one-write-per-range
// packet accounting; enable it over real transports, where fewer
// larger writes are a strict win.
func WithStoreGather() Option {
	return func(l *Library) { l.coalesce = true }
}

// Init creates a PERSEAS instance over the given reliable-network-RAM
// client — the paper's PERSEAS_init. It allocates and mirrors the
// metadata region and the first undo-log slot.
func Init(net *netram.Client, clock simclock.Clock, opts ...Option) (*Library, error) {
	l := &Library{
		net:      net,
		mem:      hostmem.Default(),
		clock:    clock,
		metaSize: DefaultMetaSize,
		undoSize: DefaultUndoLogSize,
		dbs:      make(map[string]*Database),
		byID:     make(map[uint32]*Database),
		txs:      make(map[*Tx]struct{}),
		locks:    newConflictTable(),
		nextDBID: 1,
		dirEnd:   metaHeaderSize,
	}
	for _, o := range opts {
		o(l)
	}
	// Latency histograms on both layers read this clock (never advance
	// it), so simulated runs report modelled time — and span timestamps
	// follow the same clock.
	net.SetClock(clock)
	l.tracer.SetClock(clock)
	if l.metaSize < metaHeaderSize+8 {
		return nil, fmt.Errorf("perseas: metadata region too small (%d bytes)", l.metaSize)
	}
	if l.undoSize < recordHeaderSize+1 {
		return nil, fmt.Errorf("perseas: undo log too small (%d bytes)", l.undoSize)
	}

	meta, err := net.Malloc(l.qualify(metaRegionName), l.metaSize)
	if err != nil {
		return nil, fmt.Errorf("perseas: allocate metadata: %w", err)
	}
	undo, err := net.Malloc(l.qualify(undoRegionName), l.undoSize)
	if err != nil {
		_ = net.Free(meta)
		return nil, fmt.Errorf("perseas: allocate undo log: %w", err)
	}
	l.meta = meta
	l.slots = []*undoSlot{{idx: 0, region: undo, wordOff: metaCommittedOff}}

	binary.BigEndian.PutUint64(meta.Local[metaMagicOff:], metaMagic)
	binary.BigEndian.PutUint64(meta.Local[metaCommittedOff:], 0)
	binary.BigEndian.PutUint64(meta.Local[metaUndoSizeOff:], l.undoSize)
	binary.BigEndian.PutUint32(meta.Local[metaDBCountOff:], 0)
	// Acked on every mirror: recovery reads the metadata region from
	// whichever mirror it reaches first, so quorum mode must not leave a
	// lagging copy behind. Identical to PushAll under all-ack.
	if err := net.PushAllAcked(meta); err != nil {
		return nil, fmt.Errorf("perseas: publish metadata: %w", err)
	}
	return l, nil
}

// undoSlotName derives the remote segment name of undo slot k.
func undoSlotName(k int) string {
	if k == 0 {
		return undoRegionName
	}
	return fmt.Sprintf("%s.%d", undoRegionName, k)
}

// slotWordOffset places slot k's commit word. Slot 0 uses the paper's
// header word; later slots pack 8-byte words down from the metadata
// region's tail, leaving the middle to the database directory.
func slotWordOffset(metaSize uint64, k int) uint64 {
	if k == 0 {
		return metaCommittedOff
	}
	return metaSize - 8*uint64(k)
}

// acquireSlotLocked finds a free undo slot or allocates a new one.
// Caller holds l.mu.
func (l *Library) acquireSlotLocked() (*undoSlot, error) {
	for _, s := range l.slots {
		if !s.busy && s.fence.Done() {
			return s, nil
		}
	}
	k := len(l.slots)
	if k >= maxUndoSlots {
		return nil, fmt.Errorf("%w: %d slots busy", ErrTooManyTxs, k)
	}
	wordOff := slotWordOffset(l.metaSize, k)
	if wordOff < l.dirEnd || wordOff < metaHeaderSize {
		return nil, fmt.Errorf("%w: no room for commit word of undo slot %d", ErrMetaFull, k)
	}
	region, err := l.net.Malloc(l.qualify(undoSlotName(k)), l.undoSize)
	if err != nil {
		return nil, fmt.Errorf("perseas: allocate undo slot %d: %w", k, err)
	}
	s := &undoSlot{idx: k, region: region, wordOff: wordOff}
	l.slots = append(l.slots, s)
	return s, nil
}

// Stats returns a snapshot of the library counters.
func (l *Library) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Net exposes the underlying network-RAM client (benchmarks inspect its
// traffic counters).
func (l *Library) Net() *netram.Client { return l.net }

// InTransaction reports whether any transaction is open.
func (l *Library) InTransaction() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.txs) > 0
}

// CommittedTxID returns the largest committed transaction id.
func (l *Library) CommittedTxID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

func (l *Library) checkAliveLocked() error {
	if l.crashed {
		return engine.ErrCrashed
	}
	return nil
}

// qualify prepends the library's namespace to a segment name.
func (l *Library) qualify(name string) string {
	if l.namespace == "" {
		return name
	}
	return l.namespace + "/" + name
}

// Name implements engine.Engine.
func (l *Library) Name() string { return "perseas" }

// CreateDB implements engine.Engine: the paper's PERSEAS_malloc. It
// allocates local memory for the database records and prepares the remote
// segments the records will be mirrored in.
func (l *Library) CreateDB(name string, size uint64) (engine.DB, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return nil, err
	}
	if _, ok := l.dbs[name]; ok {
		return nil, fmt.Errorf("perseas: database %q exists", name)
	}
	region, err := l.net.Malloc(l.qualify(dbRegionPrefix+name), size)
	if err != nil {
		return nil, fmt.Errorf("perseas: allocate database %q: %w", name, err)
	}
	db := &Database{id: l.nextDBID, name: name, region: region}
	l.nextDBID++
	l.dbs[name] = db
	l.byID[db.id] = db
	if err := l.writeDirectoryLocked(); err != nil {
		delete(l.dbs, name)
		delete(l.byID, db.id)
		_ = l.net.Free(region)
		return nil, err
	}
	return db, nil
}

// InitDB implements engine.Engine: the paper's PERSEAS_init_remote_db.
// Call it once after setting the local records to their initial values;
// it mirrors the whole database to the remote nodes. It must not run
// concurrently with transactions touching the same database.
func (l *Library) InitDB(db engine.DB) error {
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	d, err := l.ownLocked(db)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	// Acked everywhere: the initial image is the baseline every replica
	// and every future repair builds on.
	if err := l.net.PushAllAcked(d.region); err != nil {
		return fmt.Errorf("perseas: mirror database %q: %w", d.name, err)
	}
	return nil
}

// DropDB removes a database: its remote segments are freed on every
// mirror and the directory is republished. It cannot run while any
// transaction is open.
func (l *Library) DropDB(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return err
	}
	if len(l.txs) > 0 {
		return fmt.Errorf("perseas: drop database: %w", engine.ErrInTransaction)
	}
	db, ok := l.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDB, name)
	}
	if err := l.net.Free(db.region); err != nil {
		return fmt.Errorf("perseas: free database %q: %w", name, err)
	}
	db.stale = true
	delete(l.dbs, name)
	delete(l.byID, db.id)
	l.locks.releaseDB(db.id)
	return l.writeDirectoryLocked()
}

// OpenDB implements engine.Engine.
func (l *Library) OpenDB(name string) (engine.DB, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return nil, err
	}
	db, ok := l.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDB, name)
	}
	return db, nil
}

// Close implements engine.Engine. Remote segments stay exported so
// another node can take over the database.
func (l *Library) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = true
	l.retireAllLocked()
	return nil
}

// ownLocked checks that db is a live Database of this library. Caller
// holds l.mu.
func (l *Library) ownLocked(db engine.DB) (*Database, error) {
	d, ok := db.(*Database)
	if !ok {
		return nil, fmt.Errorf("perseas: foreign DB handle %T", db)
	}
	if d.stale {
		return nil, ErrStaleDB
	}
	if l.byID[d.id] != d {
		return nil, fmt.Errorf("perseas: unknown database handle %q", d.name)
	}
	return d, nil
}

// writeDirectoryLocked serialises the database directory into the
// metadata region and mirrors it. Caller holds l.mu; the metadata write
// lock is taken so the full-region push cannot race a commit word.
func (l *Library) writeDirectoryLocked() error {
	l.metaMu.Lock()
	defer l.metaMu.Unlock()
	buf := l.meta.Local
	// The directory may not grow into the slot commit words at the
	// region tail.
	limit := len(buf)
	if n := len(l.slots); n > 1 {
		limit = int(slotWordOffset(l.metaSize, n-1))
	}
	binary.BigEndian.PutUint32(buf[metaDBCountOff:], uint32(len(l.byID)))
	// The id counter is persisted so ids of dropped databases are never
	// reused after a crash: stale undo records naming a dropped id must
	// not be able to alias a database created after recovery.
	binary.BigEndian.PutUint32(buf[metaNextDBIDOff:], l.nextDBID)
	off := metaHeaderSize
	// Directory entries are ordered by id so recovery rebuilds ids
	// deterministically.
	for id := uint32(1); id < l.nextDBID; id++ {
		db, ok := l.byID[id]
		if !ok {
			continue
		}
		need := 4 + 8 + 2 + len(db.name)
		if off+need > limit {
			return fmt.Errorf("%w: %d databases", ErrMetaFull, len(l.byID))
		}
		binary.BigEndian.PutUint32(buf[off:], db.id)
		binary.BigEndian.PutUint64(buf[off+4:], db.region.Size())
		binary.BigEndian.PutUint16(buf[off+12:], uint16(len(db.name)))
		copy(buf[off+14:], db.name)
		off += need
	}
	l.dirEnd = uint64(off)
	// Acked everywhere: recovery parses the directory from a single
	// mirror's metadata copy, so quorum mode may not commit a directory
	// change that some replica has not seen.
	if err := l.net.PushAllAcked(l.meta); err != nil {
		return fmt.Errorf("perseas: publish directory: %w", err)
	}
	return nil
}

// directoryEnd computes the first byte past a directory with the given
// entries.
func directoryEnd(entries []dirEntry) uint64 {
	off := uint64(metaHeaderSize)
	for _, e := range entries {
		off += 14 + uint64(len(e.name))
	}
	return off
}

// readDirectory parses the metadata region into (id, name, size) tuples
// plus the persisted id counter.
func readDirectory(buf []byte) (committed uint64, undoSize uint64, nextDBID uint32, entries []dirEntry, err error) {
	if len(buf) < metaHeaderSize {
		return 0, 0, 0, nil, errors.New("perseas: metadata region truncated")
	}
	if binary.BigEndian.Uint64(buf[metaMagicOff:]) != metaMagic {
		return 0, 0, 0, nil, errors.New("perseas: bad metadata magic")
	}
	committed = binary.BigEndian.Uint64(buf[metaCommittedOff:])
	undoSize = binary.BigEndian.Uint64(buf[metaUndoSizeOff:])
	nextDBID = binary.BigEndian.Uint32(buf[metaNextDBIDOff:])
	count := binary.BigEndian.Uint32(buf[metaDBCountOff:])
	off := metaHeaderSize
	for i := uint32(0); i < count; i++ {
		if off+14 > len(buf) {
			return 0, 0, 0, nil, errors.New("perseas: metadata directory truncated")
		}
		e := dirEntry{
			id:   binary.BigEndian.Uint32(buf[off:]),
			size: binary.BigEndian.Uint64(buf[off+4:]),
		}
		nameLen := int(binary.BigEndian.Uint16(buf[off+12:]))
		if off+14+nameLen > len(buf) {
			return 0, 0, 0, nil, errors.New("perseas: metadata directory truncated")
		}
		e.name = string(buf[off+14 : off+14+nameLen])
		off += 14 + nameLen
		entries = append(entries, e)
	}
	return committed, undoSize, nextDBID, entries, nil
}

// dirEntry is one parsed directory row.
type dirEntry struct {
	id   uint32
	size uint64
	name string
}

// ReviveMirror reintegrates a repaired mirror node: every PERSEAS region
// — metadata, undo logs and all databases — is re-exported there and
// refilled from the primary's copies, restoring the replication degree.
// It must be called between transactions: the local copies are then
// exactly the committed state, so the resync cannot leak uncommitted
// data.
func (l *Library) ReviveMirror(i int) error {
	l.mu.Lock()
	if err := l.checkAliveLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if len(l.txs) > 0 {
		l.mu.Unlock()
		return fmt.Errorf("perseas: revive mirror: %w", engine.ErrInTransaction)
	}
	l.mu.Unlock()
	return l.net.Revive(i)
}

// retireAllLocked invalidates every open transaction handle. Caller
// holds l.mu.
func (l *Library) retireAllLocked() {
	for tx := range l.txs {
		tx.done = true
	}
	l.txs = make(map[*Tx]struct{})
	for _, s := range l.slots {
		s.busy = false
	}
	l.locks = newConflictTable()
}

// Crash implements engine.Engine: the primary workstation fails. Local
// main memory — the databases, the undo-log slots, every pointer, every
// open transaction — is gone regardless of crash kind; only the remote
// mirrors survive.
func (l *Library) Crash(fault.CrashKind) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = true
	l.retireAllLocked()
	l.retire = nil
	for _, db := range l.dbs {
		db.stale = true
	}
	l.dbs = make(map[string]*Database)
	l.byID = make(map[uint32]*Database)
	// Committers read l.meta under metaMu; taking the write lock here
	// fences any in-flight commit-word push before the region vanishes.
	l.metaMu.Lock()
	l.meta = nil
	l.metaMu.Unlock()
	l.slots = nil
	return nil
}
