package core

import (
	"fmt"
	"sort"

	"github.com/ics-forth/perseas/internal/engine"
)

// The shard router moves a database between PERSEAS instances with the
// same dirty-epoch discipline netram.RebuildMirror uses to refill a
// replacement mirror: copy the region in chunks while transactions keep
// committing, re-copy what changed, and only quiesce the database for
// the final shrinking epoch. The primitives below are what that copy
// loop needs from a library: a consistent snapshot of an unclaimed
// range, a raw mirror push for the destination copy, a whole-database
// claim for the final epoch, and a drop that works under that claim.

// migrationTxID is the reserved conflict-table owner under which ClaimDB
// holds a whole database during the final migration epoch. Transaction
// ids are allocated sequentially from 1 and published in commit words,
// so the top id can never collide with a real transaction.
const migrationTxID = ^uint64(0)

// SnapshotRange copies db[off:off+n) into buf. It fails with
// engine.ErrConflict when any in-flight transaction holds a claim
// overlapping the range — those bytes have an undecided writer, so the
// caller marks the chunk dirty and retries next epoch. Unclaimed bytes
// are stable under the paper's API discipline (writes outside a declared
// range have undefined recovery semantics), so the copy is a consistent
// committed image.
func (l *Library) SnapshotRange(db engine.DB, off, n uint64, buf []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return err
	}
	d, err := l.ownLocked(db)
	if err != nil {
		return err
	}
	if off > d.Size() || n > d.Size()-off {
		return fmt.Errorf("%w: [%d,+%d) in %d-byte database %q",
			ErrBadRange, off, n, d.Size(), d.name)
	}
	if uint64(len(buf)) < n {
		return fmt.Errorf("perseas: snapshot buffer %d bytes, need %d", len(buf), n)
	}
	if l.locks.overlaps(d.id, off, n) {
		return fmt.Errorf("%w: snapshot range [%d,+%d) of %q",
			engine.ErrConflict, off, n, d.name)
	}
	copy(buf[:n], d.region.Local[off:off+n])
	return nil
}

// PushRange mirrors db[off:off+n) from the local copy to every mirror —
// the migration path's raw write, filling a destination shard's copy
// outside any transaction. Like InitDB it must not race transactions
// touching the same bytes; the router guarantees that by only pushing
// ranges of a database it has not yet made reachable on this shard.
func (l *Library) PushRange(db engine.DB, off, n uint64) error {
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
	if off > d.Size() || n > d.Size()-off {
		l.mu.Unlock()
		return fmt.Errorf("%w: [%d,+%d) in %d-byte database %q",
			ErrBadRange, off, n, d.Size(), d.name)
	}
	l.mu.Unlock()
	if err := l.net.Push(d.region, off, n); err != nil {
		return fmt.Errorf("perseas: push migration range of %q: %w", d.name, err)
	}
	return nil
}

// ClaimDB claims every byte of db for a non-transactional operation (the
// final migration epoch), failing with engine.ErrConflict while any
// transaction holds a range of it. Once held, new SetRange declarations
// on the database conflict until the claim is released — by
// ReleaseDBClaim on an abandoned migration, or by DropDBMigrated when
// the move completes.
func (l *Library) ClaimDB(db engine.DB) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return err
	}
	d, err := l.ownLocked(db)
	if err != nil {
		return err
	}
	_, _, err = l.locks.claim(d.id, 0, d.Size(), 0, d.Size(), migrationTxID)
	return err
}

// ReleaseDBClaim drops the whole-database claim ClaimDB took.
func (l *Library) ReleaseDBClaim() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.locks.releaseAll(migrationTxID)
}

// DropDBMigrated removes a database whose contents just moved to another
// shard. Unlike DropDB it does not require global transaction quiescence
// — only that no transaction holds a claim on this database, which the
// caller guarantees by holding the ClaimDB claim through the final copy
// epoch. The migration claim itself is released here.
func (l *Library) DropDBMigrated(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAliveLocked(); err != nil {
		return err
	}
	db, ok := l.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDB, name)
	}
	for _, cl := range l.locks.byDB[db.id] {
		if cl.tx != migrationTxID {
			return fmt.Errorf("perseas: drop migrated database %q: %w",
				name, engine.ErrInTransaction)
		}
	}
	if err := l.net.Free(db.region); err != nil {
		return fmt.Errorf("perseas: free database %q: %w", name, err)
	}
	db.stale = true
	delete(l.dbs, name)
	delete(l.byID, db.id)
	l.locks.releaseDB(db.id)
	l.locks.releaseAll(migrationTxID)
	return l.writeDirectoryLocked()
}

// DatabaseNames lists the live databases in name order, for tooling and
// the router's post-recovery placement rebuild.
func (l *Library) DatabaseNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.dbs))
	for name := range l.dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
