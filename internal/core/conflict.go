package core

import (
	"fmt"

	"github.com/ics-forth/perseas/internal/engine"
)

// conflictTable tracks which byte ranges of which databases are held by
// in-flight transactions. The paper's in-place update discipline requires
// that a declared range have exactly one writer until its transaction
// finishes: an overlapping SetRange from a second transaction would read
// (into its before-image) or overwrite bytes whose fate the first
// transaction has not decided yet. Overlaps within one transaction stay
// legal, as in the sequential library.
//
// All methods are called with the owning Library's mu held.
type conflictTable struct {
	byDB map[uint32][]rangeClaim
}

// rangeClaim is one held half-open range [lo,hi) of a database.
type rangeClaim struct {
	lo, hi uint64
	tx     uint64
}

func newConflictTable() conflictTable {
	return conflictTable{byDB: make(map[uint32][]rangeClaim)}
}

// claim records a range of database dbID as held by tx and returns the
// span it recorded. [off,off+n) is the range the transaction declared;
// [lo,hi) ⊇ it is the span the network layer would put on the wire for
// it (netram.WireSpan). The transaction gets the wire span when no other
// live transaction holds a byte of it — the commit push may then read
// every byte of the span, because nobody else can be writing them — and
// the declared range alone otherwise. engine.ErrConflict is returned
// only when the declared range itself overlaps another transaction's
// claim. Check and claim are one step under the caller's lock, so a
// neighbour cannot slip into the span between them.
func (c *conflictTable) claim(dbID uint32, off, n, lo, hi, tx uint64) (uint64, uint64, error) {
	end := off + n
	for _, cl := range c.byDB[dbID] {
		if cl.tx == tx || cl.lo >= hi || lo >= cl.hi {
			continue
		}
		if cl.lo < end && off < cl.hi {
			return 0, 0, fmt.Errorf("%w: db %d range [%d,+%d) held by tx %d",
				engine.ErrConflict, dbID, off, n, cl.tx)
		}
		// A neighbour holds part of the widening only: keep to the
		// declared range, which the rest of the scan still has to clear.
		lo, hi = off, end
	}
	c.byDB[dbID] = append(c.byDB[dbID], rangeClaim{lo: lo, hi: hi, tx: tx})
	return lo, hi, nil
}

// overlaps reports whether any live claim on dbID intersects
// [off,off+n), regardless of owner. The shard-migration snapshot uses it
// to skip chunks with an undecided writer.
func (c *conflictTable) overlaps(dbID uint32, off, n uint64) bool {
	hi := off + n
	for _, cl := range c.byDB[dbID] {
		if cl.lo < hi && off < cl.hi {
			return true
		}
	}
	return false
}

// releaseAll drops every claim held by tx (called when the transaction
// commits, aborts or is wiped out by a crash).
func (c *conflictTable) releaseAll(tx uint64) {
	for dbID, claims := range c.byDB {
		kept := claims[:0]
		for _, cl := range claims {
			if cl.tx != tx {
				kept = append(kept, cl)
			}
		}
		// The emptied slice stays in the table: its retained capacity
		// is what keeps the next transaction's claims allocation-free.
		// releaseDB removes the entry when the database is dropped.
		c.byDB[dbID] = kept
	}
}

// releaseDB drops every claim on one database (used when the database is
// dropped; callers already ensure no transaction is open).
func (c *conflictTable) releaseDB(dbID uint32) {
	delete(c.byDB, dbID)
}
