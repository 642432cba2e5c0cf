// Online mirror re-replication: replacing a dead mirror with a spare
// node without ever stalling the data path for the whole copy.
//
// RebuildMirror runs in three phases. Phase 1 bulk-copies every live
// region onto the replacement in read-chunk pieces, reading each chunk
// from a surviving replica (never the local buffer, whose declared
// ranges may hold not-yet-pushed transaction updates) while pushes
// continue against the live mirrors. Writes that land during the copy
// are recorded as dirty ranges by the data path; phase 2 replays them
// in catch-up epochs, shrinking the delta without taking the topology
// write lock. Phase 3 takes the write lock once, drains the last dirty
// ranges, covers regions created or freed mid-copy, and atomically
// swaps the fully caught-up replacement into the dead mirror's slot.
package netram

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// maxCatchUpEpochs bounds the lock-free catch-up rounds a rebuild runs
// before it takes the topology write lock for the final drain. Each
// epoch copies what the previous one left dirty, so under any workload
// that pushes slower than the rebuild copies, the delta shrinks
// geometrically; the bound only matters when pushes outrun the copy.
const maxCatchUpEpochs = 8

// RebuildProgress is a snapshot of an in-flight rebuild, delivered to
// the observer after every copied chunk.
type RebuildProgress struct {
	// Region names the region the chunk belongs to.
	Region string
	// CopiedBytes is the total payload written to the replacement so
	// far, across all regions and epochs.
	CopiedBytes uint64
	// Epoch is 0 during the bulk copy and counts catch-up rounds from 1.
	Epoch int
}

// MirrorName reports mirror i's label (for diagnostics and health
// displays).
func (c *Client) MirrorName(i int) string {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Sprintf("mirror-%d", i)
	}
	return c.mirrors[i].Name
}

// ProbeMirror checks mirror i's liveness using the transport's
// lightweight out-of-band probe when it has one (no virtual-time
// charge, so a failure detector heartbeating every interval cannot
// shift a reproduced figure) and a full Ping otherwise.
func (c *Client) ProbeMirror(i int) error {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	if p, ok := c.mirrors[i].T.(transport.Prober); ok {
		return p.Probe()
	}
	return c.mirrors[i].T.Ping()
}

// MarkMirrorDown fences mirror i off the data path before its failure
// would be discovered by a push — the failure detector's confirmation
// that the node is dead.
func (c *Client) MarkMirrorDown(i int) error {
	if i < 0 || i >= c.Mirrors() {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	c.markDown(i)
	return nil
}

// Rebuilding reports which slot an online rebuild is currently
// replacing, if any.
func (c *Client) Rebuilding() (slot int, active bool) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.rebuildSlot, c.rebuildSlot >= 0
}

// RebuildMirror replaces mirror i with the replacement m through an
// online catch-up copy: region contents stream from a surviving replica
// while transactions keep committing, and only the final delta is
// drained under the topology write lock. On success the replacement
// occupies slot i, receives every subsequent push, and the old
// transport is closed. On failure the client is unchanged (still
// degraded, slot i down) and the segments allocated on the replacement
// are released. onProgress, when non-nil, observes every copied chunk.
func (c *Client) RebuildMirror(i int, m Mirror, onProgress func(RebuildProgress)) error {
	if m.T == nil {
		return fmt.Errorf("netram: replacement mirror %q has no transport", m.Name)
	}
	if err := m.T.Ping(); err != nil {
		return fmt.Errorf("netram: replacement mirror %s unreachable: %w", m.Name, err)
	}

	// Claim the slot, fence it off the data path, and switch on
	// dirty-range tracking before the bulk copy starts reading.
	c.topoMu.Lock()
	if i < 0 || i >= len(c.mirrors) {
		c.topoMu.Unlock()
		return fmt.Errorf("netram: no mirror %d", i)
	}
	c.stateMu.Lock()
	if c.rebuildSlot >= 0 {
		c.stateMu.Unlock()
		c.topoMu.Unlock()
		return ErrRebuildInProgress
	}
	c.rebuildSlot = i
	if !c.down[i].Load() {
		c.down[i].Store(true)
		c.metrics.Degradations.Inc()
	}
	c.stateMu.Unlock()
	c.dirtyMu.Lock()
	c.dirty = make(map[string][]Range)
	c.dirtyMu.Unlock()
	c.tracking.Store(true)
	// Quorum stragglers queued before tracking switched on would write to
	// the survivors without being recorded as dirty, so the bulk copy
	// could read a stale survivor byte and never revisit it. Drain them
	// while the write lock still blocks new dispatches: anything enqueued
	// after this point reclaims with tracking on and lands in the dirty
	// set.
	c.drainCatchUp()
	snapshot := append([]*Region(nil), c.regions...)
	c.topoMu.Unlock()

	built := make(map[string]transport.SegmentHandle)
	var copied uint64
	// The whole rebuild is one infrastructure span tree: the root covers
	// the three phases, children record each phase's copied bytes.
	root := c.tracer.Start(trace.LayerNetram, "rebuild_mirror")
	abort := func(err error) error {
		root.EndN(copied)
		c.tracking.Store(false)
		c.dirtyMu.Lock()
		c.dirty = nil
		c.dirtyMu.Unlock()
		// Best-effort: leave nothing allocated on the replacement.
		for _, h := range built {
			_ = m.T.Free(h.ID)
		}
		c.stateMu.Lock()
		c.rebuildSlot = -1
		c.stateMu.Unlock()
		return err
	}

	// Phase 1 — bulk copy. Each chunk holds the topology read lock only
	// for its survivor read, so pushes interleave freely.
	c.flight.Record(flight.RebuildPhase, "netram", "bulk_copy", uint64(i))
	bulk := root.Child(trace.LayerNetram, "bulk_copy")
	for _, r := range snapshot {
		h, err := exportOnReplacement(m, r.Name, r.Size())
		if err != nil {
			return abort(fmt.Errorf("netram: rebuild export %q on %s: %w", r.Name, m.Name, err))
		}
		built[r.Name] = h
		gone, err := c.rebuildCopy(m, h, r, 0, r.Size(), i, false, &copied, 0, onProgress)
		if err != nil {
			return abort(err)
		}
		if gone {
			// Freed mid-copy; drop the half-filled segment.
			_ = m.T.Free(h.ID)
			delete(built, r.Name)
		}
	}

	bulk.EndN(copied)

	// Phase 2 — catch-up epochs: replay what the data path dirtied
	// while the previous round ran, still without blocking pushes.
	c.flight.Record(flight.RebuildPhase, "netram", "catchup_epochs", uint64(i))
	for epoch := 1; epoch <= maxCatchUpEpochs; epoch++ {
		batch := c.swapDirty()
		if len(batch) == 0 {
			break
		}
		ep := root.Child(trace.LayerNetram, "catchup_epoch")
		before := copied
		if err := c.drainBatch(m, built, batch, i, false, &copied, epoch, onProgress); err != nil {
			return abort(err)
		}
		ep.EndN(copied - before)
	}

	// Phase 3 — stop the world once, briefly: drain the final delta,
	// cover regions born or freed during the copy, and swap.
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	// In-flight quorum stragglers may still be writing survivors; their
	// dirty records only land when the last worker reclaims the call, so
	// wait for them before taking the final dirty snapshot.
	c.drainCatchUp()
	c.flight.Record(flight.RebuildPhase, "netram", "final_drain", uint64(i))
	fin := root.Child(trace.LayerNetram, "final_drain")
	finBase := copied
	c.tracking.Store(false)
	if batch := c.swapDirty(); len(batch) != 0 {
		if err := c.drainBatch(m, built, batch, i, true, &copied, maxCatchUpEpochs+1, onProgress); err != nil {
			return abort(err)
		}
	}
	live := make(map[string]*Region, len(c.regions))
	for _, r := range c.regions {
		live[r.Name] = r
	}
	for _, r := range c.regions {
		if _, ok := built[r.Name]; ok {
			continue
		}
		h, err := exportOnReplacement(m, r.Name, r.Size())
		if err != nil {
			return abort(fmt.Errorf("netram: rebuild export %q on %s: %w", r.Name, m.Name, err))
		}
		built[r.Name] = h
		if _, err := c.rebuildCopy(m, h, r, 0, r.Size(), i, true, &copied, maxCatchUpEpochs+1, onProgress); err != nil {
			return abort(err)
		}
	}
	for name, h := range built {
		if _, ok := live[name]; !ok {
			_ = m.T.Free(h.ID)
			delete(built, name)
		}
	}

	// The atomic swap: from the data path's point of view the dead node
	// vanishes and the fully caught-up replacement appears in its slot
	// in one topology transition.
	old := c.mirrors[i]
	c.mirrors[i] = m
	for _, r := range c.regions {
		r.handles[i] = built[r.Name]
	}
	c.stateMu.Lock()
	c.down[i].Store(false)
	c.rebuildSlot = -1
	c.stateMu.Unlock()
	c.dirtyMu.Lock()
	c.dirty = nil
	c.dirtyMu.Unlock()
	c.metrics.Rebuilds.Inc()
	// The topology just changed; the last recorded fan-out spread is no
	// longer meaningful.
	c.straggler.Store(0)
	fin.EndN(copied - finBase)
	root.EndN(copied)
	c.flight.Record(flight.RebuildPhase, "netram", "complete", uint64(i))
	_ = old.T.Close()
	return nil
}

// recordDirty appends one pushed wire range to the rebuild's dirty set.
// Called by the data path (under the topology read lock, after the
// mirror writes landed) while tracking is on.
func (c *Client) recordDirty(name string, off, n uint64) {
	if n == 0 {
		return
	}
	c.dirtyMu.Lock()
	if c.dirty != nil {
		c.dirty[name] = append(c.dirty[name], Range{Offset: off, Length: n})
	}
	c.dirtyMu.Unlock()
}

// swapDirty takes the accumulated dirty set, leaving a fresh one for
// the next epoch.
func (c *Client) swapDirty() map[string][]Range {
	c.dirtyMu.Lock()
	defer c.dirtyMu.Unlock()
	out := c.dirty
	if len(out) == 0 {
		return nil
	}
	c.dirty = make(map[string][]Range)
	return out
}

// drainBatch re-copies one epoch's dirty ranges onto the replacement,
// in deterministic region order.
func (c *Client) drainBatch(m Mirror, built map[string]transport.SegmentHandle, batch map[string][]Range, skip int, locked bool, copied *uint64, epoch int, onProgress func(RebuildProgress)) error {
	names := make([]string, 0, len(batch))
	for name := range batch {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h, ok := built[name]
		if !ok {
			continue // born after the snapshot; phase 3 copies it in full
		}
		r := c.regionByName(name, locked)
		if r == nil {
			continue // freed meanwhile; phase 3 drops its segment
		}
		for _, rg := range Coalesce(batch[name]) {
			gone, err := c.rebuildCopy(m, h, r, rg.Offset, rg.Length, skip, locked, copied, epoch, onProgress)
			if err != nil {
				return err
			}
			if gone {
				break
			}
		}
	}
	return nil
}

// regionByName finds a live region; locked indicates the caller already
// holds the topology write lock.
func (c *Client) regionByName(name string, locked bool) *Region {
	if !locked {
		c.topoMu.RLock()
		defer c.topoMu.RUnlock()
	}
	for _, r := range c.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// errRegionGone stops a rebuild copy whose region was freed mid-copy.
var errRegionGone = errors.New("netram: region freed during rebuild")

// rebuildCopy copies [off,off+n) of r from surviving replicas onto the
// replacement segment h: one loop over chunks of at most readChunk
// bytes, run at the rebuild pipeline depth. With locked false each
// chunk takes the topology read lock only for its survivor read, so a
// multi-gigabyte copy never blocks a push for more than one chunk. At
// depth 1 (the default) the loop runs on the caller's goroutine,
// strictly read-then-write from the first survivor; at depth n >= 2 up
// to n chunks are in flight, their reads striped round-robin across the
// survivors, so the read of chunk N+1 overlaps the write of chunk N.
// Chunks are disjoint, so completion order does not matter; a failed or
// gone chunk stops the loop. gone=true reports the region was freed
// mid-copy.
func (c *Client) rebuildCopy(m Mirror, h transport.SegmentHandle, r *Region, off, n uint64, skip int, locked bool, copied *uint64, epoch int, onProgress func(RebuildProgress)) (bool, error) {
	nChunks := int((n + c.readChunk - 1) / c.readChunk)
	// progress orders the copied total and the observer calls; the
	// observer sees one chunk at a time at every depth.
	var progress sync.Mutex
	err := ForEach(c.rebuildPipeline, nChunks, func(ci int) error {
		chunkOff := off + uint64(ci)*c.readChunk
		step := min(off+n-chunkOff, c.readChunk)
		rot := 0
		if c.rebuildPipeline > 1 {
			rot = ci
		}
		if !locked {
			c.topoMu.RLock()
		}
		data, gone, err := c.survivorReadLocked(r, skip, chunkOff, step, rot)
		if !locked {
			c.topoMu.RUnlock()
		}
		if err != nil {
			return err
		}
		if gone {
			return errRegionGone
		}
		if err := m.T.Write(h.ID, chunkOff, data); err != nil {
			return fmt.Errorf("netram: rebuild write %q to %s: %w", r.Name, m.Name, err)
		}
		c.metrics.RebuildBytes.Add(step)
		progress.Lock()
		defer progress.Unlock()
		*copied += step
		if onProgress != nil {
			onProgress(RebuildProgress{Region: r.Name, CopiedBytes: *copied, Epoch: epoch})
		}
		return nil
	})
	if errors.Is(err, errRegionGone) {
		return true, nil
	}
	return false, err
}

// survivorReadLocked reads [off,off+n) of r from a live replica other
// than the slot being rebuilt, with the topology lock held by the
// caller. rot rotates the starting replica among the survivors — a
// copy deeper than 1 passes the chunk index so consecutive chunks read
// from different nodes — and the remaining survivors serve as
// fallbacks in order; rot 0 is the first survivor. gone=true reports
// the region is no longer live.
func (c *Client) survivorReadLocked(r *Region, skip int, off, n uint64, rot int) ([]byte, bool, error) {
	alive := false
	for _, reg := range c.regions {
		if reg == r {
			alive = true
			break
		}
	}
	if !alive {
		return nil, true, nil
	}
	var candidates []int
	for j := range c.mirrors {
		if j == skip || c.isDown(j) || r.handles[j].ID == 0 {
			continue
		}
		candidates = append(candidates, j)
	}
	var lastErr error
	for a := 0; a < len(candidates); a++ {
		j := candidates[(rot+a)%len(candidates)]
		data, err := c.mirrors[j].T.Read(r.handles[j].ID, off, uint32(n))
		if err != nil {
			lastErr = err
			continue
		}
		if uint64(len(data)) != n {
			lastErr = fmt.Errorf("netram: short read from mirror %s: got %d of %d bytes",
				c.mirrors[j].Name, len(data), n)
			continue
		}
		c.metrics.RebuildSourceBytes[j].Add(n)
		return data, false, nil
	}
	if lastErr == nil {
		lastErr = ErrAllMirrorsDown
	}
	return nil, false, fmt.Errorf("netram: rebuild source for %q: %w", r.Name, lastErr)
}

// RebuildPipeline reports the configured depth of the rebuild chunk loop.
func (c *Client) RebuildPipeline() int { return c.rebuildPipeline }

// RebuildSourceBytes reports how many bytes each mirror slot has served
// as the read side of rebuild copies — with striped reads the evidence
// that the load spread across the survivors.
func (c *Client) RebuildSourceBytes() []uint64 {
	out := make([]uint64, len(c.metrics.RebuildSourceBytes))
	for i := range out {
		out[i] = c.metrics.RebuildSourceBytes[i].Load()
	}
	return out
}

// exportOnReplacement maps name on the replacement node: reusing a
// same-size segment the node already holds (a former mirror rejoining
// as a spare), else allocating afresh.
func exportOnReplacement(m Mirror, name string, size uint64) (transport.SegmentHandle, error) {
	h, err := m.T.Connect(name)
	if err == nil && h.Size == size {
		return h, nil
	}
	if err == nil {
		// Stale leftover of the wrong size — replace it.
		if dc, ok := m.T.(transport.Disconnector); ok {
			_ = dc.Disconnect(h.ID)
		}
		if err := m.T.Free(h.ID); err != nil {
			return transport.SegmentHandle{}, err
		}
	}
	return m.T.Malloc(name, size)
}

// Coalesce sorts rs in place and merges overlapping or adjacent
// ranges, returning the shortened prefix. The rebuild's catch-up
// drain uses it so a hot region's many small dirty pushes land as few
// large copies; the commit path uses the same idea (on its own range
// representation) to emulate the SCI adapter's store-gathering.
// Allocation-free: sorting is slices.SortFunc and merging reuses rs.
func Coalesce(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Range) int {
		switch {
		case a.Offset < b.Offset:
			return -1
		case a.Offset > b.Offset:
			return 1
		default:
			return 0
		}
	})
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Offset <= last.Offset+last.Length {
			if end := r.Offset + r.Length; end > last.Offset+last.Length {
				last.Length = end - last.Offset
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
