// Parallel recovery support: the operations core's crash recovery uses
// to make its wall-clock cost scale with mirrors and regions instead of
// summing over them.
//
// ConnectMany reconnects several named regions concurrently while
// keeping the client's region list in input order, so recovery built at
// any parallelism installs regions deterministically. FetchIntoStriped
// splits a region into read-chunk pieces and stripes them round-robin
// across the mirrors holding the segment, aggregating NIC bandwidth the
// way the paper's recovery argument assumes a network of workstations
// can. ZeroRangeTo clears a remote range without shipping a payload
// of zeroes — the transport does the zeroing server-side when it can.
package netram

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ics-forth/perseas/internal/transport"
)

// ForEach calls fn(i) for every i in [0,n) on up to width goroutines
// (the caller's is one of them), handing indices out in increasing
// order, and returns the error of the lowest index that failed. No index
// is started after a failure, so every index below the failing one has
// run. At width <= 1 (or n <= 1)
// it is a plain loop on the caller's goroutine. It is the one worker
// pool of crash repair: core's recovery phases, the striped fetch and
// the rebuild copy all take their width as its first argument.
func ForEach(width, n int, fn func(i int) error) error {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
				return
			}
		}
	}
	// The caller is one of the workers: width-1 goroutines to start and
	// to wait for.
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ConnectMany re-maps the named regions after a crash, connecting up to
// workers names concurrently (serially on the caller's goroutine at
// workers <= 1), under a single topology lock acquisition. The
// successfully connected prefix of names is appended to the client's
// region list in input order — exactly the order a serial Connect loop
// would have produced — and returned; the error that stopped the prefix
// (nil if every name connected) rides along. Connections past the
// first failure are released, so a missing name mid-list leaves nothing
// attached.
func (c *Client) ConnectMany(names []string, workers int) ([]*Region, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	regs := make([]*Region, len(names))
	stop := ForEach(workers, len(names), func(i int) (err error) {
		regs[i], err = c.connectRegion(names[i])
		return err
	})
	n := 0
	for n < len(regs) && regs[n] != nil {
		n++
	}
	for _, r := range regs[n:] {
		if r != nil {
			c.releaseHandles(r, len(c.mirrors))
		}
	}
	c.regions = append(c.regions, regs[:n]...)
	return regs[:n:n], stop
}

// FetchIntoStriped restores r.Local in full, striping read-chunk pieces
// round-robin across every mirror holding the segment so the transfer
// rides the aggregate bandwidth of the surviving nodes. Each chunk
// falls over to the remaining mirrors individually before failing the
// fetch. Safe during recovery for the same reason FetchInto is: any
// byte on which replicas may still disagree belongs to a head
// transaction of some undo slot, and recovery rolls back or repairs
// exactly those ranges after the fetch.
//
// With workers <= 1 there is nothing to stripe: it is
// FetchInto(r, 0, r.Size()), one read from the first answering mirror.
func (c *Client) FetchIntoStriped(r *Region, workers int) error {
	if workers <= 1 {
		return c.FetchInto(r, 0, r.Size())
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	start := c.clock.Now()
	var eligible []int
	for i := range c.mirrors {
		if r.handles[i].ID != 0 {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return fmt.Errorf("netram: striped fetch %q: %w", r.Name, ErrAllMirrorsDown)
	}
	size := r.Size()
	nChunks := int((size + c.readChunk - 1) / c.readChunk)
	err := ForEach(workers, nChunks, func(ci int) error {
		off := uint64(ci) * c.readChunk
		return c.fetchChunkStriped(r, eligible, ci, off, min(size-off, c.readChunk))
	})
	if err != nil {
		return err
	}
	c.metrics.FetchLatency.ObserveDuration(c.clock.Now() - start)
	return nil
}

// fetchChunkStriped reads one chunk into r.Local[off:off+n] from the
// chunk's round-robin mirror, trying the other eligible mirrors on
// failure. Chunks are disjoint, so concurrent callers never overlap in
// the local buffer.
func (c *Client) fetchChunkStriped(r *Region, eligible []int, ci int, off, n uint64) error {
	var lastErr error
	for a := 0; a < len(eligible); a++ {
		mi := eligible[(ci+a)%len(eligible)]
		m := c.mirrors[mi]
		data, err := c.readChunked(m, r.handles[mi].ID, off, n)
		if err != nil {
			lastErr = fmt.Errorf("netram: fetch from mirror %s: %w", m.Name, err)
			continue
		}
		copy(r.Local[off:off+n], data)
		c.metrics.Fetches.Inc()
		c.metrics.FetchedBytes.Add(n)
		return nil
	}
	return fmt.Errorf("netram: striped fetch %q chunk at %d: %w (last: %v)",
		r.Name, off, ErrAllMirrorsDown, lastErr)
}

// ZeroRangeTo zeroes r[offset:offset+n] on mirror i, if it is live and
// holds the segment. A transport that can fill server-side pays one small
// request regardless of n; another receives chunked writes of zeroes. The
// caller's local bytes for the range must already be zero — recovery's
// republish satisfies this because a freshly connected region starts
// zeroed and only the elected log prefix is ever copied in.
func (c *Client) ZeroRangeTo(i int, r *Region, offset, n uint64) error {
	if err := r.checkRange(offset, n); err != nil {
		return err
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if i < 0 || i >= len(c.mirrors) {
		return fmt.Errorf("netram: no mirror %d", i)
	}
	if n == 0 || r.handles[i].ID == 0 || c.isDown(i) {
		return nil
	}
	m, seg := c.mirrors[i], r.handles[i].ID
	f, fills := m.T.(transport.Filler)
	zero := func() error {
		if fills {
			return f.Fill(seg, offset, n)
		}
		zeroes := make([]byte, min(n, c.readChunk))
		for done := uint64(0); done < n; {
			step := min(n-done, uint64(len(zeroes)))
			if err := m.T.Write(seg, offset+done, zeroes[:step]); err != nil {
				return err
			}
			done += step
		}
		return nil
	}
	// Zeroing is idempotent, so the whole operation replays on a
	// transient failure; a node that is gone is absorbed by degradation,
	// like a push — the survivors carry the range.
	if _, err := c.withRetry(m, i, zero); err != nil {
		if c.isDown(i) {
			return nil
		}
		return fmt.Errorf("netram: zero %q on mirror %s: %w", r.Name, m.Name, err)
	}
	if !fills {
		// Once, as a push counts once per acked job: a replayed attempt's
		// chunks are not new payload.
		c.metrics.WireBytes.Add(n)
	}
	c.metrics.Pushes.Inc()
	return nil
}
