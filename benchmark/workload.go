package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/wire"
)

// Workload names are fixed: later issues cite them.
const (
	wlLibDebitCredit    = "lib-debitcredit"
	wlRemoteDebitCredit = "remote-debitcredit"
	wlRemoteBulk        = "remote-bulk"
	wlRecoverAttach     = "recover-attach"
)

var workloadNames = []string{wlLibDebitCredit, wlRemoteDebitCredit, wlRemoteBulk, wlRecoverAttach}

// epoch anchors every timestamp the benchmark takes (latency samples
// and spans share one monotonic clock).
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// callTracer records the benchmark's own calls into the client-facing
// engine. A nil *callTracer is the untraced run: every method is a
// nil check and nothing else.
type callTracer struct {
	rec  *recorder
	lane int
	seq  uint64
}

func (c *callTracer) now() int64 {
	if c == nil {
		return 0
	}
	return nowNS()
}

func (c *callTracer) span(kind spanKind, start int64, n int) {
	if c == nil {
		return
	}
	c.rec.add(kind, c.lane, start, nowNS(), c.seq, n)
}

// txWorkload is one closed-loop transaction workload: a fixed number of
// clients, each running its next generated transaction as soon as the
// previous Commit returned.
type txWorkload interface {
	// clients is the number of client goroutines (never more than the
	// host's two cores).
	clients() int
	// remote reports whether clients go through the front door.
	remote() bool
	// generate pre-generates every client's transaction stream from the
	// seed. The timed loop allocates and generates nothing.
	generate(seed uint64)
	// load creates and initialises the database through the first
	// client and opens it on the others.
	load(r *rig) error
	// step runs client i's next transaction. A nil error means it
	// committed and the workload's ledger now includes it.
	step(i int, tr *callTracer) error
	// callsPerTx is the number of client-facing calls one transaction
	// makes (Begin + SetRanges + Commit).
	callsPerTx() int
	// check compares the serving engine's database bytes with the
	// generator's own account of what was committed.
	check(r *rig) error
	// leaveInFlight opens transactions directly on the library, declares
	// and scribbles over their ranges and abandons them, and returns how
	// many it left; a crash must roll every one of them back.
	leaveInFlight(r *rig) (int, error)
}

// phaseSpec says how to run one measured phase.
type phaseSpec struct {
	seed   uint64
	rec    *recorder     // nil = untraced: no decorator exists
	setups int           // set-up repetitions (the last one is kept)
	warmup time.Duration // untimed
	window time.Duration // timed
	// After the window: at least recoverMin crash + Attach repetitions,
	// and more until recoverFor has passed (an Attach of a small
	// database takes a millisecond or two, so a steady median needs a
	// few hundred of them; maxRecoverReps caps the count).
	recoverMin int
	recoverFor time.Duration
	// beforeCheck, when set, runs between the timed window and the
	// checks; the checker tests use it to break something and see the
	// run fail.
	beforeCheck func(r *rig, w txWorkload)
}

// phaseResult is what one phase measured, raw.
type phaseResult struct {
	clients   int
	remote    bool
	lat       []int64 // per-transaction latency (ns), sorted
	commits   int64
	attempted int64 // transactions and attaches attempted
	failed    int64
	elapsed   float64 // seconds the clients ran the timed window
	setupNS   []int64
	recoverNS []int64
	rolled    int // in-flight transactions left before the last crash
	calls     int64
	// peakRSS is the process's resident-set high-water mark (MiB) once
	// the timed work and its checks are done. On the transaction
	// workloads that is before the crash repetitions: hundreds of forced
	// collections and re-fetches make the high-water mark a lottery, and
	// recover-attach is the workload that reports recovery's memory.
	peakRSS float64

	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	cpuSeconds float64

	core            core.Stats
	ram             netram.Stats
	ramRetries      uint64
	ramDegradations uint64
	mem             memserver.Stats
	srv             wire.TxStats
	busyRetries     uint64
	xc              transportCounts // transport decorator, timed window
	xcRecover       transportCounts // transport decorator, recovery repetitions
	batchEntries    uint64          // TCP.Metrics().BatchSize sum / count over the window
	batchExchanges  uint64

	spans   []span
	dropped int64
}

func (p *phaseResult) tps() float64 {
	if p.elapsed == 0 {
		return 0
	}
	return float64(p.commits) / p.elapsed
}

// counters is one snapshot of every program-made and decorator-made
// count the per-layer metrics are deltas of.
type counters struct {
	core          core.Stats
	ram           netram.Stats
	retries, degr uint64
	mem           memserver.Stats
	srv           wire.TxStats
	busyRetries   uint64
	xc            transportCounts
	batchSum      uint64
	batchCount    uint64
	mstats        runtime.MemStats
	cpu           float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func snapshot(r *rig) counters {
	var c counters
	c.core = r.lib.Stats()
	c.ram = r.link.ram.Stats()
	m := r.link.ram.Metrics()
	c.retries, c.degr = m.Retries.Load(), m.Degradations.Load()
	c.mem = r.memStats()
	if r.front != nil {
		c.srv = r.front.srv.Stats()
		for _, cl := range r.front.clients {
			c.busyRetries += cl.Metrics().BusyRetries.Load()
		}
	}
	c.xc = r.link.transportCounts()
	for _, t := range r.link.tcps {
		s := t.Metrics().BatchSize.Snapshot()
		c.batchSum += s.Sum
		c.batchCount += s.Count
	}
	runtime.ReadMemStats(&c.mstats)
	c.cpu = cpuSeconds()
	return c
}

// delta adds after-before to p's totals (recover-attach calls it once
// per repetition).
func (p *phaseResult) delta(before, after counters) {
	p.allocBytes += after.mstats.TotalAlloc - before.mstats.TotalAlloc
	p.gcCycles += after.mstats.NumGC - before.mstats.NumGC
	p.gcPauseNS += after.mstats.PauseTotalNs - before.mstats.PauseTotalNs
	p.cpuSeconds += after.cpu - before.cpu
	p.core.Aborted += after.core.Aborted - before.core.Aborted
	p.core.Conflicts += after.core.Conflicts - before.core.Conflicts
	p.core.BytesLogged += after.core.BytesLogged - before.core.BytesLogged
	p.ram.Pushes += after.ram.Pushes - before.ram.Pushes
	p.ram.WireBytes += after.ram.WireBytes - before.ram.WireBytes
	p.ramRetries += after.retries - before.retries
	p.ramDegradations += after.degr - before.degr
	p.mem.WriteOps += after.mem.WriteOps - before.mem.WriteOps
	p.mem.BatchOps += after.mem.BatchOps - before.mem.BatchOps
	p.mem.BytesWritten += after.mem.BytesWritten - before.mem.BytesWritten
	// The front door's distributions (batch max, depth p99) cover its
	// whole life; its counters are deltas like the rest.
	convoys, convoyCommits, busy := p.srv.Convoys, p.srv.ConvoyCommits, p.srv.BusyRejected
	p.srv = after.srv
	p.srv.Convoys = convoys + after.srv.Convoys - before.srv.Convoys
	p.srv.ConvoyCommits = convoyCommits + after.srv.ConvoyCommits - before.srv.ConvoyCommits
	p.srv.BusyRejected = busy + after.srv.BusyRejected - before.srv.BusyRejected
	p.busyRetries += after.busyRetries - before.busyRetries
	p.xc.add(after.xc.minus(before.xc))
	p.batchEntries += after.batchSum - before.batchSum
	p.batchExchanges += after.batchCount - before.batchCount
}

// maxRecoverReps bounds the crash + Attach repetitions of one phase.
const maxRecoverReps = 300

// maxFailures ends a window early when the system under test is
// broken rather than slow: the workloads are built so nothing fails.
const maxFailures = 100

var errTooManyFailures = errors.New("too many failed operations; giving up on the window")

// runWindow runs every client's closed loop for d. lat[i] receives
// client i's latencies (nil discards them: the warm-up); the slices are
// preallocated and the loop allocates nothing. It returns commits,
// failures and the seconds the clients ran.
func runWindow(w txWorkload, d time.Duration, lat [][]int64, rec *recorder) (commits, failed int64, seconds float64, firstErr error) {
	n := w.clients()
	type tally struct {
		commits, failed int64
		err             error
	}
	tallies := make([]tally, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	var deadline int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tr *callTracer
			if rec != nil {
				tr = &callTracer{rec: rec, lane: i}
			}
			var samples []int64
			if lat != nil {
				samples = lat[i]
			}
			t := &tallies[i]
			<-start
			for {
				t0 := nowNS()
				if t0 >= deadline || (lat != nil && len(samples) == cap(samples)) {
					break
				}
				err := w.step(i, tr)
				t1 := nowNS()
				if err != nil {
					t.failed++
					if t.err == nil {
						t.err = err
					}
					if t.failed >= maxFailures {
						break
					}
					continue
				}
				t.commits++
				if lat != nil {
					samples = append(samples, t1-t0)
				}
				if tr != nil {
					rec.add(kTx, i, t0, t1, tr.seq, 0)
					tr.seq++
				}
			}
			if lat != nil {
				lat[i] = samples
			}
		}(i)
	}
	t0 := nowNS()
	deadline = t0 + int64(d)
	close(start)
	wg.Wait()
	seconds = float64(nowNS()-t0) / 1e9
	for _, t := range tallies {
		commits += t.commits
		failed += t.failed
		if firstErr == nil {
			firstErr = t.err
		}
	}
	if failed >= maxFailures {
		return commits, failed, seconds, fmt.Errorf("%w: %v", errTooManyFailures, firstErr)
	}
	return commits, failed, seconds, nil
}

// latCap sizes a client's latency buffer: room for 60,000 transactions
// a second, an order of magnitude over today's rate (a window that
// fills it ends early rather than allocate).
func latCap(d time.Duration) int { return int(d.Seconds()*60000) + 1024 }

// runTxPhase sets the workload up (several times, for a steady set-up
// time), warms it up, measures one timed window, checks the outputs,
// then crashes and re-attaches repeatedly and checks again —
// every acknowledged commit must survive the crash, every abandoned
// transaction must be rolled back.
func runTxPhase(mk func() txWorkload, spec phaseSpec) (*phaseResult, error) {
	var (
		w txWorkload
		r *rig
	)
	p := &phaseResult{}
	for k := 0; k < spec.setups; k++ {
		if r != nil {
			// Discarded set-ups must not decide when the heap is next
			// collected: peak RSS should not depend on their timing.
			r.close()
			runtime.GC()
		}
		t0 := nowNS()
		w = mk()
		w.generate(spec.seed)
		var err error
		if r, err = newRig(spec.rec); err != nil {
			return nil, err
		}
		if w.remote() {
			if err := r.openFrontDoor(w.clients()); err != nil {
				r.close()
				return nil, err
			}
		}
		if err := w.load(r); err != nil {
			r.close()
			return nil, fmt.Errorf("load: %w", err)
		}
		p.setupNS = append(p.setupNS, nowNS()-t0)
	}
	defer func() { r.close() }()
	p.clients, p.remote = w.clients(), w.remote()

	_, failed, _, err := runWindow(w, spec.warmup, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p.failed += failed
	p.attempted += failed

	lat := make([][]int64, w.clients())
	for i := range lat {
		lat[i] = make([]int64, 0, latCap(spec.window))
	}
	runtime.GC()
	if spec.rec != nil {
		spec.rec.window()
	}
	before := snapshot(r)
	commits, failed, seconds, err := runWindow(w, spec.window, lat, spec.rec)
	after := snapshot(r)
	if spec.rec != nil {
		spec.rec.all()
	}
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	p.delta(before, after)
	p.commits, p.elapsed = commits, seconds
	p.failed += failed
	p.attempted += commits + failed
	p.calls = commits * int64(w.callsPerTx())
	for _, l := range lat {
		p.lat = append(p.lat, l...)
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })

	if w.remote() {
		r.closeFrontDoor()
	}
	if spec.beforeCheck != nil {
		spec.beforeCheck(r, w)
	}
	if err := w.check(r); err != nil {
		return nil, fmt.Errorf("check after the window: %w", err)
	}
	if err := r.verifyMirrors(); err != nil {
		return nil, fmt.Errorf("check after the window: %w", err)
	}
	if p.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}

	recoverStart := nowNS()
	more := func(k int) bool {
		return k < spec.recoverMin || (k < maxRecoverReps && nowNS()-recoverStart < int64(spec.recoverFor))
	}
	for k := 0; more(k); k++ {
		n, err := w.leaveInFlight(r)
		if err != nil {
			return nil, fmt.Errorf("leave transactions in flight: %w", err)
		}
		p.rolled = n
		p.attempted++
		ns, err := r.crashAndAttach()
		if err != nil {
			return nil, err
		}
		p.recoverNS = append(p.recoverNS, ns)
		// The crash replaced the link and its decorators, so the new
		// counters hold exactly this Attach.
		p.xcRecover.add(r.link.transportCounts())
		// The full image check runs after the first crash and (below)
		// after the last: rebuilding the bulk image takes as long as its
		// Attach does, and the repetitions in between start from a
		// checked state and end in one.
		if k == 0 {
			if err := w.check(r); err != nil {
				return nil, fmt.Errorf("check after the first crash: %w", err)
			}
		}
	}
	if len(p.recoverNS) > 0 {
		if err := w.check(r); err != nil {
			return nil, fmt.Errorf("check after the last crash: %w", err)
		}
		if err := r.verifyMirrors(); err != nil {
			return nil, fmt.Errorf("check after the last crash: %w", err)
		}
	}
	if spec.rec != nil {
		p.spans = spec.rec.spans()
		p.dropped = spec.rec.dropped.Load()
	}
	return p, nil
}
