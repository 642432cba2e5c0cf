package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
)

// spanKind names what a span timed. The benchmark records spans only
// from its own files: around its own calls into a layer, and inside the
// two decorators it interposes at interface seams the program already
// has. Nothing inside the program is instrumented, so a later change to
// the program cannot move, rename or drop a span.
type spanKind uint8

const (
	// The benchmark's own calls.
	kTx           spanKind = iota // Begin call to Commit return, one per transaction
	kCallBegin                    // the client-facing Begin (txclient or core)
	kCallSetRange                 // the client-facing SetRange
	kCallCommit                   // the client-facing Commit
	kAttach                       // core.Attach
	kProbePush                    // netram.Push in the direct probe
	// The engine decorator (between txserver and *core.Library).
	kEngBegin
	kEngSetRange
	kEngCommit
	kEngAbort
	// The transport decorator (around each mirror's *transport.TCP).
	kXWrite
	kXWriteBatch
	kXRead
	kXOther
	numKinds
)

var kindNames = [numKinds]string{
	"tx", "call.begin", "call.setrange", "call.commit", "attach", "probe.push",
	"engine.begin", "engine.setrange", "engine.commit", "engine.abort",
	"transport.write", "transport.writebatch", "transport.read", "transport.other",
}

func (k spanKind) isEngine() bool    { return k >= kEngBegin && k <= kEngAbort }
func (k spanKind) isCall() bool      { return k >= kCallBegin && k <= kCallCommit }
func (k spanKind) isTransport() bool { return k >= kXWrite && k <= kXOther }

// span is one timed interval. Start and End are nanoseconds since the
// recorder's epoch. Lane is the client index (benchmark and engine
// spans) or the mirror index (transport spans). Tx is the sequence
// number of the transaction that caused the span where the recording
// site knows it (the benchmark's own calls, the engine decorator);
// transport spans run on netram's sender goroutines, which carry no
// transaction identity, and are attributed by time containment. N is a
// byte or entry count.
type span struct {
	Kind       spanKind
	Lane       uint8
	N          uint32
	Start, End int64
	Tx         uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder is a preallocated in-memory span buffer shared by every
// recording site of one traced run. add is safe for concurrent use and
// allocates nothing; once the buffer is full further spans are counted
// as dropped, so every transaction whose kTx span made it in has all of
// its children too (children end, and are recorded, before their
// transaction does).
type recorder struct {
	buf  []span
	next atomic.Int64
	// limit is how many spans may be recorded so far: 0 while the rig
	// sets up and warms up (the decorators are live from construction),
	// most of the buffer during the timed window, all of it for the
	// recovery repetitions that follow.
	limit   atomic.Int64
	dropped atomic.Int64
}

// recorderCap bounds a traced run's spans (32 B each, 8 MiB): about
// 13,000 debit-credit transactions, enough for a p99 with >100 samples
// beyond it, and a trace file a person can still open.
const recorderCap = 1 << 18

// recorderReserve is the tail of the buffer kept free for what follows
// the timed window (an Attach is a few dozen exchanges).
const recorderReserve = 1 << 14

func newRecorder(capacity int) *recorder {
	return &recorder{buf: make([]span, capacity)}
}

// window opens the buffer for the timed window; all opens the rest.
func (r *recorder) window() { r.limit.Store(int64(len(r.buf)) - recorderReserve) }
func (r *recorder) all()    { r.limit.Store(int64(len(r.buf))) }

func (r *recorder) add(kind spanKind, lane int, start, end int64, tx uint64, n int) {
	// The limit check races with concurrent adds by at most one span
	// per recording goroutine; the reserve absorbs that.
	limit := r.limit.Load()
	if limit == 0 {
		return // not recording: set-up, warm-up
	}
	if r.next.Load() >= limit {
		r.dropped.Add(1)
		return
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[i] = span{Kind: kind, Lane: uint8(lane), N: uint32(n), Start: start, End: end, Tx: tx}
}

// spans returns the recorded spans. Call only after every recording
// goroutine has quiesced.
func (r *recorder) spans() []span {
	n := r.next.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return r.buf[:n]
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals: overlapping
// and nested intervals (the two mirrors' parallel exchanges) count
// once. iv is sorted in place.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if curHi < curLo || x.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x.lo, x.hi
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// clipTo returns the parts of the spans that fall inside [lo, hi).
func clipTo(children []span, lo, hi int64) []interval {
	out := make([]interval, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			out = append(out, interval{a, b})
		}
	}
	return out
}

// breakdown splits one parent span (a transaction, or one Attach) into
// the three bars of the waterfall. The bars sum to Total exactly.
type breakdown struct {
	Total int64
	// FrontDoor is the part of the parent no engine-level call covers:
	// txclient + wire + loopback socket + txserver on remote workloads,
	// the benchmark's own loop body on in-process ones.
	FrontDoor int64
	// CoreSelf is the part engine-level calls cover and no transport
	// exchange does: core + netram CPU and lock wait.
	CoreSelf int64
	// Transport is the union of the mirrors' exchange intervals:
	// transport + wire + socket + memserver, as seen by the caller
	// blocked on them.
	Transport int64
	// Exchanges counts transport spans inside the parent.
	Exchanges int
}

// byStart sorts spans by start time.
func byStart(s []span) {
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
}

// within returns the sub-slice of sorted (by Start) spans that start in
// [lo, hi). Spans of one client's transaction never straddle its
// boundaries, so start containment is containment.
func within(sorted []span, lo, hi int64) []span {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start >= lo })
	j := i
	for j < len(sorted) && sorted[j].Start < hi {
		j++
	}
	return sorted[i:j]
}

// forEachParent calls f for every span of parentKind, in start order,
// with the engine-level spans (those engineLevel accepts; none when it
// is nil) and the transport spans that start inside it. Attribution is
// by time containment, so it is only meaningful where exactly one
// parent is in flight at a time (one client): with two, an exchange
// cannot be assigned to a transaction from outside.
func forEachParent(all []span, parentKind spanKind, engineLevel func(spanKind) bool, f func(parent span, eng, xs []span)) {
	var parents, eng, xs []span
	for _, s := range all {
		switch {
		case s.Kind == parentKind:
			parents = append(parents, s)
		case engineLevel != nil && engineLevel(s.Kind):
			eng = append(eng, s)
		case s.Kind.isTransport():
			xs = append(xs, s)
		}
	}
	byStart(parents)
	byStart(eng)
	byStart(xs)
	for _, p := range parents {
		f(p, within(eng, p.Start, p.End), within(xs, p.Start, p.End))
	}
}

// breakdowns splits every parentKind span into the waterfall's bars.
func breakdowns(all []span, parentKind spanKind, engineLevel func(spanKind) bool) []breakdown {
	var out []breakdown
	forEachParent(all, parentKind, engineLevel, func(p span, eng, xs []span) {
		xi := clipTo(xs, p.Start, p.End)
		b := breakdown{Total: p.dur(), Exchanges: len(xs)}
		b.Transport = unionLen(xi)
		cov := unionLen(append(clipTo(eng, p.Start, p.End), xi...))
		b.CoreSelf = cov - b.Transport
		b.FrontDoor = b.Total - cov
		out = append(out, b)
	})
	return out
}

// durations collects the durations of every span of one kind, sorted.
func durations(all []span, kind spanKind) []int64 {
	var out []int64
	for _, s := range all {
		if s.Kind == kind {
			out = append(out, s.dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pick extracts one bar from each breakdown, sorted.
func pick(bs []breakdown, f func(breakdown) int64) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeTraceFile dumps a run's spans as JSON: a legend of kind names
// and one [kind, lane, start_ns, end_ns, tx, n] row per span.
func writeTraceFile(path, workload string, seed uint64, all []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped_spans\":%d,\n", workload, seed, dropped)
	fmt.Fprintf(w, "\"columns\":[\"kind\",\"lane\",\"start_ns\",\"end_ns\",\"tx\",\"n\"],\n\"kinds\":[")
	for i, n := range kindNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"spans\":[\n")
	var line []byte
	for i, s := range all {
		line = line[:0]
		if i > 0 {
			line = append(line, ',', '\n')
		}
		line = append(line, '[')
		line = strconv.AppendInt(line, int64(s.Kind), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.Lane), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, s.Tx, 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, uint64(s.N), 10)
		line = append(line, ']')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
