package netram

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/ics-forth/perseas/internal/transport"
)

// batchLog records every write exchange one mirror is asked for.
type batchLog struct {
	transport.Transport
	mu      sync.Mutex
	batches [][]transport.BatchWrite
}

func (b *batchLog) Write(seg uint32, offset uint64, data []byte) error {
	return b.WriteBatch([]transport.BatchWrite{{Seg: seg, Offset: offset, Data: data}})
}

func (b *batchLog) WriteBatch(writes []transport.BatchWrite) error {
	b.mu.Lock()
	b.batches = append(b.batches, append([]transport.BatchWrite(nil), writes...))
	b.mu.Unlock()
	return b.Transport.(transport.BatchWriter).WriteBatch(writes)
}

// newBatchRig is newRig with every mirror behind a batchLog.
func newBatchRig(t *testing.T, n int) (*Client, []*batchLog, *rig) {
	t.Helper()
	r := newRig(t, n)
	var mirrors []Mirror
	var logs []*batchLog
	for _, m := range r.client.mirrors {
		bl := &batchLog{Transport: m.T}
		logs = append(logs, bl)
		mirrors = append(mirrors, Mirror{Name: m.Name, T: bl})
	}
	c, err := NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	c.SetClock(r.clock)
	t.Cleanup(c.Close)
	return c, logs, r
}

// commitBatch is the shape the transaction library sends: two log
// records widened as a lone push would widen them, two database spans
// exactly as given, and an 8-byte word of a third region.
func commitBatch(undo, db, meta *Region) []Entry {
	return []Entry{
		{Region: undo, Range: Range{Offset: 0, Length: 36}},
		{Region: undo, Range: Range{Offset: 48, Length: 78}},
		{Region: db, Range: Range{Offset: 8, Length: 8}, Exact: true},
		{Region: db, Range: Range{Offset: 68, Length: 56}, Exact: true},
		{Region: meta, Range: Range{Offset: 8, Length: 8}},
	}
}

// TestPushBatchIsOneOrderedExchangePerMirror: entries of several regions
// reach every mirror as one WriteBatch, in the order given, each resolved
// to that mirror's segment; widening applies per entry unless it is
// exact; and the SCI model prices the batch exactly like the individual
// pushes it replaces.
func TestPushBatchIsOneOrderedExchangePerMirror(t *testing.T) {
	c, logs, r := newBatchRig(t, 2)
	plain := newRig(t, 2)
	var regs, pregs []*Region
	for _, name := range []string{"undo", "db", "meta"} {
		reg, err := c.Malloc(name, 1024)
		if err != nil {
			t.Fatal(err)
		}
		preg, err := plain.client.Malloc(name, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reg.Local {
			reg.Local[i] = byte(i*7) + name[0]
			preg.Local[i] = reg.Local[i]
		}
		regs, pregs = append(regs, reg), append(pregs, preg)
	}
	for i := range regs {
		if err := c.PushAll(regs[i]); err != nil {
			t.Fatal(err)
		}
		for _, e := range commitBatch(regs[0], regs[1], regs[2]) {
			if e.Region == regs[i] {
				e.Region.Local[e.Offset] ^= 0xff // something for the batch to carry
			}
		}
		copy(pregs[i].Local, regs[i].Local)
	}
	batch := commitBatch(regs[0], regs[1], regs[2])
	for _, bl := range logs {
		bl.batches = nil
	}
	c.ResetStats()

	t0 := r.clock.Now()
	if err := c.PushBatch(batch, nil, false); err != nil {
		t.Fatal(err)
	}
	cost := r.clock.Now() - t0

	want := []struct {
		reg     int
		lo, len uint64
	}{{0, 0, 64}, {0, 48, 80}, {1, 8, 8}, {1, 68, 56}, {2, 8, 8}}
	for m, bl := range logs {
		if len(bl.batches) != 1 {
			t.Fatalf("mirror %d took %d write exchanges for the batch, want 1", m, len(bl.batches))
		}
		got := bl.batches[0]
		if len(got) != len(want) {
			t.Fatalf("mirror %d took %d entries, want %d", m, len(got), len(want))
		}
		for i, w := range want {
			reg := regs[w.reg]
			if got[i].Seg != reg.Handle(m).ID || got[i].Offset != w.lo || uint64(len(got[i].Data)) != w.len {
				t.Errorf("mirror %d entry %d is [%d,+%d) of segment %d, want [%d,+%d) of %q (segment %d)",
					m, i, got[i].Offset, len(got[i].Data), got[i].Seg, w.lo, w.len, reg.Name, reg.Handle(m).ID)
			}
		}
	}
	if st := c.Stats(); st.Pushes != 5 || st.PushedBytes != 36+78+8+56+8 || st.WireBytes != 2*(64+80+8+56+8) {
		t.Errorf("stats after the batch: %+v", st)
	}
	if mm, err := c.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll: %v %v", mm, err)
	}

	// The same stores, one push each.
	plain.client.ResetStats()
	t0 = plain.clock.Now()
	for _, e := range commitBatch(pregs[0], pregs[1], pregs[2]) {
		var err error
		if e.Exact {
			err = plain.client.PushBatch([]Entry{e}, nil, false)
		} else {
			err = plain.client.Push(e.Region, e.Offset, e.Length)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if plainCost := plain.clock.Now() - t0; cost != plainCost {
		t.Errorf("the batch costs %v of virtual time, its entries pushed one by one %v", cost, plainCost)
	}
	if c.Stats() != plain.client.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", c.Stats(), plain.client.Stats())
	}
}

func TestPushBatchValidation(t *testing.T) {
	r := newRig(t, 1)
	a, err := r.client.Malloc("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.client.Malloc("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	err = r.client.PushBatch([]Entry{{Region: a, Range: Range{Offset: 0, Length: 8}}, {Region: b, Range: Range{Offset: 60, Length: 8}}}, nil, false)
	if !errors.Is(err, ErrBadRange) {
		t.Errorf("overflowing entry: %v", err)
	}
	if st := r.client.Stats(); st.Pushes != 0 {
		t.Errorf("partial batch transmitted: %+v", st)
	}
	if err := r.client.PushBatch(nil, nil, false); err != nil {
		t.Errorf("empty batch should be a no-op: %v", err)
	}
	if err := r.client.PushBatch([]Entry{{Region: a}}, nil, true); err != nil {
		t.Errorf("zero-length entries should be skipped: %v", err)
	}
	if err := r.client.PushBatchTo(3, []Entry{{Region: a, Range: Range{Length: 8}}}); err == nil {
		t.Error("PushBatchTo an unknown mirror should fail")
	}
}

// TestPushBatchToWritesOneMirror: the targeted form reaches the named
// mirror and no other, on an all-ack client too.
func TestPushBatchToWritesOneMirror(t *testing.T) {
	c, logs, r := newBatchRig(t, 3)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range logs {
		bl.batches = nil
	}
	copy(reg.Local[16:], "only-one")
	if err := c.PushBatchTo(1, []Entry{{Region: reg, Range: Range{Offset: 16, Length: 8}}}); err != nil {
		t.Fatal(err)
	}
	for m, bl := range logs {
		if want := map[bool]int{true: 1, false: 0}[m == 1]; len(bl.batches) != want {
			t.Errorf("mirror %d took %d write exchanges, want %d", m, len(bl.batches), want)
		}
		got, err := r.servers[m].Read(reg.Handle(m).ID, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		if (string(got) == "only-one") != (m == 1) {
			t.Errorf("mirror %d holds %q", m, got)
		}
	}
}

// TestPushBatchSkipsRegionsAMirrorLacks: a mirror receives the entries of
// the regions mapped on it — what separate pushes per region would have
// sent it — and a mirror holding none of them is not written at all.
func TestPushBatchSkipsRegionsAMirrorLacks(t *testing.T) {
	c, logs, r := newBatchRig(t, 2)
	both, err := c.Malloc("both", 64)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := c.Malloc("lone", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror 1 loses "lone"; a node reconnecting then maps it on mirror 0
	// only.
	if err := r.servers[1].Free(lone.Handle(1).ID); err != nil {
		t.Fatal(err)
	}
	lone, err = c.Connect("lone")
	if err != nil {
		t.Fatal(err)
	}
	if lone.Handle(1).ID != 0 {
		t.Fatal("the test needs a region mirror 1 does not hold")
	}
	for _, bl := range logs {
		bl.batches = nil
	}
	copy(both.Local, "shared..")
	copy(lone.Local, "mirror-0")
	batch := []Entry{{Region: lone, Range: Range{Length: 8}}, {Region: both, Range: Range{Length: 8}}}
	if err := c.PushBatch(batch, nil, false); err != nil {
		t.Fatal(err)
	}
	for m, want := range []int{2, 1} {
		if len(logs[m].batches) != 1 || len(logs[m].batches[0]) != want {
			t.Errorf("mirror %d took %v, want one exchange of %d entries", m, logs[m].batches, want)
		}
	}
	if got := logs[1].batches[0][0]; got.Seg != both.Handle(1).ID || !bytes.Equal(got.Data, []byte("shared..")) {
		t.Errorf("mirror 1 was sent %+v, want the entry of the region it holds", got)
	}
	logs[1].batches = nil
	if err := c.PushBatch(batch[:1], nil, false); err != nil {
		t.Fatal(err)
	}
	if len(logs[1].batches) != 0 {
		t.Errorf("mirror 1 took %d exchanges for a region it does not hold", len(logs[1].batches))
	}
}

// TestPushBatchTracksDirtySpansPerRegion: while a rebuild's bulk copy
// runs, a batch records every entry's wire span under its own region, so
// the catch-up epochs replay all of them.
func TestPushBatchTracksDirtySpansPerRegion(t *testing.T) {
	r := newRig(t, 2)
	c := r.client
	undo, err := c.Malloc("undo", 1024)
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := c.Malloc("meta", 1024)
	if err != nil {
		t.Fatal(err)
	}
	c.dirtyMu.Lock()
	c.dirty = make(map[string][]Range)
	c.dirtyMu.Unlock()
	c.tracking.Store(true)
	if err := c.PushBatch(commitBatch(undo, db, meta), nil, false); err != nil {
		t.Fatal(err)
	}
	c.WaitCatchUp() // the last job to let go of the push records its spans
	c.tracking.Store(false)
	got := c.swapDirty()
	want := map[string][]Range{
		"undo": {{0, 64}, {48, 80}},
		"db":   {{8, 8}, {68, 56}},
		"meta": {{8, 8}},
	}
	if len(got) != len(want) {
		t.Fatalf("dirty set %v, want %v", got, want)
	}
	for name, spans := range want {
		if len(got[name]) != len(spans) {
			t.Fatalf("dirty spans of %q: %v, want %v", name, got[name], spans)
		}
		for i, s := range spans {
			if got[name][i] != s {
				t.Errorf("dirty span %d of %q: %v, want %v", i, name, got[name][i], s)
			}
		}
	}
}

func TestPushBatchAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := newRig(t, 2)
	var regs []*Region
	for _, name := range []string{"undo", "db", "meta"} {
		reg, err := r.client.Malloc(name, 1024)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
	}
	batch := commitBatch(regs[0], regs[1], regs[2])
	for i := 0; i < 8; i++ { // warm the worker pool and scratch buffers
		if err := r.client.PushBatch(batch, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.client.PushBatch(batch, nil, false); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PushBatch allocates %.1f objects per run, want 0", n)
	}
}
