package netram

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/transport"
)

// spareMirror builds a fresh node on the rig's clock, ready to hand to
// RebuildMirror as a replacement.
func spareMirror(t *testing.T, r *rig, label string) (Mirror, *memserver.Server) {
	t.Helper()
	srv := memserver.New(memserver.WithLabel(label))
	tr, err := transport.NewInProc(srv, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}
	return Mirror{Name: label, T: tr}, srv
}

// eachRebuildDepth runs body once per rebuild pipeline depth, with a
// read chunk small enough that every region copy is several chunks and,
// at depth >= 2, several of them are in flight at once.
func eachRebuildDepth(t *testing.T, body func(t *testing.T, depth int, opts []Option)) {
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			body(t, depth, []Option{WithReadChunk(1024), WithRebuildPipeline(depth)})
		})
	}
}

// checkRebuildSources pins where a rebuild of slot dead read from: depth
// 1 is strict read-then-write from the first survivor alone, depth >= 2
// stripes the chunk reads across every survivor.
func checkRebuildSources(t *testing.T, c *Client, depth, dead int) {
	t.Helper()
	first := true
	for i, b := range c.RebuildSourceBytes() {
		switch {
		case i == dead:
			if b != 0 {
				t.Errorf("the slot being rebuilt served %d source bytes", b)
			}
		case first:
			first = false
			if b == 0 {
				t.Errorf("first survivor (slot %d) served no source bytes", i)
			}
		case depth == 1 && b != 0:
			t.Errorf("depth 1 read %d bytes from slot %d, want the first survivor only", b, i)
		case depth > 1 && b == 0:
			t.Errorf("depth %d never read from survivor slot %d", depth, i)
		}
	}
}

func TestRebuildMirrorBasic(t *testing.T) {
	eachRebuildDepth(t, testRebuildMirrorBasic)
}

func testRebuildMirrorBasic(t *testing.T, depth int, opts []Option) {
	r := newRig(t, 3, opts...)
	reg, err := r.client.Malloc("db", 8192)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i * 7)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}

	// Mirror 1 dies for good; the detector fences it and rebuilds onto a
	// spare.
	r.servers[1].Crash()
	if err := r.client.MarkMirrorDown(1); err != nil {
		t.Fatal(err)
	}
	if r.client.Live() != 2 {
		t.Fatalf("live = %d, want 2", r.client.Live())
	}

	spare, spareSrv := spareMirror(t, r, "spare0")
	var last RebuildProgress
	if err := r.client.RebuildMirror(1, spare, func(p RebuildProgress) { last = p }); err != nil {
		t.Fatal(err)
	}
	if r.client.Live() != 3 {
		t.Fatalf("live after rebuild = %d, want 3", r.client.Live())
	}
	if got := r.client.MirrorName(1); got != "spare0" {
		t.Fatalf("slot 1 is %q, want spare0", got)
	}
	if last.CopiedBytes < 8192 {
		t.Fatalf("progress reported %d copied bytes, want >= 8192", last.CopiedBytes)
	}
	if got := r.client.Metrics().Rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds counter = %d, want 1", got)
	}
	checkRebuildSources(t, r.client, depth, 1)

	// The spare holds the bytes, and subsequent pushes reach it.
	if mm, err := r.client.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("verify after rebuild: %v %v", mm, err)
	}
	copy(reg.Local[4000:], []byte("post-rebuild"))
	if err := r.client.Push(reg, 4000, 12); err != nil {
		t.Fatal(err)
	}
	got, err := spareSrv.Read(reg.Handle(1).ID, 4000, 12)
	if err != nil || !bytes.Equal(got, []byte("post-rebuild")) {
		t.Fatalf("spare read: %q %v", got, err)
	}
}

func TestRebuildCatchesConcurrentPushes(t *testing.T) {
	eachRebuildDepth(t, testRebuildCatchesConcurrentPushes)
}

func testRebuildCatchesConcurrentPushes(t *testing.T, depth int, opts []Option) {
	r := newRig(t, 3, opts...)
	reg, err := r.client.Malloc("hot", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	r.servers[2].Crash()
	if err := r.client.MarkMirrorDown(2); err != nil {
		t.Fatal(err)
	}

	// Hammer pushes from another goroutine for the whole duration of
	// the rebuild; the dirty-range catch-up must fold every one of them
	// into the spare.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := byte(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			off := uint64(seq) * 256 % (1<<16 - 64)
			for i := uint64(0); i < 64; i++ {
				reg.Local[off+i] = seq
			}
			if err := r.client.Push(reg, off, 64); err != nil {
				t.Errorf("concurrent push: %v", err)
				return
			}
			seq++
		}
	}()

	spare, _ := spareMirror(t, r, "spareC")
	err = r.client.RebuildMirror(2, spare, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if mm, verr := r.client.VerifyAll(); verr != nil || len(mm) != 0 {
		t.Fatalf("verify after concurrent rebuild: %v %v", mm, verr)
	}
	checkRebuildSources(t, r.client, depth, 2)
}

func TestRebuildBlocksTopologyChanges(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.client.Malloc("seg", 16384); err != nil {
		t.Fatal(err)
	}
	r.servers[1].Crash()
	_ = r.client.MarkMirrorDown(1)

	spare, _ := spareMirror(t, r, "spareB")
	second, _ := spareMirror(t, r, "spareB2")
	checked := false
	err := r.client.RebuildMirror(1, spare, func(p RebuildProgress) {
		if checked || p.Epoch != 0 {
			return // phase 3 runs under the topology lock; stay out
		}
		checked = true
		if slot, active := r.client.Rebuilding(); !active || slot != 1 {
			t.Errorf("Rebuilding() = %d,%v mid-rebuild", slot, active)
		}
		if err := r.client.Revive(1); !errors.Is(err, ErrRebuildInProgress) {
			t.Errorf("Revive during rebuild: %v", err)
		}
		if err := r.client.ReplaceMirror(1, second); !errors.Is(err, ErrRebuildInProgress) {
			t.Errorf("ReplaceMirror during rebuild: %v", err)
		}
		if err := r.client.RebuildMirror(1, second, nil); !errors.Is(err, ErrRebuildInProgress) {
			t.Errorf("second RebuildMirror: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("progress callback never ran")
	}
	if _, active := r.client.Rebuilding(); active {
		t.Fatal("rebuild still marked active after return")
	}
}

func TestRebuildCoversRegionsBornAndFreedMidCopy(t *testing.T) {
	eachRebuildDepth(t, testRebuildCoversRegionsBornAndFreedMidCopy)
}

func testRebuildCoversRegionsBornAndFreedMidCopy(t *testing.T, depth int, opts []Option) {
	r := newRig(t, 3, opts...)
	keep, err := r.client.Malloc("keep", 16384)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := r.client.Malloc("doomed", 16384)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keep.Local {
		keep.Local[i] = 0xAB
	}
	if err := r.client.PushAll(keep); err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(doomed); err != nil {
		t.Fatal(err)
	}
	r.servers[1].Crash()
	_ = r.client.MarkMirrorDown(1)

	spare, spareSrv := spareMirror(t, r, "spareD")
	var once sync.Once
	var born *Region
	err = r.client.RebuildMirror(1, spare, func(p RebuildProgress) {
		if p.Epoch != 0 {
			return
		}
		once.Do(func() {
			// Mid-copy, one region dies and another is born.
			if err := r.client.Free(doomed); err != nil {
				t.Errorf("free mid-rebuild: %v", err)
			}
			nr, err := r.client.Malloc("born", 8192)
			if err != nil {
				t.Errorf("malloc mid-rebuild: %v", err)
				return
			}
			for i := range nr.Local {
				nr.Local[i] = 0xCD
			}
			if err := r.client.PushAll(nr); err != nil {
				t.Errorf("push mid-rebuild: %v", err)
			}
			born = nr
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if born == nil {
		t.Fatal("mid-rebuild malloc never happened")
	}
	if mm, verr := r.client.VerifyAll(); verr != nil || len(mm) != 0 {
		t.Fatalf("verify: %v %v", mm, verr)
	}
	// The spare holds exactly the live regions: keep and born.
	segs := spareSrv.List()
	names := make(map[string]bool, len(segs))
	for _, s := range segs {
		names[s.Name] = true
	}
	if !names["keep"] || !names["born"] || names["doomed"] {
		t.Fatalf("spare segments after rebuild: %v", names)
	}
	checkRebuildSources(t, r.client, depth, 1)
	got, err := spareSrv.Read(born.Handle(1).ID, 0, 16)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 16)) {
		t.Fatalf("born region on spare: %q %v", got, err)
	}
}

func TestRebuildFailureLeavesClientDegradedButUsable(t *testing.T) {
	eachRebuildDepth(t, testRebuildFailureLeavesClientDegradedButUsable)
}

func testRebuildFailureLeavesClientDegradedButUsable(t *testing.T, depth int, opts []Option) {
	r := newRig(t, 3, opts...)
	reg, err := r.client.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	r.servers[1].Crash()
	_ = r.client.MarkMirrorDown(1)

	// A spare that is itself dead: the rebuild must fail up front.
	deadSpare, deadSrv := spareMirror(t, r, "deadSpare")
	deadSrv.Crash()
	if err := r.client.RebuildMirror(1, deadSpare, nil); err == nil {
		t.Fatal("rebuild onto dead spare succeeded")
	}
	if _, active := r.client.Rebuilding(); active {
		t.Fatal("failed rebuild left the slot claimed")
	}

	// A spare that refuses writes from the third chunk on: the chunk loop
	// stops at every depth and the half-filled segment is released.
	midSpare, midSrv := spareMirror(t, r, "midSpare")
	midSpare.T = &refusing{Transport: midSpare.T, accept: 2}
	if err := r.client.RebuildMirror(1, midSpare, nil); err == nil {
		t.Fatal("rebuild onto a spare that refuses writes succeeded")
	}
	if _, active := r.client.Rebuilding(); active {
		t.Fatal("failed rebuild left the slot claimed")
	}
	if segs := midSrv.List(); len(segs) != 0 {
		t.Fatalf("failed rebuild left %d segments on the spare", len(segs))
	}

	// Pushes still work degraded, and a later rebuild with a live spare
	// succeeds.
	copy(reg.Local, []byte("still here"))
	if err := r.client.Push(reg, 0, 10); err != nil {
		t.Fatal(err)
	}
	spare, _ := spareMirror(t, r, "goodSpare")
	if err := r.client.RebuildMirror(1, spare, nil); err != nil {
		t.Fatal(err)
	}
	if mm, verr := r.client.VerifyAll(); verr != nil || len(mm) != 0 {
		t.Fatalf("verify: %v %v", mm, verr)
	}
}

// refusing wraps a transport and fails every write after the first
// accept while staying pingable. Safe for the concurrent chunk writes of
// a deep rebuild.
type refusing struct {
	transport.Transport
	accept int64
	writes atomic.Int64
}

func (f *refusing) Write(seg uint32, offset uint64, data []byte) error {
	if f.writes.Add(1) > f.accept {
		return errors.New("refusing: write refused")
	}
	return f.Transport.Write(seg, offset, data)
}

func TestProbeMirrorChargesNoVirtualTime(t *testing.T) {
	r := newRig(t, 2)
	before := r.clock.Now()
	if err := r.client.ProbeMirror(0); err != nil {
		t.Fatal(err)
	}
	if after := r.clock.Now(); after != before {
		t.Fatalf("probe advanced the simulated clock by %v", after-before)
	}
	r.servers[1].Crash()
	if err := r.client.ProbeMirror(1); err == nil {
		t.Fatal("probe of crashed mirror succeeded")
	}
	if after := r.clock.Now(); after != before {
		t.Fatal("failed probe advanced the simulated clock")
	}
	if err := r.client.ProbeMirror(7); err == nil {
		t.Fatal("probe of bogus slot succeeded")
	}
}

func TestMergeRanges(t *testing.T) {
	cases := []struct {
		in, want []Range
	}{
		{nil, nil},
		{[]Range{{0, 10}}, []Range{{0, 10}}},
		// Adjacent coalesce.
		{[]Range{{0, 10}, {10, 5}}, []Range{{0, 15}}},
		// Overlap, out of order.
		{[]Range{{20, 10}, {0, 25}}, []Range{{0, 30}}},
		// Contained.
		{[]Range{{0, 100}, {10, 5}}, []Range{{0, 100}}},
		// Disjoint stay apart.
		{[]Range{{50, 5}, {0, 10}}, []Range{{0, 10}, {50, 5}}},
	}
	for i, c := range cases {
		got := Coalesce(append([]Range(nil), c.in...))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("case %d: merge(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
}
