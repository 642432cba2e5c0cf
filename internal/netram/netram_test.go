package netram

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// rig is a client over n in-process mirror nodes sharing one clock.
type rig struct {
	client  *Client
	servers []*memserver.Server
	clock   *simclock.SimClock
}

func newRig(t *testing.T, nMirrors int, opts ...Option) *rig {
	t.Helper()
	clock := simclock.NewSim()
	var mirrors []Mirror
	var servers []*memserver.Server
	for i := 0; i < nMirrors; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tr})
		servers = append(servers, srv)
	}
	c, err := NewClient(mirrors, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{client: c, servers: servers, clock: clock}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(nil); !errors.Is(err, ErrNoMirrors) {
		t.Errorf("nil mirrors: got %v", err)
	}
	if _, err := NewClient([]Mirror{{Name: "x", T: nil}}); err == nil {
		t.Error("nil transport should be rejected")
	}
}

func TestMallocPushFetch(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Size() != 4096 || len(reg.Local) != 4096 {
		t.Fatalf("bad region %+v", reg)
	}

	copy(reg.Local[100:], []byte("mirrored data"))
	if err := r.client.Push(reg, 100, 13); err != nil {
		t.Fatal(err)
	}

	// Both mirrors hold the bytes.
	for i, srv := range r.servers {
		got, err := srv.Read(reg.Handle(i).ID, 100, 13)
		if err != nil {
			t.Fatalf("mirror %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte("mirrored data")) {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}

	// Fetch reads it back.
	got, err := r.client.Fetch(reg, 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("mirrored data")) {
		t.Errorf("fetch = %q", got)
	}
}

func TestMallocZeroSize(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.client.Malloc("db", 0); err == nil {
		t.Error("zero-size malloc should fail")
	}
}

func TestMallocUnwindsOnPartialFailure(t *testing.T) {
	r := newRig(t, 2)
	// Fill the second mirror so its malloc fails.
	small := memserver.New(memserver.WithCapacity(10))
	tr, err := transport.NewInProc(small, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient([]Mirror{
		{Name: "big", T: mustInProc(t, r.servers[0], r.clock)},
		{Name: "small", T: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Malloc("db", 64); err == nil {
		t.Fatal("malloc should fail when one mirror is out of memory")
	}
	// The successful allocation on the big mirror was unwound.
	if got := r.servers[0].Held(); got != 0 {
		t.Errorf("big mirror still holds %d bytes", got)
	}
}

func mustInProc(t *testing.T, srv *memserver.Server, clock simclock.Clock) transport.Transport {
	t.Helper()
	tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPushAlignmentExpansion(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i)
	}
	// A 56-byte push at offset 68 covers four 16-byte slots of chunk
	// [64,128): draining those as small packets costs more than one
	// full 64-byte packet, so sci_memcpy widens the copy to the whole
	// aligned chunk.
	if err := r.client.Push(reg, 68, 56); err != nil {
		t.Fatal(err)
	}
	st := r.client.Stats()
	if st.PushedBytes != 56 {
		t.Errorf("PushedBytes = %d, want 56", st.PushedBytes)
	}
	if st.WireBytes != 64 {
		t.Errorf("WireBytes = %d, want 64 (aligned expansion)", st.WireBytes)
	}
	// The expanded bytes are correct on the mirror (identical to local).
	got, err := r.servers[0].Read(reg.Handle(0).ID, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reg.Local[64:128]) {
		t.Error("expanded region mismatch on mirror")
	}
}

func TestPushNarrowEdgesNotExpanded(t *testing.T) {
	// Edge chunks touching only one or two 16-byte slots drain cheaply
	// as small packets; widening them would cost a full packet plus
	// extra bus words, so sci_memcpy leaves them alone.
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 100, 40); err != nil { // 2-slot + 1-slot edges
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.WireBytes != 40 {
		t.Errorf("WireBytes = %d, want 40 (narrow edges untouched)", st.WireBytes)
	}
}

func TestPushSmallNotExpanded(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 100, 8); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.WireBytes != 8 {
		t.Errorf("WireBytes = %d, want 8 (no expansion below threshold)", st.WireBytes)
	}
}

func TestPushWithoutAlignment(t *testing.T) {
	r := newRig(t, 1, WithoutAlignment())
	reg, err := r.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 100, 40); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.WireBytes != 40 {
		t.Errorf("WireBytes = %d, want 40 (alignment disabled)", st.WireBytes)
	}
}

// TestPushSpansSendsSpansAsGiven: WireSpan names what Push would send —
// honouring the alignment options — and an exact PushBatch entry sends a
// span exactly as given, so a caller that could only claim the bare range
// ships no byte beyond it.
func TestPushSpansSendsSpansAsGiven(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.client.WireSpan(reg, 68, 56); lo != 64 || hi != 128 {
		t.Errorf("WireSpan(68,+56) = [%d,%d), want [64,128)", lo, hi)
	}
	if lo, hi := r.client.WireSpan(reg, 100, 8); lo != 100 || hi != 108 {
		t.Errorf("WireSpan(100,+8) = [%d,%d), want [100,108) below the threshold", lo, hi)
	}
	plain := newRig(t, 1, WithoutAlignment())
	preg, err := plain.client.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := plain.client.WireSpan(preg, 68, 56); lo != 68 || hi != 124 {
		t.Errorf("WireSpan(68,+56) = [%d,%d) with alignment disabled, want [68,124)", lo, hi)
	}

	for i := range reg.Local {
		reg.Local[i] = 0xEE
	}
	if err := r.client.PushBatch([]Entry{{Region: reg, Range: Range{Offset: 68, Length: 56}, Exact: true}}, nil, false); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.WireBytes != 56 || st.Pushes != 1 {
		t.Errorf("WireBytes = %d, Pushes = %d, want 56 and 1 (span sent as given)", st.WireBytes, st.Pushes)
	}
	got, err := r.servers[0].Read(reg.Handle(0).ID, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64)
	copy(want[4:60], reg.Local[68:124])
	if !bytes.Equal(got, want) {
		t.Errorf("mirror line [64,128) = % x, want only [68,124) written", got)
	}
}

func TestPushExpansionClampsToRegionEnd(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 100) // not a multiple of 64
	if err != nil {
		t.Fatal(err)
	}
	// Pushing [4,96) widens its 4-slot head chunk down to offset 0, but
	// the tail cannot align up to 128 — the region ends at 100.
	if err := r.client.Push(reg, 4, 92); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.WireBytes != 96 {
		t.Errorf("WireBytes = %d, want 96 (head widened, tail clamped)", st.WireBytes)
	}
}

func TestPushBounds(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 60, 8); !errors.Is(err, ErrBadRange) {
		t.Errorf("overflow push: %v", err)
	}
	if err := r.client.Push(reg, 65, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("past-end push: %v", err)
	}
	if err := r.client.Push(reg, 0, 0); err != nil {
		t.Errorf("empty push should be a no-op: %v", err)
	}
	if _, err := r.client.Fetch(reg, 63, 2); !errors.Is(err, ErrBadRange) {
		t.Errorf("overflow fetch: %v", err)
	}
}

func TestPushAllAndFetchInto(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i * 7)
	}
	want := append([]byte(nil), reg.Local...)
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	// Lose the local copy, restore from mirrors.
	for i := range reg.Local {
		reg.Local[i] = 0
	}
	if err := r.client.FetchInto(reg, 0, reg.Size()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reg.Local, want) {
		t.Error("FetchInto did not restore the region")
	}
}

func TestFetchFailsOverToSecondMirror(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("failover"))
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	r.servers[0].Crash()
	got, err := r.client.Fetch(reg, 0, 8)
	if err != nil {
		t.Fatalf("fetch with one mirror down: %v", err)
	}
	if string(got) != "failover" {
		t.Errorf("fetch = %q", got)
	}
	r.servers[1].Crash()
	if _, err := r.client.Fetch(reg, 0, 8); !errors.Is(err, ErrAllMirrorsDown) {
		t.Errorf("all mirrors down: %v", err)
	}
}

func TestPushSurvivesMirrorDeath(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("available"))
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	if got := r.client.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}

	// Node 0 dies. The next push degrades it and succeeds on node 1.
	r.servers[0].Crash()
	copy(reg.Local, []byte("still ok!"))
	if err := r.client.Push(reg, 0, 9); err != nil {
		t.Fatalf("push with one mirror down: %v", err)
	}
	if got := r.client.Live(); got != 1 {
		t.Errorf("Live = %d, want 1 after degradation", got)
	}
	got, err := r.servers[1].Read(reg.Handle(1).ID, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "still ok!" {
		t.Errorf("survivor holds %q", got)
	}

	// Both down: pushes fail loudly.
	r.servers[1].Crash()
	if err := r.client.Push(reg, 0, 9); !errors.Is(err, ErrAllMirrorsDown) {
		t.Errorf("push with all mirrors down: %v", err)
	}
}

func TestPushBadRangeNotMaskedByDegradation(t *testing.T) {
	// A server-side range rejection is a bug, not a node failure: it
	// must surface, and the healthy mirror must not be marked down.
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the handle to force a server-side error on a live node.
	reg.handles[0].ID = 9999
	if err := r.client.Push(reg, 0, 8); err == nil {
		t.Fatal("push to bogus segment should fail")
	}
	if got := r.client.Live(); got != 1 {
		t.Errorf("healthy mirror was degraded: Live = %d", got)
	}
}

func TestConnectAfterLocalCrash(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("perseas.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("persistent state"))
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}

	// A new client (the restarted process) reconnects by name.
	re, err := r.client.Connect("perseas.db")
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != 128 {
		t.Fatalf("reconnected size = %d, want 128", re.Size())
	}
	if err := r.client.FetchInto(re, 0, 16); err != nil {
		t.Fatal(err)
	}
	if string(re.Local[:16]) != "persistent state" {
		t.Errorf("recovered %q", re.Local[:16])
	}
}

func TestConnectUnknownName(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.client.Connect("ghost"); err == nil {
		t.Error("connect to unknown region should fail")
	}
}

func TestConnectWithOneMirrorDown(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("alive"))
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	r.servers[0].Crash()
	re, err := r.client.Connect("db")
	if err != nil {
		t.Fatalf("connect with one mirror down: %v", err)
	}
	if err := r.client.FetchInto(re, 0, 5); err != nil {
		t.Fatal(err)
	}
	if string(re.Local[:5]) != "alive" {
		t.Errorf("recovered %q", re.Local[:5])
	}
	// Pushes keep flowing to the surviving mirror.
	if err := r.client.Push(re, 0, 5); err != nil {
		t.Errorf("push after partial connect: %v", err)
	}
}

func TestFreeReleasesAllMirrors(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Free(reg); err != nil {
		t.Fatal(err)
	}
	for i, srv := range r.servers {
		if got := srv.Held(); got != 0 {
			t.Errorf("mirror %d still holds %d bytes", i, got)
		}
	}
}

func TestPing(t *testing.T) {
	r := newRig(t, 2)
	if err := r.client.Ping(); err != nil {
		t.Fatal(err)
	}
	r.servers[1].Crash()
	if err := r.client.Ping(); err == nil {
		t.Error("ping should fail with a mirror down")
	}
}

func TestPushChargesNetworkTime(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t0 := r.clock.Now()
	if err := r.client.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	small := r.clock.Now() - t0
	t0 = r.clock.Now()
	if err := r.client.Push(reg, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	big := r.clock.Now() - t0
	if small <= 0 || big <= small {
		t.Errorf("costs not monotone: 64B=%v 1MiB=%v", small, big)
	}
}

func TestPushFetchRoundTripProperty(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("prop", 2048)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		o := uint64(off) % 2048
		if uint64(len(data)) > 2048-o {
			data = data[:2048-o]
		}
		copy(reg.Local[o:], data)
		if err := r.client.Push(reg, o, uint64(len(data))); err != nil {
			return false
		}
		got, err := r.client.Fetch(reg, o, uint64(len(data)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReset(t *testing.T) {
	r := newRig(t, 1)
	reg, err := r.client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.Pushes != 1 {
		t.Errorf("Pushes = %d, want 1", st.Pushes)
	}
	r.client.ResetStats()
	if st := r.client.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}
