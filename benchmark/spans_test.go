package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name string
		iv   []interval
		want int64
	}{
		{"nothing", nil, 0},
		{"one", []interval{{10, 30}}, 20},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 25},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 100}, {20, 30}, {40, 50}}, 90},
		{"parallel mirrors", []interval{{10, 30}, {12, 28}}, 20},
		{"unsorted, touching", []interval{{30, 40}, {10, 20}, {20, 30}}, 30},
		{"empty and inverted are ignored", []interval{{10, 10}, {30, 20}, {50, 60}}, 10},
		{"starts at zero", []interval{{0, 5}, {3, 8}}, 8},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	self := func(all []span) int64 {
		bs := breakdowns(all, kTx, nil)
		if len(bs) != 1 {
			t.Fatalf("got %d breakdowns, want 1", len(bs))
		}
		return bs[0].Total - bs[0].Transport
	}
	parent := span{Kind: kTx, Start: 100, End: 200}
	children := []span{
		{Kind: kXWrite, Lane: 0, Start: 110, End: 140}, // mirror 0
		{Kind: kXWrite, Lane: 1, Start: 112, End: 150}, // mirror 1, in parallel
		{Kind: kXWrite, Lane: 0, Start: 160, End: 170},
		{Kind: kXWrite, Lane: 1, Start: 190, End: 230}, // runs past the parent: clipped
		{Kind: kXWrite, Lane: 1, Start: 50, End: 90},   // before the parent: ignored
	}
	// Covered: [110,150) + [160,170) + [190,200) = 60 of 100.
	if got := self(append([]span{parent}, children...)); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := self([]span{parent}); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestBreakdownsBarsSumToTotal(t *testing.T) {
	// Two sequential remote transactions. The engine decorator's calls
	// sit inside the client's transaction span, the mirrors' exchanges
	// (two in parallel each time) inside the engine calls.
	all := []span{
		{Kind: kTx, Start: 1000, End: 1400, Tx: 0},
		{Kind: kEngBegin, Start: 1020, End: 1030},
		{Kind: kEngSetRange, Start: 1060, End: 1160},
		{Kind: kXWrite, Lane: 0, Start: 1070, End: 1130},
		{Kind: kXWrite, Lane: 1, Start: 1075, End: 1150},
		{Kind: kEngCommit, Start: 1200, End: 1380},
		{Kind: kXWriteBatch, Lane: 0, Start: 1210, End: 1290},
		{Kind: kXWriteBatch, Lane: 1, Start: 1212, End: 1280},
		{Kind: kXWrite, Lane: 0, Start: 1300, End: 1370},
		{Kind: kXWrite, Lane: 1, Start: 1305, End: 1360},

		{Kind: kTx, Start: 2000, End: 2100, Tx: 1},
		{Kind: kEngCommit, Start: 2010, End: 2090},
		{Kind: kXWrite, Lane: 0, Start: 2020, End: 2080},
	}
	// Recording order is completion order, not start order.
	shuffled := append([]span(nil), all...)
	shuffled[0], shuffled[9] = shuffled[9], shuffled[0]
	shuffled[2], shuffled[12] = shuffled[12], shuffled[2]

	bs := breakdowns(shuffled, kTx, spanKind.isEngine)
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns, want 2", len(bs))
	}
	want := []breakdown{
		// engine covers 10+100+180 = 290; exchanges cover 80+80+70 = 230.
		{Total: 400, FrontDoor: 110, CoreSelf: 60, Transport: 230, Exchanges: 6},
		{Total: 100, FrontDoor: 20, CoreSelf: 20, Transport: 60, Exchanges: 1},
	}
	for i, b := range bs {
		if b != want[i] {
			t.Errorf("transaction %d: %+v, want %+v", i, b, want[i])
		}
		if b.FrontDoor+b.CoreSelf+b.Transport != b.Total {
			t.Errorf("transaction %d: bars %+v do not sum to the total", i, b)
		}
	}

	// In-process there is no engine decorator: the benchmark's own calls
	// mark "inside the engine".
	lib := []span{
		{Kind: kTx, Start: 0, End: 100},
		{Kind: kCallSetRange, Start: 5, End: 45},
		{Kind: kXWrite, Start: 10, End: 40},
		{Kind: kCallCommit, Start: 50, End: 98},
		{Kind: kXWrite, Start: 55, End: 95},
	}
	got := breakdowns(lib, kTx, spanKind.isCall)
	if len(got) != 1 || got[0] != (breakdown{Total: 100, FrontDoor: 12, CoreSelf: 18, Transport: 70, Exchanges: 2}) {
		t.Errorf("in-process breakdown = %+v", got)
	}

	// An Attach has no engine level: everything the exchanges do not
	// cover is the recovery's own time.
	attach := []span{
		{Kind: kAttach, Start: 0, End: 1000},
		{Kind: kXOther, Start: 10, End: 20},
		{Kind: kXRead, Lane: 0, Start: 100, End: 600},
		{Kind: kXRead, Lane: 1, Start: 300, End: 700},
	}
	a := breakdowns(attach, kAttach, nil)
	if len(a) != 1 || a[0].Transport != 610 || a[0].Total-a[0].Transport != 390 {
		t.Errorf("attach breakdown = %+v", a)
	}
}

func TestRecorderWindows(t *testing.T) {
	r := newRecorder(recorderReserve + 4)
	r.add(kXWrite, 0, 1, 2, 0, 0) // not recording yet
	if len(r.spans()) != 0 || r.dropped.Load() != 0 {
		t.Fatalf("a closed recorder kept or counted a span: %d kept, %d dropped", len(r.spans()), r.dropped.Load())
	}
	r.window()
	for i := 0; i < 6; i++ {
		r.add(kTx, 0, int64(i), int64(i+1), uint64(i), 0)
	}
	if got := len(r.spans()); got != 4 {
		t.Errorf("window kept %d spans, want 4 (the rest of the buffer is reserved)", got)
	}
	if got := r.dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	r.all()
	r.add(kAttach, 0, 10, 20, 0, 0)
	if got := len(r.spans()); got != 5 {
		t.Errorf("after opening the reserve: %d spans, want 5", got)
	}
}

func TestWriteTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	all := []span{{Kind: kTx, Lane: 1, N: 7, Start: 10, End: 20, Tx: 3}, {Kind: kXRead, Start: 12, End: 18}}
	if err := writeTraceFile(path, "w", 9, all, 2); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Dropped  int64     `json:"dropped_spans"`
		Kinds    []string  `json:"kinds"`
		Spans    [][]int64 `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, b)
	}
	if f.Workload != "w" || f.Seed != 9 || f.Dropped != 2 || len(f.Kinds) != int(numKinds) || len(f.Spans) != 2 {
		t.Errorf("trace file header = %+v", f)
	}
	if got := f.Spans[0]; len(got) != 6 || got[0] != int64(kTx) || got[1] != 1 || got[2] != 10 || got[3] != 20 || got[4] != 3 || got[5] != 7 {
		t.Errorf("first span row = %v", got)
	}
	if f.Kinds[kXRead] != "transport.read" {
		t.Errorf("kind legend[%d] = %q", kXRead, f.Kinds[kXRead])
	}
}
