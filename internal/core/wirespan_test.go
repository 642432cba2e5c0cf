package core

// A commit push may ship only bytes its transaction holds. netram widens
// a push of 32 bytes or more to whole 64-byte lines, so SetRange claims
// the widened span when nobody else holds any of it and falls back to —
// and later pushes — the exact range otherwise. These tests pin both
// halves with a neighbour that is mid-write inside the committing
// transaction's line.

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ics-forth/perseas/internal/engine"
)

// neighbourRig leaves T2 holding, and scribbled over, the last 8 bytes
// of the 64-byte line [64,128), then commits T1's 50-byte range [70,120)
// in the same line. It returns T2 still open.
func neighbourRig(t *testing.T) (*rig, engine.DB, *Tx) {
	t.Helper()
	r := newRig(t, 2)
	db := r.mustCreate(t, "db", 256, 0x11)

	t2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.SetRange(db, 120, 8); err != nil {
		t.Fatal(err)
	}
	copy(db.Bytes()[120:], "T2T2T2T2")

	t1, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.SetRange(db, 70, 50); err != nil {
		t.Fatalf("disjoint range in a neighbour's line: %v", err)
	}
	copy(db.Bytes()[70:120], bytes.Repeat([]byte{0x71}, 50))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	return r, db, t2
}

// wantNeighbourLine checks bytes [64,128) of img: T1's committed range
// around T2's untouched before-image.
func wantNeighbourLine(t *testing.T, who string, img []byte) {
	t.Helper()
	want := bytes.Repeat([]byte{0x11}, 64)
	copy(want[6:56], bytes.Repeat([]byte{0x71}, 50))
	if !bytes.Equal(img[64:128], want) {
		t.Errorf("%s holds % x in [64,128), want % x", who, img[64:128], want)
	}
}

func TestCommitPushShipsOnlyClaimedBytesNeighbourAborts(t *testing.T) {
	r, db, t2 := neighbourRig(t)
	// T1's push stopped at its own bytes: no mirror saw T2's scribble.
	for _, srv := range r.servers {
		seg, err := srv.Connect("perseas.db.db")
		if err != nil {
			t.Fatal(err)
		}
		wantNeighbourLine(t, "mirror "+srv.Label(), seg.Data)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	wantNeighbourLine(t, "local image", db.Bytes())
	if mm, err := r.net.VerifyAll(); err != nil || len(mm) != 0 {
		t.Fatalf("VerifyAll after the neighbour aborted: %v %v", mm, err)
	}
}

func TestCommitPushShipsOnlyClaimedBytesNeighbourCrashes(t *testing.T) {
	r, _, _ := neighbourRig(t)
	r.crashAndRecover(t)
	re, err := r.lib.OpenDB("db")
	if err != nil {
		t.Fatal(err)
	}
	wantNeighbourLine(t, "recovered image", re.Bytes())
	for _, srv := range r.servers {
		seg, err := srv.Connect("perseas.db.db")
		if err != nil {
			t.Fatal(err)
		}
		wantNeighbourLine(t, "mirror "+srv.Label(), seg.Data)
		if !bytes.Equal(seg.Data, re.Bytes()) {
			t.Errorf("mirror %s differs from the recovered image", srv.Label())
		}
	}
}

// TestSetRangeClaimsWireSpan: a lone writer holds the whole widened
// span, so a later neighbour inside it conflicts instead of racing the
// commit push; ranges below the alignment threshold are never widened.
func TestSetRangeClaimsWireSpan(t *testing.T) {
	r := newRig(t, 1)
	db := r.mustCreate(t, "db", 256, 0)

	t1, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.SetRange(db, 70, 50); err != nil {
		t.Fatal(err)
	}
	if got := t1.ranges[0]; got.offset != 64 || got.length != 64 {
		t.Errorf("lone writer claimed [%d,+%d), want the wire span [64,+64)", got.offset, got.length)
	}
	t2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.SetRange(db, 120, 8); !errors.Is(err, engine.ErrConflict) {
		t.Errorf("range inside a neighbour's wire span: %v, want ErrConflict", err)
	}
	// 8 bytes travel as 8 bytes: the claim is the range.
	if err := t2.SetRange(db, 200, 8); err != nil {
		t.Fatal(err)
	}
	if got := t2.ranges[0]; got.offset != 200 || got.length != 8 {
		t.Errorf("small range claimed [%d,+%d), want [200,+8)", got.offset, got.length)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictTableClaim(t *testing.T) {
	for _, tc := range []struct {
		name           string
		held           []rangeClaim
		off, n, lo, hi uint64
		wantLo, wantHi uint64
		conflict       bool
	}{
		{name: "free line", off: 70, n: 50, lo: 64, hi: 128, wantLo: 64, wantHi: 128},
		{name: "neighbour in the tail widening", held: []rangeClaim{{120, 128, 9}},
			off: 70, n: 50, lo: 64, hi: 128, wantLo: 70, wantHi: 120},
		{name: "neighbour in the head widening", held: []rangeClaim{{64, 70, 9}},
			off: 70, n: 50, lo: 64, hi: 128, wantLo: 70, wantHi: 120},
		{name: "own claim in the widening", held: []rangeClaim{{120, 128, 1}},
			off: 70, n: 50, lo: 64, hi: 128, wantLo: 64, wantHi: 128},
		{name: "neighbour widening first, overlap second", held: []rangeClaim{{120, 128, 9}, {100, 110, 8}},
			off: 70, n: 50, lo: 64, hi: 128, conflict: true},
		{name: "overlap", held: []rangeClaim{{100, 110, 9}},
			off: 70, n: 50, lo: 64, hi: 128, conflict: true},
	} {
		c := newConflictTable()
		c.byDB[1] = append(c.byDB[1], tc.held...)
		lo, hi, err := c.claim(1, tc.off, tc.n, tc.lo, tc.hi, 1)
		if tc.conflict {
			if !errors.Is(err, engine.ErrConflict) {
				t.Errorf("%s: err = %v, want ErrConflict", tc.name, err)
			}
			if len(c.byDB[1]) != len(tc.held) {
				t.Errorf("%s: a refused claim was recorded", tc.name)
			}
			continue
		}
		if err != nil || lo != tc.wantLo || hi != tc.wantHi {
			t.Errorf("%s: claimed [%d,%d) err %v, want [%d,%d)", tc.name, lo, hi, err, tc.wantLo, tc.wantHi)
		}
	}
}
