package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCommitAllocsZero pins the allocation-free steady-state commit
// path: once the handle, undo slot and netram scratch buffers are warm,
// a full Begin/SetRange/update/Commit cycle allocates nothing — over
// one mirror (serial push) and over two (parallel fan-out).
func TestCommitAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, nm := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-mirror", nm), func(t *testing.T) {
			r := newRig(t, nm)
			db := r.mustCreate(t, "accounts", 8192, 0)
			buf := db.Bytes()
			cycle := func() {
				tx, err := r.lib.BeginTx()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.SetRange(db, 0, 64); err != nil {
					t.Fatal(err)
				}
				if err := tx.SetRange(db, 4096, 128); err != nil {
					t.Fatal(err)
				}
				buf[0]++
				buf[4096]++
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ { // warm slot, scratch and pools
				cycle()
			}
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("commit cycle allocates %.1f objects per run, want 0", n)
			}
		})
	}
}

// TestStoreGatherCoalescesAdjacentRanges: with WithStoreGather enabled,
// adjacent and overlapping pending ranges of one database travel as a
// single merged wire range, and both commit and abort stay correct.
func TestStoreGatherCoalescesAdjacentRanges(t *testing.T) {
	r := newRig(t, 1, WithStoreGather())
	db := r.mustCreate(t, "accounts", 4096, 0xAA)
	buf := db.Bytes()

	before := r.net.Stats()
	tx, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	// Three declared ranges, but the first two are adjacent and the
	// third overlaps the second — one merged range [0,192) on the wire.
	for _, rg := range [][2]uint64{{0, 64}, {64, 64}, {100, 92}} {
		if err := tx.SetRange(db, rg[0], rg[1]); err != nil {
			t.Fatal(err)
		}
	}
	copy(buf[:192], bytes.Repeat([]byte{0x17}, 192))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit pushed 3 undo records, 1 merged data range and the commit
	// word.
	gotPushes := r.net.Stats().Pushes - before.Pushes
	if want := uint64(3 + 1 + 1); gotPushes != want {
		t.Errorf("pushes = %d, want %d (coalesced commit)", gotPushes, want)
	}
	seg, err := r.servers[0].Connect("perseas.db.accounts")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.servers[0].Read(seg.ID, 0, 192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf[:192]) {
		t.Error("mirror diverged from local after coalesced commit")
	}

	// Abort with adjacent ranges restores the before-image exactly.
	tx2, err := r.lib.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetRange(db, 64, 64); err != nil {
		t.Fatal(err)
	}
	copy(buf[:128], bytes.Repeat([]byte{0x99}, 128))
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:128], bytes.Repeat([]byte{0x17}, 128)) {
		t.Error("abort did not restore the before-image locally")
	}
	got, err = r.servers[0].Read(seg.ID, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf[:128]) {
		t.Error("mirror diverged from local after abort")
	}
}
