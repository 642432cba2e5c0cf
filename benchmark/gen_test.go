package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	l := newBankLayout(2)
	dc := func(seed uint64, c int) uint64 { return hashDebitCredit(genDebitCredit(seed, l, c, 4096)) }
	if dc(1, 0) != dc(1, 0) {
		t.Error("debit-credit: same seed, different stream")
	}
	if dc(1, 0) == dc(2, 0) {
		t.Error("debit-credit: different seeds, same stream")
	}
	if dc(1, 0) == dc(1, 1) {
		t.Error("debit-credit: two clients share a stream")
	}

	bulk := func(seed uint64) uint64 { return hashBulk(genBulk(seed, bulkDBSize, 1024)) }
	if bulk(1) != bulk(1) {
		t.Error("bulk: same seed, different stream")
	}
	if bulk(1) == bulk(2) {
		t.Error("bulk: different seeds, same stream")
	}

	rec := func(seed uint64, rep int) uint64 {
		return hashRecover(genRecover(seed, rep, 4<<20, recoverCommitted, recoverInFlight))
	}
	if rec(1, 0) != rec(1, 0) {
		t.Error("recover: same seed, different inputs")
	}
	if rec(1, 0) == rec(2, 0) {
		t.Error("recover: different seeds, same inputs")
	}
	if rec(1, 0) == rec(1, 1) {
		t.Error("recover: two repetitions share inputs")
	}

	a, b := make([]byte, 1000), make([]byte, 1000)
	fillPattern(a, 5)
	fillPattern(b, 5)
	if !bytes.Equal(a, b) {
		t.Error("fillPattern: same seed, different bytes")
	}
	fillPattern(b, 6)
	if bytes.Equal(a, b) {
		t.Error("fillPattern: different seeds, same bytes")
	}
}

// byteRange is one range a client may declare.
type byteRange struct{ lo, hi uint64 }

// TestClientPartitionsAreDisjoint proves from the layout alone that no
// byte one client can declare is a byte another can: every range a
// client's stream can name lies inside that client's own branches,
// tellers, accounts or history slots, and those sets do not intersect.
func TestClientPartitionsAreDisjoint(t *testing.T) {
	const clients = 2
	l := newBankLayout(clients)
	owner := make([]int8, l.size())
	for i := range owner {
		owner[i] = -1
	}
	claim := func(c int, r byteRange) {
		if r.hi > l.size() {
			t.Fatalf("client %d: range [%d,%d) outside the %d-byte database", c, r.lo, r.hi, l.size())
		}
		for i := r.lo; i < r.hi; i++ {
			if owner[i] != -1 && owner[i] != int8(c) {
				t.Fatalf("byte %d is declared by client %d and client %d", i, owner[i], c)
			}
			owner[i] = int8(c)
		}
	}
	for c := 0; c < clients; c++ {
		lo, hi := l.branchesOf(c)
		if lo >= hi {
			t.Fatalf("client %d owns no branch", c)
		}
		for s := uint64(0); s < uint64(l.HistoryPerClient); s++ {
			off := l.historyOff(c, s)
			claim(c, byteRange{off, off + historyRow})
		}
		// Every generated input stays inside the client's own branches.
		for _, in := range genDebitCredit(3, l, c, 20000) {
			if in.Branch < lo || in.Branch >= hi {
				t.Fatalf("client %d credits branch %d outside [%d,%d)", c, in.Branch, lo, hi)
			}
			if b := in.Teller / dcTellersPer; b < lo || b >= hi {
				t.Fatalf("client %d credits teller %d of branch %d", c, in.Teller, b)
			}
			if b := in.Account / dcAccountsPer; b < lo || b >= hi {
				t.Fatalf("client %d credits account %d of branch %d", c, in.Account, b)
			}
			for _, off := range []uint64{l.branchOff(in.Branch), l.tellerOff(in.Teller), l.accountOff(in.Account)} {
				claim(c, byteRange{off, off + balanceSize})
			}
		}
	}
	// The tables themselves do not overlap.
	if l.tellerBase() < l.branchOff(uint32(l.Branches)) || l.accountBase() < l.tellerOff(uint32(l.Tellers)) ||
		l.historyBase() < l.accountOff(uint32(l.Accounts)) {
		t.Errorf("tables overlap: tellers at %d, accounts at %d, history at %d", l.tellerBase(), l.accountBase(), l.historyBase())
	}
}

// TestTwoClientsNeverConflict runs the two-client workload for a short
// window and reads the library's own conflict counter.
func TestTwoClientsNeverConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a timed window")
	}
	p, err := runTxPhase(func() txWorkload { return newDebitCredit(2, true) }, phaseSpec{
		seed: 11, setups: 1, warmup: 50 * time.Millisecond, window: 400 * time.Millisecond, recoverMin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.commits == 0 {
		t.Fatal("no transaction committed")
	}
	if p.core.Conflicts != 0 || p.core.Aborted != 0 || p.failed != 0 || p.busyRetries != 0 || p.srv.BusyRejected != 0 {
		t.Errorf("over %d commits: %d conflicts, %d aborts, %d failures, %d busy retries, %d busy rejections; want none",
			p.commits, p.core.Conflicts, p.core.Aborted, p.failed, p.busyRetries, p.srv.BusyRejected)
	}
}

func TestRecoverInFlightRangesAreDisjoint(t *testing.T) {
	in := genRecover(4, 0, 4<<20, recoverCommitted, recoverInFlight)
	if len(in.Committed) != recoverCommitted || len(in.InFlight) != recoverInFlight {
		t.Fatalf("generated %d committed and %d in-flight transactions", len(in.Committed), len(in.InFlight))
	}
	var all []byteRange
	for _, tx := range in.InFlight {
		for _, w := range tx {
			all = append(all, byteRange{w.Off, w.Off + uint64(len(w.Data))})
		}
	}
	for i, a := range all {
		if a.hi > 4<<20 {
			t.Errorf("range [%d,%d) outside the database", a.lo, a.hi)
		}
		for _, b := range all[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("in-flight ranges [%d,%d) and [%d,%d) overlap", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

// hashDebitCredit, hashBulk and hashRecover fingerprint a generated
// stream (FNV-1a over its encoding): same seed, same hash.
func hashDebitCredit(s []dcInput) uint64 {
	h := fnv.New64a()
	var b [20]byte
	for _, in := range s {
		binary.LittleEndian.PutUint32(b[0:], in.Branch)
		binary.LittleEndian.PutUint32(b[4:], in.Teller)
		binary.LittleEndian.PutUint32(b[8:], in.Account)
		binary.LittleEndian.PutUint64(b[12:], uint64(in.Delta))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashBulk(s []bulkInput) uint64 {
	h := fnv.New64a()
	var b [7]byte
	for _, in := range s {
		binary.LittleEndian.PutUint32(b[0:], in.Block)
		binary.LittleEndian.PutUint16(b[4:], in.Phase)
		b[6] = in.Val
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashRecover(in recoverInputs) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, set := range [][][]rangeWrite{in.Committed, in.InFlight} {
		for _, tx := range set {
			for _, w := range tx {
				binary.LittleEndian.PutUint64(b[:], w.Off)
				h.Write(b[:])
				h.Write(w.Data)
			}
		}
	}
	return h.Sum64()
}
