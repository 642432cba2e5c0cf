package main

import (
	"strings"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/core"
)

// The checks must be able to fail. Each test runs a real (short)
// workload, breaks exactly one thing between the timed work and the
// checks, and expects the run to be rejected for that reason.

func shortPhase(before func(r *rig, w txWorkload)) phaseSpec {
	return phaseSpec{
		seed: 21, setups: 1, warmup: 20 * time.Millisecond, window: 150 * time.Millisecond,
		recoverMin: 1, beforeCheck: before,
	}
}

func wantFailure(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("the run passed its checks; want a failure mentioning %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("the run failed with %q; want a failure mentioning %q", err, substr)
	}
}

func TestChecksPassUntouched(t *testing.T) {
	for name, mk := range map[string]func() txWorkload{
		"lib-debitcredit":    func() txWorkload { return newDebitCredit(1, false) },
		"remote-debitcredit": func() txWorkload { return newDebitCredit(2, true) },
		"remote-bulk":        func() txWorkload { return newBulk(4 << 20) },
	} {
		p, err := runTxPhase(mk, shortPhase(nil))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.commits == 0 || p.failed != 0 || len(p.recoverNS) != 1 {
			t.Errorf("%s: %d commits, %d failures, %d attaches", name, p.commits, p.failed, len(p.recoverNS))
		}
	}
}

// flipMirrorByte flips one byte of the named database's segment on
// mirror 0, reaching it the way no client can: memserver.Server.Get.
func flipMirrorByte(t *testing.T, r *rig, dbName string, off uint64) {
	t.Helper()
	db, err := r.lib.OpenDB(dbName)
	if err != nil {
		t.Fatal(err)
	}
	id := db.(*core.Database).Region().Handle(0).ID
	seg, err := r.mirrors[0].srv.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	seg.Data[off] ^= 0x01
}

func TestFlippedMirrorByteFailsTheRun(t *testing.T) {
	l := newBankLayout(1)
	_, err := runTxPhase(func() txWorkload { return newDebitCredit(1, false) },
		shortPhase(func(r *rig, _ txWorkload) { flipMirrorByte(t, r, bankDBName, l.accountOff(17)+3) }))
	wantFailure(t, err, "VerifyAll")

	_, err = runTxPhase(func() txWorkload { return newBulk(4 << 20) },
		shortPhase(func(r *rig, _ txWorkload) { flipMirrorByte(t, r, bulkDBName, 3<<20) }))
	wantFailure(t, err, "VerifyAll")
}

func TestDroppedLedgerDeltaFailsTheRun(t *testing.T) {
	_, err := runTxPhase(func() txWorkload { return newDebitCredit(2, true) },
		shortPhase(func(_ *rig, w txWorkload) {
			// Forget the last delta client 1 committed against its account.
			dc := w.(*debitCredit)
			c := &dc.cs[1]
			in := c.stream[(c.seq-1)%uint64(len(c.stream))]
			dc.accounts[in.Account] -= in.Delta
		}))
	wantFailure(t, err, "ledger says")
}

func TestLostHistoryRowFailsTheRun(t *testing.T) {
	_, err := runTxPhase(func() txWorkload { return newDebitCredit(1, false) },
		shortPhase(func(r *rig, w txWorkload) {
			// Corrupt the serving engine's copy of the last history row.
			dc := w.(*debitCredit)
			db, err := r.lib.OpenDB(bankDBName)
			if err != nil {
				t.Fatal(err)
			}
			slot := (dc.cs[0].seq - 1) % uint64(dc.layout.HistoryPerClient)
			db.Bytes()[dc.layout.historyOff(0, slot)+40] ^= 0x80
		}))
	wantFailure(t, err, "history slot")
}

func TestWrongBulkByteFailsTheRun(t *testing.T) {
	_, err := runTxPhase(func() txWorkload { return newBulk(4 << 20) },
		shortPhase(func(r *rig, _ txWorkload) {
			db, err := r.lib.OpenDB(bulkDBName)
			if err != nil {
				t.Fatal(err)
			}
			db.Bytes()[1<<20+1] ^= 0x01
		}))
	wantFailure(t, err, "differs from the expected image")
}

func TestUnrolledBackRangeFailsTheRun(t *testing.T) {
	spec := recoverSpec{seed: 31, dbSize: 4 << 20, minReps: 1}
	if _, err := runRecoverPhase(spec); err != nil {
		t.Fatalf("untouched recovery run: %v", err)
	}
	spec.beforeCheck = func(r *rig, in recoverInputs) {
		// Put one in-flight range's scribble back, as a recovery that
		// skipped its rollback would have left it.
		db, err := r.lib.OpenDB(recoverDBName)
		if err != nil {
			t.Fatal(err)
		}
		w := in.InFlight[3][0]
		copy(db.Bytes()[w.Off:], w.Data)
	}
	_, err := runRecoverPhase(spec)
	wantFailure(t, err, "differs from the expected image")

	// A recovered mirror that disagrees with the recovered local copy is
	// caught by the mirror audit of the same repetition.
	spec.beforeCheck = func(r *rig, _ recoverInputs) { flipMirrorByte(t, r, recoverDBName, 1<<20) }
	_, err = runRecoverPhase(spec)
	wantFailure(t, err, "VerifyAll")
}
