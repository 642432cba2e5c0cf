package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
)

const recoverDBName = "big"

// recoverSpec says how to run the recover-attach repetitions.
type recoverSpec struct {
	seed    uint64
	rec     *recorder
	dbSize  uint64
	window  time.Duration // keep repeating until this much time has passed
	minReps int
	// beforeCheck, when set, runs between Attach and the checks; the
	// checker tests use it to break something and see the run fail.
	beforeCheck func(r *rig, in recoverInputs)
}

// runRecoverPhase repeats the crash-recovery experiment. One
// repetition: fresh mirrors and library; a database filled with the
// repetition's seeded pattern and published with InitDB; 200 seeded
// transactions committed (each timed — they are this workload's
// transaction metrics); 8 more left in flight after SetRange and an
// in-place scribble; a power failure; a heap collection; then core.Attach
// on a freshly dialled client, timed. Afterwards the recovered database
// must equal pattern + the 200 committed writes, with every in-flight
// range back at its before-image, and (on the first, the last and every
// eighth repetition — the audit moves every region over the wire twice)
// the mirrors must equal the recovered local copies.
func runRecoverPhase(spec recoverSpec) (*phaseResult, error) {
	p := &phaseResult{clients: 1}
	expected := make([]byte, spec.dbSize)
	p.lat = make([]int64, 0, 1<<16)
	if spec.rec != nil {
		spec.rec.all()
	}
	start := nowNS()
	for rep := 0; rep < spec.minReps || nowNS()-start < int64(spec.window); rep++ {
		if err := recoverRep(spec, rep, p, expected); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	if spec.rec != nil {
		p.spans = spec.rec.spans()
		p.dropped = spec.rec.dropped.Load()
	}
	var err error
	if p.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return p, nil
}

// recoverRep runs one repetition, adding what it measured to p.
// expected is scratch the size of the database, reused across
// repetitions.
func recoverRep(spec recoverSpec, rep int, p *phaseResult, expected []byte) error {
	prep := nowNS()
	in := genRecover(spec.seed, rep, spec.dbSize, recoverCommitted, recoverInFlight)
	r, err := newRig(spec.rec)
	if err != nil {
		return err
	}
	defer r.close()
	db, err := r.lib.CreateDB(recoverDBName, spec.dbSize)
	if err != nil {
		return err
	}
	fillPattern(expected, spec.seed+uint64(rep))
	copy(db.Bytes(), expected)
	if err := r.lib.InitDB(db); err != nil {
		return err
	}

	// The committed transactions, through the library in-process.
	var tr *callTracer
	if spec.rec != nil {
		tr = &callTracer{rec: spec.rec, seq: uint64(rep) * recoverCommitted}
	}
	before := snapshot(r)
	phase := nowNS()
	for _, ranges := range in.Committed {
		t0 := nowNS()
		err := writeTx(r.lib, db, ranges, true, tr)
		t1 := nowNS()
		p.attempted++
		if err != nil {
			p.failed++
			return fmt.Errorf("committed transaction: %w", err)
		}
		p.lat = append(p.lat, t1-t0)
		p.commits++
		p.calls += int64(2 + len(ranges))
		if tr != nil {
			spec.rec.add(kTx, 0, t0, t1, tr.seq, 0)
			tr.seq++
		}
		for _, w := range ranges {
			copy(expected[w.Off:], w.Data)
		}
	}
	p.elapsed += float64(nowNS()-phase) / 1e9
	p.delta(before, snapshot(r))

	// The in-flight transactions: declared, scribbled, abandoned.
	for _, ranges := range in.InFlight {
		if err := writeTx(r.lib, db, ranges, false, nil); err != nil {
			return fmt.Errorf("in-flight transaction: %w", err)
		}
	}
	p.rolled = len(in.InFlight)
	p.setupNS = append(p.setupNS, nowNS()-prep)

	p.attempted++
	ns, err := r.crashAndAttach()
	if err != nil {
		p.failed++
		return err
	}
	p.recoverNS = append(p.recoverNS, ns)
	p.xcRecover.add(r.link.transportCounts())

	if spec.beforeCheck != nil {
		spec.beforeCheck(r, in)
	}
	got, err := r.lib.OpenDB(recoverDBName)
	if err != nil {
		return err
	}
	if err := checkRecovered(got.Bytes(), expected); err != nil {
		return err
	}
	if rep == 0 || rep%8 == 7 {
		if err := r.verifyMirrors(); err != nil {
			return err
		}
	}
	return nil
}

// checkRecovered compares the recovered database with the expected
// image: seed pattern + committed writes, in-flight ranges untouched.
func checkRecovered(got, want []byte) error {
	if !bytes.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				return fmt.Errorf("recover: recovered database differs from the expected image at byte %d", i)
			}
		}
		return fmt.Errorf("recover: recovered database is %d bytes, want %d", len(got), len(want))
	}
	return nil
}

// writeTx runs one generated transaction on the library: Begin, declare
// each range and overwrite it in place, and Commit — or, with commit
// false, walk away with the transaction open.
func writeTx(lib *core.Library, db engine.DB, ranges []rangeWrite, commit bool, tr *callTracer) error {
	s := tr.now()
	tx, err := lib.Begin()
	tr.span(kCallBegin, s, 0)
	if err != nil {
		return err
	}
	for _, w := range ranges {
		s = tr.now()
		err := tx.SetRange(db, w.Off, uint64(len(w.Data)))
		tr.span(kCallSetRange, s, len(w.Data))
		if err != nil {
			_ = tx.Abort() // the SetRange error is the one to report
			return err
		}
		copy(db.Bytes()[w.Off:], w.Data)
	}
	if !commit {
		return nil
	}
	s = tr.now()
	err = tx.Commit()
	tr.span(kCallCommit, s, 0)
	return err
}
