package main

import (
	"bytes"
	"fmt"

	"github.com/ics-forth/perseas/internal/engine"
)

const bulkDBName = "bulk"

// bulk is the large-transaction workload: one client declares one
// 64 KiB range per transaction, touches one byte in every 512 of it and
// commits, cycling block by block over the database. The database
// starts as the seed's byte pattern, so the image check is not a
// comparison of zeroes.
type bulk struct {
	dbSize uint64
	seed   uint64
	eng    engine.Engine
	db     engine.DB
	stream []bulkInput
	seq    uint64
}

func newBulk(dbSize uint64) *bulk { return &bulk{dbSize: dbSize} }

func (w *bulk) clients() int    { return 1 }
func (w *bulk) remote() bool    { return true }
func (w *bulk) callsPerTx() int { return 3 }

func (w *bulk) generate(seed uint64) {
	w.seed = seed
	w.stream = genBulk(seed, w.dbSize, bulkStreamLen)
}

func (w *bulk) load(r *rig) error {
	w.eng = r.front.clients[0]
	var err error
	if w.db, err = w.eng.CreateDB(bulkDBName, w.dbSize); err != nil {
		return err
	}
	fillPattern(w.db.Bytes(), w.seed)
	return w.eng.InitDB(w.db)
}

func (w *bulk) step(_ int, tr *callTracer) error {
	in := w.stream[w.seq%uint64(len(w.stream))]

	s := tr.now()
	tx, err := w.eng.Begin()
	tr.span(kCallBegin, s, 0)
	if err != nil {
		return err
	}
	s = tr.now()
	err = tx.SetRange(w.db, uint64(in.Block)*bulkBlock, bulkBlock)
	tr.span(kCallSetRange, s, bulkBlock)
	if err != nil {
		_ = tx.Abort() // the SetRange error is the one to report
		return err
	}
	in.apply(w.db.Bytes())

	s = tr.now()
	err = tx.Commit()
	tr.span(kCallCommit, s, 0)
	if err != nil {
		return err
	}
	w.seq++
	return nil
}

// expected replays every committed transaction over the seed pattern.
func (w *bulk) expected() []byte {
	img := make([]byte, w.dbSize)
	fillPattern(img, w.seed)
	for s := uint64(0); s < w.seq; s++ {
		w.stream[s%uint64(len(w.stream))].apply(img)
	}
	return img
}

func (w *bulk) check(r *rig) error {
	db, err := r.lib.OpenDB(bulkDBName)
	if err != nil {
		return err
	}
	return w.checkImage(db.Bytes())
}

func (w *bulk) checkImage(img []byte) error {
	want := w.expected()
	if !bytes.Equal(img, want) {
		for i := range want {
			if i >= len(img) || img[i] != want[i] {
				return fmt.Errorf("bulk: database differs from the expected image at byte %d (of %d/%d)", i, len(img), len(want))
			}
		}
		return fmt.Errorf("bulk: database is %d bytes, want %d", len(img), len(want))
	}
	return nil
}

// leaveInFlight abandons one transaction holding the next block in the
// cycle, scribbled over.
func (w *bulk) leaveInFlight(r *rig) (int, error) {
	db, err := r.lib.OpenDB(bulkDBName)
	if err != nil {
		return 0, err
	}
	in := w.stream[w.seq%uint64(len(w.stream))]
	tx, err := r.lib.Begin()
	if err != nil {
		return 0, err
	}
	if err := tx.SetRange(db, uint64(in.Block)*bulkBlock, bulkBlock); err != nil {
		return 0, err
	}
	in.Val ^= 0xff
	in.apply(db.Bytes())
	return 1, nil
}
