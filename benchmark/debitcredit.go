package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/ics-forth/perseas/internal/engine"
)

const bankDBName = "bank"

// dcClient is one debit-credit client: its engine (the library itself
// or a txclient), its database handle and its generated stream.
type dcClient struct {
	eng    engine.Engine
	db     engine.DB
	stream []dcInput
	// seq counts this client's committed transactions, warm-up
	// included; the next transaction is stream[seq % len(stream)] and
	// its history row goes to slot seq % HistoryPerClient.
	seq uint64
}

// debitCredit is the TPC-B shaped workload: Begin, credit an account, a
// teller and a branch balance (8 bytes each, read-modify-write in
// place), write a 50-byte history row, Commit.
type debitCredit struct {
	layout   bankLayout
	viaFront bool
	cs       []dcClient

	// The generator's ledger: what every balance must read once the
	// committed transactions are applied. Clients own disjoint branches,
	// so each element has one writer.
	accounts, tellers, branches []int64
}

func newDebitCredit(clients int, viaFront bool) *debitCredit {
	l := newBankLayout(clients)
	return &debitCredit{
		layout: l, viaFront: viaFront, cs: make([]dcClient, clients),
		accounts: make([]int64, l.Accounts), tellers: make([]int64, l.Tellers), branches: make([]int64, l.Branches),
	}
}

func (w *debitCredit) clients() int    { return len(w.cs) }
func (w *debitCredit) remote() bool    { return w.viaFront }
func (w *debitCredit) callsPerTx() int { return 6 }

func (w *debitCredit) generate(seed uint64) {
	for i := range w.cs {
		w.cs[i].stream = genDebitCredit(seed, w.layout, i, dcStreamLen)
	}
}

func (w *debitCredit) load(r *rig) error {
	for i := range w.cs {
		c := &w.cs[i]
		c.eng = r.lib
		if w.viaFront {
			c.eng = r.front.clients[i]
		}
		var err error
		if i == 0 {
			// Balances start at zero, so the ledger is the sum of deltas.
			if c.db, err = c.eng.CreateDB(bankDBName, w.layout.size()); err != nil {
				return err
			}
			if err = c.eng.InitDB(c.db); err != nil {
				return err
			}
			continue
		}
		if c.db, err = c.eng.OpenDB(bankDBName); err != nil {
			return err
		}
	}
	return nil
}

// credit declares one balance and adds delta to it in place.
func credit(tx engine.Tx, db engine.DB, off uint64, delta int64, tr *callTracer) error {
	s := tr.now()
	err := tx.SetRange(db, off, balanceSize)
	tr.span(kCallSetRange, s, balanceSize)
	if err != nil {
		return err
	}
	b := db.Bytes()[off : off+balanceSize]
	binary.LittleEndian.PutUint64(b, uint64(int64(binary.LittleEndian.Uint64(b))+delta))
	return nil
}

func (w *debitCredit) step(i int, tr *callTracer) error {
	c := &w.cs[i]
	in := c.stream[c.seq%uint64(len(c.stream))]
	l := w.layout

	s := tr.now()
	tx, err := c.eng.Begin()
	tr.span(kCallBegin, s, 0)
	if err != nil {
		return err
	}
	hoff := l.historyOff(i, c.seq%uint64(l.HistoryPerClient))
	err = credit(tx, c.db, l.accountOff(in.Account), in.Delta, tr)
	if err == nil {
		err = credit(tx, c.db, l.tellerOff(in.Teller), in.Delta, tr)
	}
	if err == nil {
		err = credit(tx, c.db, l.branchOff(in.Branch), in.Delta, tr)
	}
	if err == nil {
		s = tr.now()
		err = tx.SetRange(c.db, hoff, historyRow)
		tr.span(kCallSetRange, s, historyRow)
	}
	if err != nil {
		_ = tx.Abort() // the SetRange error is the one to report
		return err
	}
	putHistoryRow(c.db.Bytes()[hoff:hoff+historyRow], i, c.seq, in)

	s = tr.now()
	err = tx.Commit()
	tr.span(kCallCommit, s, 0)
	if err != nil {
		return err
	}
	w.accounts[in.Account] += in.Delta
	w.tellers[in.Teller] += in.Delta
	w.branches[in.Branch] += in.Delta
	c.seq++
	return nil
}

func (w *debitCredit) check(r *rig) error {
	db, err := r.lib.OpenDB(bankDBName)
	if err != nil {
		return err
	}
	return w.checkImage(db.Bytes())
}

// checkImage verifies a database image against the ledger: every
// balance equals the sum of the deltas committed against it (hence the
// three tables' totals agree with each other and with the ledger), and
// every history slot a committed transaction wrote holds that
// transaction's row.
func (w *debitCredit) checkImage(img []byte) error {
	l := w.layout
	if uint64(len(img)) != l.size() {
		return fmt.Errorf("debit-credit: database is %d bytes, want %d", len(img), l.size())
	}
	bal := func(off uint64) int64 { return int64(binary.LittleEndian.Uint64(img[off:])) }
	var sumA, sumT, sumB, ledger int64
	for a, want := range w.accounts {
		got := bal(l.accountOff(uint32(a)))
		if got != want {
			return fmt.Errorf("debit-credit: account %d holds %d, ledger says %d", a, got, want)
		}
		sumA += got
		ledger += want
	}
	for t, want := range w.tellers {
		got := bal(l.tellerOff(uint32(t)))
		if got != want {
			return fmt.Errorf("debit-credit: teller %d holds %d, ledger says %d", t, got, want)
		}
		sumT += got
	}
	for b, want := range w.branches {
		got := bal(l.branchOff(uint32(b)))
		if got != want {
			return fmt.Errorf("debit-credit: branch %d holds %d, ledger says %d", b, got, want)
		}
		sumB += got
	}
	if sumA != ledger || sumT != ledger || sumB != ledger {
		return fmt.Errorf("debit-credit: totals disagree: accounts %d, tellers %d, branches %d, ledger %d", sumA, sumT, sumB, ledger)
	}
	var want [historyRow]byte
	for i := range w.cs {
		c := &w.cs[i]
		n := uint64(l.HistoryPerClient)
		first := uint64(0)
		if c.seq > n {
			first = c.seq - n
		}
		for seq := first; seq < c.seq; seq++ {
			putHistoryRow(want[:], i, seq, c.stream[seq%uint64(len(c.stream))])
			off := l.historyOff(i, seq%n)
			if !bytes.Equal(img[off:off+historyRow], want[:]) {
				return fmt.Errorf("debit-credit: history slot %d of client %d does not hold transaction %d", seq%n, i, seq)
			}
		}
	}
	return nil
}

// leaveInFlight abandons two transactions, each holding one account of
// a different client's first branch (or two accounts of the only
// client's), scribbled over.
func (w *debitCredit) leaveInFlight(r *rig) (int, error) {
	db, err := r.lib.OpenDB(bankDBName)
	if err != nil {
		return 0, err
	}
	const n = 2
	for k := 0; k < n; k++ {
		lo, _ := w.layout.branchesOf(k % len(w.cs))
		acct := lo*dcAccountsPer + uint32(k)
		tx, err := r.lib.Begin()
		if err != nil {
			return k, err
		}
		if err := credit(tx, db, w.layout.accountOff(acct), -0x5c41bb1e, nil); err != nil {
			return k, err
		}
	}
	return n, nil
}
