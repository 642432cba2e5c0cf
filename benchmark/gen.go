package main

import (
	"encoding/binary"
	"sort"
)

// The benchmark owns its generators: internal/bench has one too, but a
// later change may edit that, and the ruler must not move with the
// program. The program only ever receives the generated inputs.

// rng is splitmix64: tiny, fast, and its output for a seed never changes
// with the Go release (math/rand's generators have).
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// fillPattern overwrites buf with the seed's byte pattern.
func fillPattern(buf []byte, seed uint64) {
	r := newRNG(seed, 0x70617474)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.next())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(r.next())
	}
}

// ---- debit-credit (TPC-B shape) ----

// Record sizes of the debit-credit database. The three balances are
// 8-byte counters; a history row is 50 bytes in a 64-byte slot, so a
// row's mirror push (netram expands pushes of 32 bytes or more to whole
// 64-byte lines) ships exactly its own slot.
const (
	balanceSize   = 8
	historyRow    = 50
	historySlot   = 64
	dcBranches    = 8
	dcTellersPer  = 10
	dcAccountsPer = 2500
	// dcHistoryPerClient is each client's ring of history slots.
	dcHistoryPerClient = 4096
	// dcStreamLen is the pre-generated transactions per client; a window
	// that outruns it cycles through the stream again (balances are
	// read-modify-write, so a replayed input is still a new transaction).
	dcStreamLen = 1 << 16
)

// bankLayout places the four debit-credit tables in one database, so a
// transaction's four ranges travel to each mirror in one batched
// exchange at commit (core batches per database).
type bankLayout struct {
	Branches, Tellers, Accounts int
	Clients                     int
	HistoryPerClient            int
}

func newBankLayout(clients int) bankLayout {
	return bankLayout{
		Branches: dcBranches, Tellers: dcBranches * dcTellersPer, Accounts: dcBranches * dcAccountsPer,
		Clients: clients, HistoryPerClient: dcHistoryPerClient,
	}
}

func (l bankLayout) branchOff(b uint32) uint64 { return uint64(b) * balanceSize }
func (l bankLayout) tellerBase() uint64        { return roundUp64(uint64(l.Branches) * balanceSize) }
func (l bankLayout) tellerOff(t uint32) uint64 { return l.tellerBase() + uint64(t)*balanceSize }
func (l bankLayout) accountBase() uint64 {
	return l.tellerBase() + roundUp64(uint64(l.Tellers)*balanceSize)
}
func (l bankLayout) accountOff(a uint32) uint64 { return l.accountBase() + uint64(a)*balanceSize }
func (l bankLayout) historyBase() uint64 {
	return l.accountBase() + roundUp64(uint64(l.Accounts)*balanceSize)
}
func (l bankLayout) historyOff(client int, slot uint64) uint64 {
	return l.historyBase() + (uint64(client)*uint64(l.HistoryPerClient)+slot)*historySlot
}
func (l bankLayout) size() uint64 {
	return l.historyBase() + uint64(l.Clients)*uint64(l.HistoryPerClient)*historySlot
}

func roundUp64(n uint64) uint64 { return (n + 63) &^ 63 }

// branchesOf returns the branches client c owns: a contiguous share of
// the branch list. Tellers and accounts belong to their branch's owner
// and history slots are per client, so two clients' transactions never
// declare overlapping ranges and ErrConflict/ErrBusy cannot occur.
func (l bankLayout) branchesOf(c int) (lo, hi uint32) {
	return uint32(c * l.Branches / l.Clients), uint32((c + 1) * l.Branches / l.Clients)
}

// dcInput is one generated debit-credit transaction: which branch,
// teller and account to credit, and by how much.
type dcInput struct {
	Branch, Teller, Account uint32
	Delta                   int64
}

// genDebitCredit generates client c's transaction stream.
func genDebitCredit(seed uint64, l bankLayout, c, n int) []dcInput {
	r := newRNG(seed, uint64(0xdc00+c))
	lo, hi := l.branchesOf(c)
	out := make([]dcInput, n)
	for i := range out {
		b := lo + uint32(r.intn(uint64(hi-lo)))
		// TPC-B: the teller belongs to the branch; the account usually
		// does, and 15% of the time is at another branch — here another
		// branch of the same client, to keep partitions disjoint.
		ab := b
		if hi-lo > 1 && r.intn(100) < 15 {
			ab = lo + uint32(r.intn(uint64(hi-lo)))
		}
		delta := int64(r.intn(1999999)) - 999999
		if delta == 0 {
			delta = 1
		}
		out[i] = dcInput{
			Branch:  b,
			Teller:  b*dcTellersPer + uint32(r.intn(dcTellersPer)),
			Account: ab*dcAccountsPer + uint32(r.intn(dcAccountsPer)),
			Delta:   delta,
		}
	}
	return out
}

// putHistoryRow writes transaction seq's 50-byte history row.
func putHistoryRow(row []byte, client int, seq uint64, in dcInput) {
	_ = row[historyRow-1]
	binary.LittleEndian.PutUint64(row[0:], seq)
	binary.LittleEndian.PutUint32(row[8:], in.Account)
	binary.LittleEndian.PutUint32(row[12:], in.Teller)
	binary.LittleEndian.PutUint32(row[16:], in.Branch)
	binary.LittleEndian.PutUint64(row[20:], uint64(in.Delta))
	binary.LittleEndian.PutUint32(row[28:], uint32(client))
	// 18 bytes of filler derived from the row, so a torn or stale row
	// cannot pass for a whole one.
	f := seq*0x9e3779b97f4a7c15 ^ uint64(in.Delta)
	binary.LittleEndian.PutUint64(row[32:], f)
	binary.LittleEndian.PutUint64(row[40:], ^f)
	row[48], row[49] = byte(f>>7), byte(f>>13)
}

// ---- bulk ----

const (
	bulkDBSize    = 16 << 20
	bulkBlock     = 64 << 10
	bulkStride    = 512 // one byte touched per 512
	bulkStreamLen = 1 << 12
)

// bulkInput is one generated bulk transaction: which 64 KiB block to
// declare, which byte of every 512 to touch, and the value to store.
type bulkInput struct {
	Block uint32
	Phase uint16
	Val   byte
}

// genBulk generates the bulk stream: blocks cycle over the database in
// order, phase and value are seeded.
func genBulk(seed uint64, dbSize uint64, n int) []bulkInput {
	r := newRNG(seed, 0xb01c)
	blocks := uint32(dbSize / bulkBlock)
	out := make([]bulkInput, n)
	for i := range out {
		out[i] = bulkInput{Block: uint32(i) % blocks, Phase: uint16(r.intn(bulkStride)), Val: byte(r.next()) | 1}
	}
	return out
}

// apply performs the transaction's writes on a database image.
func (in bulkInput) apply(img []byte) {
	base := uint64(in.Block) * bulkBlock
	for off := uint64(in.Phase); off < bulkBlock; off += bulkStride {
		img[base+off] = in.Val
	}
}

// ---- recovery ----

const (
	recoverDBSize    = 32 << 20
	recoverCommitted = 200
	recoverInFlight  = 8
)

// rangeWrite is one generated (offset, new bytes) update.
type rangeWrite struct {
	Off  uint64
	Data []byte
}

// genRangeTx generates one transaction of 1–3 non-overlapping writes of
// 16–2048 bytes inside [lo, hi).
func genRangeTx(r *rng, lo, hi uint64) []rangeWrite {
	n := 1 + int(r.intn(3))
	out := make([]rangeWrite, 0, n)
	for len(out) < n {
		length := 16 + r.intn(2033)
		off := lo + r.intn(hi-lo-length)
		clash := false
		for _, w := range out {
			if off < w.Off+uint64(len(w.Data)) && w.Off < off+length {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		data := make([]byte, length)
		for i := range data {
			data[i] = byte(r.next())
		}
		out = append(out, rangeWrite{Off: off, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// recoverInputs is one repetition's generated work: the transactions to
// commit before the crash and the ones to leave in flight. In-flight
// transaction k stays inside the k-th stripe of the database, so the
// in-flight set is mutually disjoint (they are all open at once).
type recoverInputs struct {
	Committed [][]rangeWrite
	InFlight  [][]rangeWrite
}

func genRecover(seed uint64, rep int, dbSize uint64, committed, inFlight int) recoverInputs {
	r := newRNG(seed, uint64(0x4ec0000+rep))
	var in recoverInputs
	for i := 0; i < committed; i++ {
		in.Committed = append(in.Committed, genRangeTx(r, 0, dbSize))
	}
	stripe := dbSize / uint64(inFlight)
	for k := 0; k < inFlight; k++ {
		in.InFlight = append(in.InFlight, genRangeTx(r, uint64(k)*stripe, uint64(k+1)*stripe))
	}
	return in
}
