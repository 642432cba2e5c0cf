package core

import (
	"encoding/binary"
	"hash/crc32"
)

// Undo-log record layout. A record is written contiguously into the local
// undo log and pushed to the remote undo log in one remote memory copy,
// so recovery can parse the remote log without any additional cursor
// state: it scans from offset zero and stops at the first record whose
// checksum fails or whose transaction id is not newer than the committed
// id published in the metadata region.
//
//	[0:8)   transaction id
//	[8:12)  database id
//	[12:20) offset of the saved range within the database
//	[20:24) length of the saved range
//	[24:28) CRC-32 (Castagnoli) of the 24 header bytes above + data
//	[28:..) before-image bytes
const (
	recordHeaderSize = 28
	// recordAlign keeps record starts 16-byte aligned so small records
	// occupy the fewest SCI packet slots.
	recordAlign = 16
	// undoChunk is the granularity recovery materialises a remote undo
	// log at for the local image: most crashes leave a handful of records
	// per slot, so the scan transfers a chunk or two, never the whole undo
	// region. undoProbe is the granularity for the other mirrors' copies,
	// which are read only to be compared with it.
	undoChunk = 64 << 10
	undoProbe = 4 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// undoRecord is one parsed record.
type undoRecord struct {
	txID   uint64
	dbID   uint32
	offset uint64
	length uint64
	data   []byte
}

// recordSize returns the bytes a record with n data bytes occupies,
// including alignment padding of the NEXT record start.
func recordSize(n uint64) uint64 {
	sz := recordHeaderSize + n
	if rem := sz % recordAlign; rem != 0 {
		sz += recordAlign - rem
	}
	return sz
}

// writeRecord serialises a record at log[cursor:], returning the number
// of bytes the log cursor must advance. The caller guarantees capacity.
func writeRecord(log []byte, cursor uint64, txID uint64, dbID uint32, offset uint64, data []byte) uint64 {
	h := log[cursor:]
	binary.BigEndian.PutUint64(h[0:], txID)
	binary.BigEndian.PutUint32(h[8:], dbID)
	binary.BigEndian.PutUint64(h[12:], offset)
	binary.BigEndian.PutUint32(h[20:], uint32(len(data)))
	crc := crc32.Update(0, crcTable, h[:24])
	crc = crc32.Update(crc, crcTable, data)
	binary.BigEndian.PutUint32(h[24:], crc)
	copy(h[recordHeaderSize:], data)
	return recordSize(uint64(len(data)))
}

// parseRecord reads the record at log[cursor:]. ok is false when the
// bytes there do not form a record with a valid checksum — which is how
// the recovery scan finds the end of the in-flight transaction's records.
func parseRecord(log []byte, cursor uint64) (rec undoRecord, advance uint64, ok bool) {
	if cursor+recordHeaderSize > uint64(len(log)) {
		return undoRecord{}, 0, false
	}
	h := log[cursor:]
	length := uint64(binary.BigEndian.Uint32(h[20:24]))
	if cursor+recordHeaderSize+length > uint64(len(log)) {
		return undoRecord{}, 0, false
	}
	crc := crc32.Update(0, crcTable, h[:24])
	crc = crc32.Update(crc, crcTable, h[recordHeaderSize:recordHeaderSize+length])
	if crc != binary.BigEndian.Uint32(h[24:28]) {
		return undoRecord{}, 0, false
	}
	rec = undoRecord{
		txID:   binary.BigEndian.Uint64(h[0:8]),
		dbID:   binary.BigEndian.Uint32(h[8:12]),
		offset: binary.BigEndian.Uint64(h[12:20]),
		length: length,
		data:   h[recordHeaderSize : recordHeaderSize+length],
	}
	return rec, recordSize(length), true
}

// scanUndoLog returns, in log order, the records of the single
// transaction written at the head of the log, provided it is newer than
// committed.
//
// The scan stops at the first invalid or stale record AND at the first
// record of a different transaction. The second condition is load-
// bearing: every transaction writes its records contiguously from offset
// zero, so beyond the head transaction's tail the log holds remnants of
// OLDER transactions — and when such a remnant belongs to an aborted
// transaction it may be an incomplete suffix of that transaction's
// records, whose before-images can carry uncommitted bytes (a later
// SetRange of the aborted transaction captured data an earlier range of
// the same transaction had already modified). Applying an incomplete
// suffix would write those uncommitted bytes with nothing left to
// restore them. A complete record set is only ever guaranteed for the
// transaction whose records start at offset zero, so that is the only
// one recovery may roll back — which is also the only one that can have
// touched the remote database.
func scanUndoLog(log []byte, committed uint64) []undoRecord {
	recs, _ := scanUndoLogLazy(committed, uint64(len(log)),
		func(uint64) ([]byte, error) { return log, nil })
	return recs
}

// scanUndoLogLazy is scanUndoLog over a partially materialised log
// buffer of size total bytes: before touching the first n bytes it calls
// ensure(n), which the caller implements by fetching the next chunk of
// the remote undo log and returning the buffer holding the materialised
// prefix (the buffer may move between calls as it grows; returned
// records alias the final one, and earlier copies keep their bytes).
// Recovery thus transfers only the log prefix the head transaction
// actually wrote, not the whole undo region.
func scanUndoLogLazy(committed, total uint64, ensure func(uint64) ([]byte, error)) ([]undoRecord, error) {
	var out []undoRecord
	var cursor uint64
	var headTx uint64
	for {
		log, err := ensure(cursor + recordHeaderSize)
		if err != nil {
			return nil, err
		}
		if cursor+recordHeaderSize > total {
			return out, nil
		}
		length := uint64(binary.BigEndian.Uint32(log[cursor+20 : cursor+24]))
		if cursor+recordHeaderSize+length > total {
			return out, nil
		}
		if log, err = ensure(cursor + recordHeaderSize + length); err != nil {
			return nil, err
		}
		rec, advance, ok := parseRecord(log, cursor)
		if !ok || rec.txID <= committed {
			return out, nil
		}
		if headTx == 0 {
			headTx = rec.txID
		} else if rec.txID != headTx {
			// A different transaction's remnant: possibly incomplete,
			// never applied.
			return out, nil
		}
		out = append(out, rec)
		cursor += advance
	}
}
