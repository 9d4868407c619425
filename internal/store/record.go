// Package store is the durable scenario-result store: a crash-safe,
// page-structured on-disk key/value engine purpose-built for the
// content-addressed result cache (internal/jobs). Keys are the
// byte-stable Scenario.Key content addresses; values are opaque byte
// slices (serialized sim.Metrics).
//
// The layering follows the classic educational-DB split:
//
//	WAL        — length-prefixed, CRC32-checksummed append log with
//	             group-commit fsync batching, segment rotation, and
//	             replay-on-open that truncates at the first torn record.
//	Pages      — append-mostly slotted pages in segment files; an
//	             in-memory hash index (key → page/slot) is rebuilt from
//	             the pages plus the WAL tail on open.
//	Buffer pool— a fixed-capacity LRU page cache with pin/unpin,
//	             dirty-page writeback and hit/miss/eviction counters.
//	Store      — one Shard (WAL + segments + pool) in one directory,
//	             with a PeerFiller hook so a miss can warm-fill from a
//	             peer replica before the caller recomputes.
//
// Durability contract: when Put returns, the entry's WAL record has
// been fsynced; a crash at any byte boundary loses at most the
// unacknowledged tail (replay truncates the torn record and recovers
// every fully-committed entry).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record ops.
const (
	// OpPut stores key → value.
	OpPut = byte(1)
	// OpDelete tombstones key.
	OpDelete = byte(2)
)

// Record is one logical WAL entry.
type Record struct {
	// Op is OpPut or OpDelete.
	Op byte
	// LSN is the shard-local log sequence number (1-based, dense).
	LSN uint64
	// Key is the entry's content address.
	Key string
	// Value is the payload (nil for OpDelete).
	Value []byte
}

// Wire format of one WAL record:
//
//	u32 payload length | u32 CRC32(payload) | payload
//	payload = op u8 | lsn u64 | keyLen u16 | key | value
//
// The length prefix bounds the read, the checksum catches torn or
// bit-rotted tails, and the fixed field order keeps decode allocation
// free except for the key/value copies.
const (
	recHeaderSize    = 8         // length + crc
	recFixedSize     = 1 + 8 + 2 // op + lsn + keyLen
	maxRecordPayload = 1 << 28   // 256 MiB sanity bound on corrupt lengths
	maxKeyLen        = 1<<16 - 1 // keyLen is a u16
	crcPoly          = crc32.Castagnoli
)

var crcTable = crc32.MakeTable(crcPoly)

// Record decode failures. ErrTornRecord means the bytes end mid-record
// or fail the checksum — the crash-recovery signal that tells replay to
// truncate; ErrBadRecord means a structurally impossible record that a
// clean writer could never have produced.
var (
	ErrTornRecord = errors.New("store: torn wal record")
	ErrBadRecord  = errors.New("store: malformed wal record")
)

// AppendRecord appends r's wire encoding to b and returns the extended
// slice.
func AppendRecord(b []byte, r Record) ([]byte, error) {
	if r.Op != OpPut && r.Op != OpDelete {
		return b, fmt.Errorf("%w: unknown op %d", ErrBadRecord, r.Op)
	}
	if len(r.Key) > maxKeyLen {
		return b, fmt.Errorf("%w: key length %d exceeds %d", ErrBadRecord, len(r.Key), maxKeyLen)
	}
	payloadLen := recFixedSize + len(r.Key) + len(r.Value)
	if payloadLen > maxRecordPayload {
		return b, fmt.Errorf("%w: payload %d exceeds %d", ErrBadRecord, payloadLen, maxRecordPayload)
	}
	start := len(b)
	b = append(b, make([]byte, recHeaderSize)...)
	b = append(b, r.Op)
	b = binary.LittleEndian.AppendUint64(b, r.LSN)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Key)))
	b = append(b, r.Key...)
	b = append(b, r.Value...)
	payload := b[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// DecodeRecord parses one record from the front of b. It returns the
// record and the number of bytes consumed. A short or checksum-failing
// buffer returns ErrTornRecord (the caller decides whether that is a
// recoverable tail or corruption); impossible field values return
// ErrBadRecord.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, ErrTornRecord
	}
	payloadLen := int(binary.LittleEndian.Uint32(b))
	if payloadLen < recFixedSize || payloadLen > maxRecordPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrBadRecord, payloadLen)
	}
	if len(b) < recHeaderSize+payloadLen {
		return Record{}, 0, ErrTornRecord
	}
	payload := b[recHeaderSize : recHeaderSize+payloadLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, ErrTornRecord
	}
	op := payload[0]
	if op != OpPut && op != OpDelete {
		return Record{}, 0, fmt.Errorf("%w: unknown op %d", ErrBadRecord, op)
	}
	lsn := binary.LittleEndian.Uint64(payload[1:])
	keyLen := int(binary.LittleEndian.Uint16(payload[9:]))
	if recFixedSize+keyLen > payloadLen {
		return Record{}, 0, fmt.Errorf("%w: key length %d exceeds payload", ErrBadRecord, keyLen)
	}
	key := string(payload[recFixedSize : recFixedSize+keyLen])
	var val []byte
	if rest := payload[recFixedSize+keyLen:]; len(rest) > 0 {
		val = append([]byte(nil), rest...)
	}
	if op == OpDelete && val != nil {
		return Record{}, 0, fmt.Errorf("%w: delete record carries a value", ErrBadRecord)
	}
	return Record{Op: op, LSN: lsn, Key: key, Value: val}, recHeaderSize + payloadLen, nil
}
