package store

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Op: OpPut, LSN: 1, Key: "k", Value: []byte("v")},
		{Op: OpPut, LSN: 1<<63 + 7, Key: "", Value: nil},
		{Op: OpPut, LSN: 42, Key: "k2", Value: bytes.Repeat([]byte{0xAB}, 100_000)},
		{Op: OpDelete, LSN: 3, Key: "gone", Value: nil},
	}
	for i, rec := range cases {
		b, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("case %d: append: %v", i, err)
		}
		got, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(b))
		}
		if got.Op != rec.Op || got.LSN != rec.LSN || got.Key != rec.Key || !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("case %d: round trip mismatch: %+v != %+v", i, got, rec)
		}
	}
}

func TestRecordRejectsBadInputs(t *testing.T) {
	if _, err := AppendRecord(nil, Record{Op: 99, Key: "k"}); err == nil {
		t.Fatal("bad op accepted")
	}
	good, err := AppendRecord(nil, Record{Op: OpPut, LSN: 1, Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := DecodeRecord(bad); err == nil {
		t.Fatal("corrupted record decoded")
	}
	// Every strict prefix is torn, never panics.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeRecord(good[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded", n)
		}
	}
}

// FuzzWALRecord round-trips arbitrary records through the wire
// encoding and checks that arbitrary byte soup never panics the
// decoder.
func FuzzWALRecord(f *testing.F) {
	f.Add(uint8(OpPut), uint64(1), "key", []byte("value"))
	f.Add(uint8(OpDelete), uint64(99), "gone", []byte(nil))
	f.Add(uint8(7), uint64(0), "", []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, op uint8, lsn uint64, key string, value []byte) {
		rec := Record{Op: op, LSN: lsn, Key: key, Value: value}
		if op == OpDelete {
			rec.Value = nil
		}
		b, err := AppendRecord(nil, rec)
		if err != nil {
			if op == OpPut || op == OpDelete {
				if len(key) <= maxKeyLen && recFixedSize+len(key)+len(rec.Value) <= maxRecordPayload {
					t.Fatalf("valid record rejected: %v", err)
				}
			}
			return
		}
		got, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode of freshly encoded record: %v", err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		if got.Op != rec.Op || got.LSN != rec.LSN || got.Key != rec.Key || !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
		}
		// Decoding the raw bytes shifted by one must not panic (error is
		// fine).
		if len(b) > 1 {
			_, _, _ = DecodeRecord(b[1:])
		}
	})
}

func collectWAL(t *testing.T, dir string) (*WAL, []Record) {
	t.Helper()
	var recs []Record
	w, err := OpenWAL(dir, 0, 0, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	return w, recs
}

func TestWALAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	w, recs := collectWAL(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	want := []Record{
		{Op: OpPut, LSN: 1, Key: "a", Value: []byte("1")},
		{Op: OpPut, LSN: 2, Key: "b", Value: []byte("2")},
		{Op: OpDelete, LSN: 3, Key: "a"},
	}
	for _, r := range want {
		lsn, err := w.Append(r.Op, r.Key, r.Value)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != r.LSN {
			t.Fatalf("lsn %d, want %d", lsn, r.LSN)
		}
	}
	if err := w.Sync(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs := collectWAL(t, dir)
	defer w2.Close()
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replayed %+v, want %+v", recs, want)
	}
	// LSNs continue where the log left off.
	lsn, err := w2.Append(OpPut, "c", []byte("3"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-replay lsn %d, want 4", lsn)
	}
}

func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectWAL(t, dir)
	defer w.Close()
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := w.Append(OpPut, fmt.Sprintf("k-%d-%d", g, i), []byte("v"))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Sync(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends %d, want %d", st.Appends, writers*each)
	}
	if st.Syncs != writers*each {
		t.Fatalf("syncs %d, want %d", st.Syncs, writers*each)
	}
	if st.Fsyncs > st.Syncs {
		t.Fatalf("fsyncs %d exceed syncs %d", st.Fsyncs, st.Syncs)
	}
	t.Logf("group commit: %d syncs served by %d fsyncs", st.Syncs, st.Fsyncs)
}

func TestWALRotationAndDrop(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 256, 0, nil) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 50; i++ {
		last, err = w.Append(OpPut, fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 32))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each rollover fsyncs the segment it closes, and Fsyncs counts it.
	if st := w.Stats(); st.Fsyncs != st.Rotations {
		t.Fatalf("%d fsyncs for %d rollovers and no Sync, want one each", st.Fsyncs, st.Rotations)
	}
	if err := w.Sync(last); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations, got %+v", st)
	}
	before, _ := walSegments(dir)
	if err := w.DropBefore(last); err != nil {
		t.Fatal(err)
	}
	// The 50th append rolled over, so no segment is active and every
	// one is covered.
	after, _ := walSegments(dir)
	if len(after) != 0 {
		t.Fatalf("DropBefore left %d segments (from %d), want 0", len(after), len(before))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything still replayable was dropped as redundant; the log is
	// logically empty.
	w2, recs := collectWAL(t, dir)
	defer w2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after full drop", len(recs))
	}
}

// TestWALTornWriteRecovery is the crash-recovery truncation harness:
// commit K records, then simulate a crash mid-append by truncating the
// log at EVERY byte offset of the last record. Replay must recover
// exactly the K-1 fully-committed records, truncate the torn tail, and
// leave the log appendable.
func TestWALTornWriteRecovery(t *testing.T) {
	const committed = 5
	master := t.TempDir()
	w, _ := collectWAL(t, master)
	var want []Record
	for i := 0; i < committed; i++ {
		r := Record{Op: OpPut, LSN: uint64(i + 1), Key: fmt.Sprintf("key-%d", i), Value: bytes.Repeat([]byte{byte(i + 1)}, 20+i*7)}
		if _, err := w.Append(r.Op, r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := w.Sync(uint64(committed)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := walSegments(master)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("want 1 wal segment, got %v (%v)", seqs, err)
	}
	segPath := walPath(master, seqs[0])
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record's start offset by walking the log.
	lastStart := walHeaderSize
	off := walHeaderSize
	for off < len(full) {
		_, n, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		lastStart = off
		off += n
	}
	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, seqs[0]), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		w2, err := OpenWAL(dir, 0, 0, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if !reflect.DeepEqual(recs, want[:committed-1]) {
			t.Fatalf("cut %d: recovered %d records, want the %d committed", cut, len(recs), committed-1)
		}
		// The torn tail was physically truncated.
		if fi, err := os.Stat(walPath(dir, seqs[0])); err != nil || fi.Size() != int64(lastStart) {
			t.Fatalf("cut %d: file not truncated to %d: %v %v", cut, lastStart, fi.Size(), err)
		}
		// The log stays appendable after recovery.
		if _, err := w2.Append(OpPut, "post-recovery", []byte("x")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: the untouched log replays all K records.
	w3, recs := collectWAL(t, master)
	defer w3.Close()
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("full log replayed %d records, want %d", len(recs), committed)
	}
}
