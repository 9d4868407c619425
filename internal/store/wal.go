package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
)

// Fault points threaded through the store (see internal/fault): the
// chaos suite iterates fault.Points() to cover every one.
func init() {
	fault.Register(
		"store.wal.write",
		"store.wal.fsync",
		"store.page.writeback",
		"store.seg.fsync",
		"store.compact",
		"store.peer.fetch",
	)
}

// WAL segment file header:
//
//	u32 magic "TWAL" | u32 format version | u64 segment sequence
const (
	walMagic      = 0x4c415754 // "TWAL" little-endian
	walVersion    = 1
	walHeaderSize = 16
)

// WALStats counts write-ahead-log work. Fsyncs < Syncs is the
// group-commit win: concurrent committers piggyback on one fsync.
type WALStats struct {
	// Appends counts records written.
	Appends uint64 `json:"appends"`
	// AppendedBytes counts record bytes written (headers included).
	AppendedBytes uint64 `json:"appended_bytes"`
	// Syncs counts durability requests (one per acknowledged Put).
	Syncs uint64 `json:"syncs"`
	// Fsyncs counts physical fsync calls, a size rollover's and Close's
	// included; the gap to Syncs is the group-commit batching.
	Fsyncs uint64 `json:"fsyncs"`
	// Rotations counts segment rollovers.
	Rotations uint64 `json:"rotations"`
	// Segments is the current on-disk segment-file count.
	Segments int `json:"segments"`
	// ReplayRecords counts the records the last open applied: those
	// past the checkpoint.
	ReplayRecords uint64 `json:"replay_records"`
	// TruncatedBytes counts bytes cut from a torn tail by the last open.
	TruncatedBytes uint64 `json:"truncated_bytes"`
}

// WAL is the store's write-ahead log: an append-only sequence of
// checksummed records across rotating segment files. Appends are
// buffered; Sync makes everything appended so far durable, batching
// concurrent callers behind a single fsync (group commit).
type WAL struct {
	dir    string
	maxSeg int64

	mu        sync.Mutex // guards appends, rotation, stats
	f         *os.File   // active segment; nil after open, Rotate or Close until the next Append
	w         *bufio.Writer
	seq       uint64 // active segment sequence
	size      int64  // active segment size including header
	nextLSN   uint64
	lastLSN   uint64            // last LSN appended or resumed past
	segLast   map[uint64]uint64 // segment seq → last LSN it contains
	stats     WALStats
	appendBuf []byte

	syncMu    sync.Mutex // serializes fsync; waiters form the commit group
	syncedLSN uint64     // guarded by syncMu

	failMu  sync.Mutex
	failErr error // first durability failure; sticky (see failed)
}

// failed returns the sticky durability failure, if any. Once a flush or
// fsync has failed the log never acknowledges durability again: the
// kernel may already have dropped the dirty pages the failed fsync
// covered (the fsyncgate hazard), so a later fsync returning nil proves
// nothing about them. The owning shard wedges into degraded read-only
// mode; recovery is a process restart and WAL replay.
func (w *WAL) failed() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failErr
}

// fail records the first durability failure and returns the sticky
// error all subsequent operations report.
func (w *WAL) fail(err error) error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	if w.failErr == nil {
		w.failErr = fmt.Errorf("store: wal wedged after durability failure: %w", err)
	}
	return w.failErr
}

// faultWriter interposes the WAL's write fault point between the bufio
// buffer and the segment file, so an injected torn write produces a
// genuinely torn record on disk — exactly what a crash mid-write leaves
// — which reopen-time replay must truncate.
type faultWriter struct {
	f *os.File
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	n, ferr := fault.WriteLen("store.wal.write", len(p))
	m, werr := fw.f.Write(p[:n])
	if werr != nil {
		return m, werr
	}
	if ferr != nil {
		return m, ferr
	}
	return m, nil
}

// OpenWAL opens the shard WAL in dir, replaying existing segments in
// order. Every fully-committed record past checkpointLSN is passed to
// apply (in LSN order); records at or below it are already in the
// checkpoint. The first torn record truncates its segment and ends
// replay — by the durability contract everything after it was never
// acknowledged. Appending resumes after the last replayed LSN or the
// checkpoint, whichever is later, in a fresh segment that the first
// Append creates: an open that appends nothing leaves dir untouched.
func OpenWAL(dir string, maxSegmentBytes int64, checkpointLSN uint64, apply func(Record) error) (*WAL, error) {
	if maxSegmentBytes <= walHeaderSize {
		maxSegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:     dir,
		maxSeg:  maxSegmentBytes,
		nextLSN: 1,
		segLast: map[uint64]uint64{},
	}
	seqs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		last, n, err := w.replaySegment(seq, checkpointLSN, apply)
		if err != nil {
			return nil, err
		}
		w.stats.ReplayRecords += n
		if last > 0 {
			w.segLast[seq] = last
			if last > w.lastLSN {
				w.lastLSN = last
			}
		}
		if seq >= w.seq {
			w.seq = seq
		}
	}
	w.stats.Segments = len(seqs)
	// Appends resume past the checkpoint too: it dropped every segment
	// that held it, and a log restarted below it would hand out LSNs
	// that the next replay skips as already checkpointed.
	w.lastLSN = max(w.lastLSN, checkpointLSN)
	w.nextLSN = w.lastLSN + 1
	w.syncedLSN = w.lastLSN
	return w, nil
}

// walSegments lists segment sequences in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

// replaySegment scans one segment, applying and counting committed
// records past checkpointLSN. A torn tail (short record or checksum
// failure) truncates the file at the last good boundary; a
// structurally impossible record is real corruption and fails the
// open.
func (w *WAL) replaySegment(seq, checkpointLSN uint64, apply func(Record) error) (lastLSN, n uint64, err error) {
	path := walPath(w.dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < walHeaderSize {
		// Header itself is torn: the segment holds nothing committed.
		w.stats.TruncatedBytes += uint64(len(data))
		return 0, 0, os.Truncate(path, 0)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], data)
	if le32(hdr[0:]) != walMagic || le32(hdr[4:]) != walVersion {
		return 0, 0, fmt.Errorf("store: %s: bad wal segment header", path)
	}
	off := walHeaderSize
	for off < len(data) {
		rec, consumed, derr := DecodeRecord(data[off:])
		if derr != nil {
			if errors.Is(derr, ErrTornRecord) {
				w.stats.TruncatedBytes += uint64(len(data) - off)
				return lastLSN, n, os.Truncate(path, int64(off))
			}
			return 0, 0, fmt.Errorf("store: %s at offset %d: %w", path, off, derr)
		}
		if rec.LSN > checkpointLSN {
			if apply != nil {
				if aerr := apply(rec); aerr != nil {
					return 0, 0, aerr
				}
			}
			n++
		}
		lastLSN = rec.LSN
		off += consumed
	}
	return lastLSN, n, nil
}

// closeSegmentLocked flushes and closes the active segment, leaving
// none: the next Append starts a fresh one. It fsyncs the segment first
// unless synced says the last Sync already made every record in it
// durable. Callers hold w.mu.
func (w *WAL) closeSegmentLocked(synced bool) error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if !synced {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.stats.Fsyncs++
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f, w.w = nil, nil
	w.stats.Rotations++
	return nil
}

// openSegmentLocked creates the next segment file and makes it active.
// Callers hold w.mu.
func (w *WAL) openSegmentLocked() error {
	w.seq++
	f, err := os.OpenFile(walPath(w.dir, w.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [walHeaderSize]byte
	putLE32(hdr[0:], walMagic)
	putLE32(hdr[4:], walVersion)
	putLE64(hdr[8:], w.seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.w = bufio.NewWriterSize(&faultWriter{f: f}, 1<<16)
	w.size = walHeaderSize
	w.stats.Segments++
	return nil
}

// Append writes one record (buffered, not yet durable) and returns its
// LSN. Call Sync with the returned LSN to make it durable.
func (w *WAL) Append(op byte, key string, value []byte) (uint64, error) {
	if err := w.failed(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	var err error
	w.appendBuf, err = AppendRecord(w.appendBuf[:0], Record{Op: op, LSN: lsn, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	if w.f == nil {
		if err := w.openSegmentLocked(); err != nil {
			return 0, w.fail(err)
		}
	}
	if _, err := w.w.Write(w.appendBuf); err != nil {
		// A failed buffered write leaves an unknown prefix of the record
		// in the segment; nothing after it can ever be trusted durable.
		return 0, w.fail(err)
	}
	w.nextLSN++
	w.lastLSN = lsn
	w.segLast[w.seq] = lsn
	w.size += int64(len(w.appendBuf))
	w.stats.Appends++
	w.stats.AppendedBytes += uint64(len(w.appendBuf))
	if w.size >= w.maxSeg {
		// Roll over: fsync and close the full segment, and leave the next
		// one to the next Append, as after Rotate. The rolling record is
		// then durable, so its own Sync finds no segment and fsyncs none.
		if err := w.closeSegmentLocked(false); err != nil {
			// A failed flush or fsync leaves the segment's durability
			// unknown.
			return 0, w.fail(err)
		}
	}
	return lsn, nil
}

// Sync blocks until every record up to lsn is durable. Concurrent
// callers group-commit: whoever acquires the sync mutex first fsyncs
// everything appended so far, and the queued callers find their LSN
// already covered.
//
// A flush or fsync failure is sticky: every subsequent Sync fails too,
// even for LSNs an earlier call acknowledged. Re-trying the fsync and
// acknowledging on its success would be wrong — the kernel may have
// dropped the dirty pages when the first fsync failed, so the "synced"
// data can be gone while the retry reports success (fsyncgate).
func (w *WAL) Sync(lsn uint64) error {
	w.mu.Lock()
	w.stats.Syncs++
	w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.failed(); err != nil {
		return err
	}
	if w.syncedLSN >= lsn {
		return nil
	}
	w.mu.Lock()
	target := w.lastLSN
	f := w.f
	if f == nil {
		// No active segment: the rotation that closed the last one
		// fsynced it or found it synced, and open counted everything
		// before it as synced.
		w.mu.Unlock()
		w.syncedLSN = target
		return nil
	}
	err := w.w.Flush()
	w.mu.Unlock()
	if err != nil {
		return w.fail(err)
	}
	if err := fault.Do("store.wal.fsync"); err != nil {
		return w.fail(err)
	}
	// A size rollover between the flush above and this fsync closes f —
	// but the rollover fsyncs the outgoing segment first, so the records
	// are already durable and a closed file here means success. (Rotate
	// cannot interleave: it holds syncMu.)
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return w.fail(err)
	}
	w.mu.Lock()
	w.stats.Fsyncs++
	w.mu.Unlock()
	w.syncedLSN = target
	return nil
}

// Rotate closes the active segment (if it holds any records), so a
// following DropBefore can reclaim it once a checkpoint makes its
// records redundant. The next Append starts a fresh segment. A segment
// whose every record the last Sync covered closes without an fsync:
// it adds no durability, and a checkpoint deletes the file right after.
func (w *WAL) Rotate() error {
	w.syncMu.Lock() // syncedLSN is guarded by syncMu
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	last, dirty := w.segLast[w.seq]
	if w.f == nil || !dirty {
		return nil
	}
	return w.closeSegmentLocked(last <= w.syncedLSN)
}

// LastLSN returns the highest LSN appended, or resumed past at open.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// DropBefore deletes inactive segments fully covered by lsn — called
// after a checkpoint makes their records redundant with the pages.
func (w *WAL) DropBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seqs, err := walSegments(w.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq == w.seq && w.f != nil {
			continue // the active segment
		}
		last, known := w.segLast[seq]
		if known && last > lsn {
			continue
		}
		if err := os.Remove(walPath(w.dir, seq)); err != nil {
			return err
		}
		delete(w.segLast, seq)
		w.stats.Segments--
	}
	return nil
}

// Stats snapshots the counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close flushes, fsyncs and closes the active segment, if there is
// one. A wedged log (sticky durability failure) only releases the file
// handle: flushing or fsyncing would risk acknowledging data the kernel
// already dropped, and the failure was reported when it happened.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.failed() != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	if err := w.w.Flush(); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.stats.Fsyncs++
	err := w.f.Close()
	w.f = nil
	return err
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}
