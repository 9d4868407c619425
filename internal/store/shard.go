package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// ErrWedged reports an operation rejected because the shard is in
// degraded read-only mode after a durability failure (failed WAL fsync
// or page writeback). A wedged shard never acknowledges another durable
// write — re-trying the fsync and acknowledging on success would be
// wrong, since the kernel may have dropped the dirty pages when the
// first one failed — but keeps serving reads. Recovery is a reopen:
// replay trusts only what was acknowledged before the failure.
var ErrWedged = errors.New("store: shard wedged (degraded read-only after durability failure)")

// shardMeta is the atomically-replaced shard manifest: the page size,
// which segment epoch is live and up to which LSN the pages already
// contain every record (so replay can skip the WAL prefix).
type shardMeta struct {
	Version       int    `json:"version"`
	Epoch         uint64 `json:"epoch"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	PageSize      int    `json:"page_size"`
}

const shardMetaVersion = 1

// ShardStats snapshots one shard's counters.
type ShardStats struct {
	// Entries is the live key count.
	Entries int `json:"entries"`
	// LiveBytes is the page footprint of live entries.
	LiveBytes int64 `json:"live_bytes"`
	// DeadBytes is the page footprint of overwritten/deleted entries
	// awaiting compaction.
	DeadBytes int64 `json:"dead_bytes"`
	// DiskBytes is the total size of the shard's segment files.
	DiskBytes int64 `json:"disk_bytes"`
	// Segments is the shard's segment-file count.
	Segments int `json:"segments"`
	// Puts/Gets/Hits/Deletes count operations (Hits ⊆ Gets).
	Puts    uint64 `json:"puts"`
	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Deletes uint64 `json:"deletes"`
	// Compactions counts segment rewrites; ReclaimedBytes sums the dead
	// bytes they dropped.
	Compactions    uint64    `json:"compactions"`
	ReclaimedBytes int64     `json:"reclaimed_bytes"`
	WAL            WALStats  `json:"wal"`
	Pool           PoolStats `json:"pool"`
	// Wedged reports degraded read-only mode after a durability failure
	// (see ErrWedged): Puts fail and /readyz reports the replica unready,
	// while reads keep serving. WedgeReason carries the failure that
	// caused it.
	Wedged      bool   `json:"wedged"`
	WedgeReason string `json:"wedge_reason,omitempty"`
}

// entryRef locates a live entry: page, slot, and its accounting size.
type entryRef struct {
	pid  pageID
	slot uint16
	size uint32
}

// Shard is the store's storage engine in one directory: its WAL,
// segment files, buffer pool and index. Safe for concurrent use.
type Shard struct {
	dir       string
	pageSize  int
	segMax    int64
	walSegMax int64

	mu    sync.RWMutex // index + allocation state; RLock for Get
	wal   *WAL
	pool  *bufferPool
	index map[string]entryRef

	epoch         uint64
	activeSeg     uint32
	nextPageIdx   uint32
	tail          *frame
	tailID        pageID
	checkpointLSN uint64
	liveBytes     int64
	deadBytes     int64

	fmu   sync.Mutex // segment file handles (leaf lock)
	files map[uint32]*os.File

	compactFrac     float64
	compactMinBytes int64
	compacting      atomic.Bool
	closed          atomic.Bool

	wedgeMu  sync.Mutex
	wedgeErr error // sticky; non-nil = degraded read-only (see ErrWedged)

	statMu sync.Mutex
	stats  ShardStats
}

// OpenShard opens (or creates) the shard rooted at dir: reads the
// manifest, removes stray files from interrupted compactions, rebuilds
// the index from the segment pages and replays the WAL tail on top.
// New appends go to a fresh segment and WAL segment, each created when
// first written, with LSNs continuing past the checkpoint. A zero
// opt.PageSize adopts the persisted page size; any other mismatch is
// an error.
func OpenShard(dir string, opt Options) (*Shard, error) {
	adoptPageSize := opt.PageSize <= 0
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Shard{
		dir:             dir,
		pageSize:        opt.PageSize,
		segMax:          opt.SegmentBytes,
		walSegMax:       opt.WALSegmentBytes,
		index:           map[string]entryRef{},
		files:           map[uint32]*os.File{},
		compactFrac:     opt.CompactFraction,
		compactMinBytes: opt.CompactMinBytes,
	}
	meta, err := readShardMeta(filepath.Join(dir, "META"))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// A fresh shard persists its page size before any page exists:
		// pool evictions write pages long before the first checkpoint,
		// and a reopen must read them at the size they were written at.
		err = s.writeMeta(0, 0)
	case err == nil && !adoptPageSize && meta.PageSize != opt.PageSize:
		err = fmt.Errorf("store: %s was created with page size %d, opened with %d", dir, meta.PageSize, opt.PageSize)
	case err == nil:
		s.pageSize, s.epoch, s.checkpointLSN = meta.PageSize, meta.Epoch, meta.CheckpointLSN
	}
	if err != nil {
		return nil, err
	}
	s.pool = newBufferPool((*shardIO)(s), opt.PoolPages)
	if err := s.removeStraySegments(); err != nil {
		return nil, err
	}
	maxSeq, err := s.scanSegments()
	if err != nil {
		return nil, err
	}
	s.activeSeg = maxSeq + 1
	s.nextPageIdx = 0
	wal, err := OpenWAL(filepath.Join(dir, "wal"), s.walSegMax, s.checkpointLSN, func(rec Record) error {
		switch rec.Op {
		case OpPut:
			return s.applyPutLocked(rec.Key, rec.Value)
		case OpDelete:
			return s.applyDeleteLocked(rec.Key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// readShardMeta reads the manifest at path; a missing one returns an
// error matching fs.ErrNotExist.
func readShardMeta(path string) (shardMeta, error) {
	var m shardMeta
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: corrupt META %s: %w", path, err)
	}
	if m.Version != shardMetaVersion || m.PageSize < 512 {
		return m, fmt.Errorf("store: META %s unsupported: version %d, page size %d", path, m.Version, m.PageSize)
	}
	return m, nil
}

// writeMeta atomically replaces the manifest (tmp + rename + dir sync).
func (s *Shard) writeMeta(epoch, checkpointLSN uint64) error {
	m := shardMeta{Version: shardMetaVersion, Epoch: epoch, CheckpointLSN: checkpointLSN, PageSize: s.pageSize}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, "META.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "META")); err != nil {
		return err
	}
	return syncDir(s.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func segName(epoch uint64, seq uint32) string {
	return fmt.Sprintf("seg-%d-%08d.dat", epoch, seq)
}

// parseSegName inverts segName.
func parseSegName(name string) (epoch uint64, seq uint32, ok bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".dat") {
		return 0, 0, false
	}
	parts := strings.SplitN(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".dat"), "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	e, err1 := strconv.ParseUint(parts[0], 10, 64)
	q, err2 := strconv.ParseUint(parts[1], 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return e, uint32(q), true
}

// removeStraySegments deletes segment files from other epochs — the
// leftovers of a compaction interrupted before or after its manifest
// swap.
func (s *Shard) removeStraySegments() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		epoch, _, ok := parseSegName(e.Name())
		if ok && epoch != s.epoch {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// segSeqs lists the current epoch's segment sequences, ascending.
// Callers must hold s.mu (the epoch moves under it during compaction).
func (s *Shard) segSeqs() ([]uint32, error) {
	return segSeqsOf(s.dir, s.epoch)
}

func segSeqsOf(dir string, epoch uint64) ([]uint32, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint32
	for _, e := range ents {
		ep, seq, ok := parseSegName(e.Name())
		if ok && ep == epoch {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanSegments rebuilds the index from the segment pages, in (segment,
// page, slot) order — which is append order, so the last occurrence of
// a key wins. An unreadable page ends that segment's scan (its entries,
// if any were lost to a torn writeback, are still in the WAL tail the
// caller replays next).
func (s *Shard) scanSegments() (maxSeq uint32, err error) {
	seqs, err := s.segSeqs()
	if err != nil {
		return 0, err
	}
	for _, seq := range seqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		data, err := os.ReadFile(filepath.Join(s.dir, segName(s.epoch, seq)))
		if err != nil {
			return 0, err
		}
		off := 0
		for off+pageHeaderSize <= len(data) {
			span, herr := parsePageHeader(data[off:])
			if herr != nil {
				break
			}
			end := off + span*s.pageSize
			if end > len(data) {
				break
			}
			buf := data[off:end]
			if verifyPage(buf) != nil {
				break
			}
			pid := makePageID(seq, uint32(off/s.pageSize))
			nslots := int(readU16(buf[4:]))
			for slot := 0; slot < nslots; slot++ {
				key, val, tomb, perr := pageEntry(buf, slot)
				if perr != nil {
					return 0, fmt.Errorf("store: %s page %d: %w", segName(s.epoch, seq), off/s.pageSize, perr)
				}
				size := uint32(entrySize(len(key), len(val)))
				if tomb {
					s.dropIndexEntry(key)
					s.deadBytes += int64(size)
					continue
				}
				s.dropIndexEntry(key)
				s.index[key] = entryRef{pid: pid, slot: uint16(slot), size: size}
				s.liveBytes += int64(size)
			}
			off = end
		}
	}
	return maxSeq, nil
}

// dropIndexEntry moves key's current entry (if any) to the dead set.
func (s *Shard) dropIndexEntry(key string) {
	if old, ok := s.index[key]; ok {
		delete(s.index, key)
		s.liveBytes -= int64(old.size)
		s.deadBytes += int64(old.size)
	}
}

func readU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

// wedge records the first durability failure, moving the shard into
// sticky degraded read-only mode, and returns the canonical error. The
// WAL's own sticky failure mode backs this up at the log layer.
func (s *Shard) wedge(cause error) error {
	s.wedgeMu.Lock()
	defer s.wedgeMu.Unlock()
	if s.wedgeErr == nil {
		s.wedgeErr = fmt.Errorf("%w: %w", ErrWedged, cause)
	}
	return s.wedgeErr
}

// wedged returns the sticky degraded-mode error, or nil.
func (s *Shard) wedged() error {
	s.wedgeMu.Lock()
	defer s.wedgeMu.Unlock()
	return s.wedgeErr
}

// shardIO adapts the shard's segment files to the buffer pool.
type shardIO Shard

func (sio *shardIO) file(seq uint32) (*os.File, error) {
	s := (*Shard)(sio)
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.files[seq]; ok {
		return f, nil
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.epoch, seq)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s.files[seq] = f
	return f, nil
}

func (sio *shardIO) ReadPage(id pageID) ([]byte, error) {
	s := (*Shard)(sio)
	f, err := sio.file(id.seg())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, s.pageSize)
	if _, err := f.ReadAt(buf, int64(id.idx())*int64(s.pageSize)); err != nil {
		return nil, fmt.Errorf("store: read page %d/%d: %w", id.seg(), id.idx(), err)
	}
	span, err := parsePageHeader(buf)
	if err != nil {
		return nil, err
	}
	if span > 1 {
		full := make([]byte, span*s.pageSize)
		copy(full, buf)
		if _, err := f.ReadAt(full[s.pageSize:], (int64(id.idx())+1)*int64(s.pageSize)); err != nil {
			return nil, fmt.Errorf("store: read page %d/%d span %d: %w", id.seg(), id.idx(), span, err)
		}
		buf = full
	}
	if err := verifyPage(buf); err != nil {
		return nil, fmt.Errorf("store: page %d/%d: %w", id.seg(), id.idx(), err)
	}
	return buf, nil
}

func (sio *shardIO) WritePage(id pageID, buf []byte) error {
	s := (*Shard)(sio)
	f, err := sio.file(id.seg())
	if err != nil {
		return s.wedge(err)
	}
	// Patch the checksum so the durable image always self-verifies.
	putLE32(buf[12:], pageCRC(buf))
	n, ferr := fault.WriteLen("store.page.writeback", len(buf))
	if _, err := f.WriteAt(buf[:n], int64(id.idx())*int64(s.pageSize)); err != nil {
		ferr = err
	}
	if ferr != nil {
		// A failed (or torn) writeback leaves the on-disk page image
		// unknown while the pool may still evict the frame: the shard can
		// no longer promise the pages cover acknowledged data, so it
		// wedges. The page checksum makes a torn image detectable — a
		// reopen scan stops at it and falls back to the WAL tail.
		return s.wedge(fmt.Errorf("write page %d/%d: %w", id.seg(), id.idx(), ferr))
	}
	return nil
}

// allocPageLocked reserves span consecutive page indices, rolling to a
// new segment file when the active one is full.
func (s *Shard) allocPageLocked(span int) pageID {
	if s.nextPageIdx > 0 && (int64(s.nextPageIdx)+int64(span))*int64(s.pageSize) > s.segMax {
		s.activeSeg++
		s.nextPageIdx = 0
	}
	pid := makePageID(s.activeSeg, s.nextPageIdx)
	s.nextPageIdx += uint32(span)
	return pid
}

// sealTailLocked releases the pinned tail page; the next append
// allocates a fresh one. Sealed pages are never appended to again —
// the invariant that makes page order equal append order and lets a
// checkpointed page be immutable on disk forever after.
func (s *Shard) sealTailLocked() {
	if s.tail != nil {
		s.pool.unpin(s.tail, true)
		s.tail = nil
	}
}

// applyPutLocked places an entry into the pages and updates the index.
// Called with s.mu held, both on live puts (after the WAL append) and
// on WAL replay.
func (s *Shard) applyPutLocked(key string, val []byte) error {
	span := pageSpan(s.pageSize, len(key), len(val))
	need := entrySize(len(key), len(val))
	var pid pageID
	var slot int
	if span == 1 && s.tail != nil && s.tail.page.free() >= need {
		slot = s.tail.page.appendEntry(key, val, false)
		s.pool.markDirty(s.tail)
		pid = s.tailID
	} else {
		// A jumbo entry also seals the tail: page allocation order must
		// match append order for the rebuild scan to pick latest-wins.
		s.sealTailLocked()
		pid = s.allocPageLocked(span)
		p := newPage(s.pageSize, span)
		slot = p.appendEntry(key, val, false)
		fr, err := s.pool.install(pid, p, true)
		if err != nil {
			return err
		}
		if span == 1 {
			s.tail, s.tailID = fr, pid
		} else {
			s.pool.unpin(fr, true)
		}
	}
	s.dropIndexEntry(key)
	s.index[key] = entryRef{pid: pid, slot: uint16(slot), size: uint32(need)}
	s.liveBytes += int64(need)
	return nil
}

// applyDeleteLocked appends a tombstone (only if the key is live) and
// removes the index entry.
func (s *Shard) applyDeleteLocked(key string) error {
	if _, ok := s.index[key]; !ok {
		return nil
	}
	need := entrySize(len(key), 0)
	if s.tail == nil || s.tail.page.free() < need {
		s.sealTailLocked()
		pid := s.allocPageLocked(1)
		p := newPage(s.pageSize, 1)
		fr, err := s.pool.install(pid, p, true)
		if err != nil {
			return err
		}
		s.tail, s.tailID = fr, pid
	}
	s.tail.page.appendEntry(key, nil, true)
	s.pool.markDirty(s.tail)
	s.dropIndexEntry(key)
	// The tombstone itself is dead weight from birth.
	s.deadBytes += int64(need)
	return nil
}

// Put durably stores key → val: WAL append, page apply, group-commit
// fsync. When Put returns the entry survives any crash. A wedged shard
// (earlier durability failure) rejects the write immediately: it must
// never acknowledge durability it cannot deliver.
func (s *Shard) Put(key string, val []byte) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	if err := s.wedged(); err != nil {
		return err
	}
	s.mu.Lock()
	lsn, err := s.wal.Append(OpPut, key, val)
	if err == nil {
		err = s.applyPutLocked(key, val)
	}
	s.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrBadRecord) {
			return err // client error, rejected before any write
		}
		return s.wedge(err)
	}
	s.statMu.Lock()
	s.stats.Puts++
	s.statMu.Unlock()
	if err := s.wal.Sync(lsn); err != nil {
		return s.wedge(err)
	}
	s.maybeCompactAsync()
	return nil
}

// Delete durably tombstones key. Like Put, a wedged shard rejects the
// write up front.
func (s *Shard) Delete(key string) error {
	if err := s.wedged(); err != nil {
		return err
	}
	s.mu.Lock()
	_, existed := s.index[key]
	var lsn uint64
	var err error
	if existed {
		lsn, err = s.wal.Append(OpDelete, key, nil)
		if err == nil {
			err = s.applyDeleteLocked(key)
		}
	}
	s.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrBadRecord) {
			return err
		}
		return s.wedge(err)
	}
	s.statMu.Lock()
	s.stats.Deletes++
	s.statMu.Unlock()
	if !existed {
		return nil
	}
	if err := s.wal.Sync(lsn); err != nil {
		return s.wedge(err)
	}
	s.maybeCompactAsync()
	return nil
}

// Get returns the stored value (a fresh copy) and whether it exists.
func (s *Shard) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.statMu.Lock()
	s.stats.Gets++
	s.statMu.Unlock()
	ref, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	f, err := s.pool.fetch(ref.pid)
	if err != nil {
		return nil, false, err
	}
	defer s.pool.unpin(f, false)
	gotKey, val, tomb, err := pageEntry(f.page.buf, int(ref.slot))
	if err != nil {
		return nil, false, err
	}
	if gotKey != key || tomb {
		return nil, false, fmt.Errorf("store: index points at wrong entry for %q", key)
	}
	s.statMu.Lock()
	s.stats.Hits++
	s.statMu.Unlock()
	return val, true, nil
}

// Len returns the live entry count.
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Flush checkpoints: it makes the pages cover every acknowledged
// record — seals the tail, writes back all dirty pages, fsyncs the
// segments, swaps the manifest — and drops the now-redundant WAL
// prefix. A shard with nothing appended since its last checkpoint is
// already covered and writes nothing. A wedged shard refuses: advancing
// the checkpoint LSN past data whose durability is unknown would let a
// later reopen skip WAL records it still needs.
func (s *Shard) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Shard) checkpointLocked() error {
	if err := s.wedged(); err != nil {
		return err
	}
	lsn := s.wal.LastLSN()
	if lsn == s.checkpointLSN {
		// LSNs continue across reopens, so no append since the last
		// checkpoint means no tail page, no dirty frame and no unsynced
		// record.
		return nil
	}
	if err := s.wal.Sync(lsn); err != nil {
		return s.wedge(err)
	}
	s.sealTailLocked()
	if err := s.pool.flush(); err != nil {
		return s.wedge(err)
	}
	if err := s.syncSegments(); err != nil {
		return err // syncSegments already wedged
	}
	if err := s.writeMeta(s.epoch, lsn); err != nil {
		return err
	}
	s.checkpointLSN = lsn
	// Roll the log so the segment holding the now-redundant records is
	// inactive and can be dropped. The Sync above covered every record in
	// it, so the rotation closes it without another fsync.
	if err := s.wal.Rotate(); err != nil {
		return s.wedge(err)
	}
	return s.wal.DropBefore(lsn)
}

func (s *Shard) syncSegments() error {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if err := fault.Do("store.seg.fsync"); err != nil {
		return s.wedge(err)
	}
	for _, f := range s.files {
		if err := f.Sync(); err != nil {
			return s.wedge(err)
		}
	}
	return nil
}

// maybeCompactAsync kicks a background compaction when the dead
// fraction crosses the threshold.
func (s *Shard) maybeCompactAsync() {
	s.mu.RLock()
	dead, live := s.deadBytes, s.liveBytes
	s.mu.RUnlock()
	total := dead + live
	if total < s.compactMinBytes || float64(dead) < s.compactFrac*float64(total) {
		return
	}
	if s.closed.Load() || s.wedged() != nil || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		_ = s.Compact()
	}()
}

// Compact rewrites every live entry into a fresh segment epoch,
// reclaiming dead space, then atomically swaps the manifest. The store
// is write-locked for the duration (stop-the-world), which lasts as
// long as rewriting the live bytes takes. The background trigger keeps
// passes rare: it starts one only once the store holds CompactMinBytes
// and dead bytes exceed CompactFraction of the total, so every pass
// reclaims at least that fraction of the footprint.
func (s *Shard) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	if err := s.wedged(); err != nil {
		return err
	}
	// An injected compaction fault aborts before any rewrite: the old
	// epoch stays authoritative, nothing to clean up.
	if err := fault.Do("store.compact"); err != nil {
		return err
	}
	reclaimable := s.deadBytes
	// Order live entries by their current placement for sequential reads.
	type kv struct {
		key string
		ref entryRef
	}
	live := make([]kv, 0, len(s.index))
	for k, ref := range s.index {
		live = append(live, kv{k, ref})
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].ref.pid != live[j].ref.pid {
			return live[i].ref.pid < live[j].ref.pid
		}
		return live[i].ref.slot < live[j].ref.slot
	})

	newEpoch := s.epoch + 1
	var (
		newIndex  = make(map[string]entryRef, len(live))
		newLive   int64
		seq       uint32 = 1
		cur       *page
		curID     pageID
		out       *os.File
		w         *bufio.Writer
		fileBytes int64
		newFiles  []string
	)
	openSeg := func() error {
		name := segName(newEpoch, seq)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		out, w, fileBytes = f, bufio.NewWriterSize(f, 1<<20), 0
		newFiles = append(newFiles, name)
		return nil
	}
	closeSeg := func() error {
		if out == nil {
			return nil
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := out.Sync(); err != nil {
			return err
		}
		return out.Close()
	}
	flushPage := func() error {
		if cur == nil {
			return nil
		}
		cur.seal()
		if _, err := w.Write(cur.buf); err != nil {
			return err
		}
		fileBytes += int64(len(cur.buf))
		cur = nil
		return nil
	}
	fail := func(err error) error {
		_ = closeSeg()
		for _, name := range newFiles {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
		return err
	}
	if err := openSeg(); err != nil {
		return err
	}
	for _, e := range live {
		fr, err := s.pool.fetch(e.ref.pid)
		if err != nil {
			return fail(err)
		}
		key, val, _, perr := pageEntry(fr.page.buf, int(e.ref.slot))
		s.pool.unpin(fr, false)
		if perr != nil {
			return fail(perr)
		}
		span := pageSpan(s.pageSize, len(key), len(val))
		need := entrySize(len(key), len(val))
		if cur != nil && (span > 1 || cur.free() < need) {
			if err := flushPage(); err != nil {
				return fail(err)
			}
		}
		if cur == nil {
			if fileBytes+int64(span*s.pageSize) > s.segMax && fileBytes > 0 {
				if err := closeSeg(); err != nil {
					return fail(err)
				}
				out = nil
				seq++
				if err := openSeg(); err != nil {
					return fail(err)
				}
			}
			cur = newPage(s.pageSize, span)
			curID = makePageID(seq, uint32(fileBytes/int64(s.pageSize)))
		}
		slot := cur.appendEntry(key, val, false)
		newIndex[key] = entryRef{pid: curID, slot: uint16(slot), size: uint32(need)}
		newLive += int64(need)
		if span > 1 {
			if err := flushPage(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flushPage(); err != nil {
		return fail(err)
	}
	if err := closeSeg(); err != nil {
		return fail(err)
	}
	// Every live entry (checkpointed or not) is now in the new epoch, so
	// the WAL prefix up to the last appended LSN is redundant.
	lsn := s.wal.LastLSN()
	if err := s.wal.Sync(lsn); err != nil {
		// The WAL's durability is now unknown; the abandoned new epoch is
		// cleaned up, but the shard must stop acknowledging writes.
		return fail(s.wedge(err))
	}
	if err := syncDir(s.dir); err != nil {
		return fail(err)
	}
	if err := s.writeMeta(newEpoch, lsn); err != nil {
		return fail(err)
	}
	// Manifest swapped: the new epoch is authoritative. Tear down the
	// old one.
	oldEpoch := s.epoch
	s.epoch = newEpoch
	s.checkpointLSN = lsn
	s.tail = nil
	s.pool.invalidate()
	s.fmu.Lock()
	for seq, f := range s.files {
		f.Close()
		delete(s.files, seq)
	}
	s.fmu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err == nil {
		for _, e := range ents {
			epoch, _, ok := parseSegName(e.Name())
			if ok && epoch == oldEpoch {
				_ = os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	s.index = newIndex
	s.liveBytes = newLive
	s.deadBytes = 0
	s.activeSeg = seq + 1
	s.nextPageIdx = 0
	if err := s.wal.Rotate(); err != nil {
		return s.wedge(err)
	}
	if err := s.wal.DropBefore(lsn); err != nil {
		return err
	}
	s.statMu.Lock()
	s.stats.Compactions++
	s.stats.ReclaimedBytes += reclaimable
	s.statMu.Unlock()
	return nil
}

// Stats snapshots the shard counters.
func (s *Shard) Stats() ShardStats {
	s.statMu.Lock()
	st := s.stats
	s.statMu.Unlock()
	if err := s.wedged(); err != nil {
		st.Wedged = true
		st.WedgeReason = err.Error()
	}
	s.mu.RLock()
	st.Entries = len(s.index)
	st.LiveBytes = s.liveBytes
	st.DeadBytes = s.deadBytes
	epoch := s.epoch
	s.mu.RUnlock()
	st.WAL = s.wal.Stats()
	st.Pool = s.pool.snapshot()
	seqs, err := segSeqsOf(s.dir, epoch)
	if err == nil {
		st.Segments = len(seqs)
		for _, seq := range seqs {
			if fi, err := os.Stat(filepath.Join(s.dir, segName(epoch, seq))); err == nil {
				st.DiskBytes += fi.Size()
			}
		}
	}
	return st
}

// Close checkpoints whatever was appended since the last checkpoint
// and releases every file handle; a shard with nothing new writes and
// fsyncs nothing. The shard must not be used afterwards. A wedged shard
// skips the checkpoint — it must not advance the manifest past data of
// unknown durability — and only releases its handles; the reopen
// replays the WAL back to the last trustworthy state.
func (s *Shard) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cerr error
	if s.wedged() == nil {
		cerr = s.checkpointLocked()
	}
	werr := s.wal.Close()
	s.fmu.Lock()
	for seq, f := range s.files {
		if err := f.Close(); err != nil && cerr == nil {
			cerr = err
		}
		delete(s.files, seq)
	}
	s.fmu.Unlock()
	if cerr != nil {
		return cerr
	}
	return werr
}
