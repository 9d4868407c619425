package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

// smallOpts keeps pages/segments tiny so tests exercise rotation,
// spanning pages and eviction without megabytes of writes.
func smallOpts(dir string) Options {
	return Options{
		Dir:             dir,
		PoolPages:       16,
		PageSize:        512,
		SegmentBytes:    8 << 10,
		WALSegmentBytes: 8 << 10,
		CompactMinBytes: 1 << 30, // no background compaction unless asked
	}
}

func val(i int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40)
}

func TestStorePutGetDeleteOverwrite(t *testing.T) {
	st, err := Open(smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != n {
		t.Fatalf("len %d, want %d", st.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := st.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Overwrite half, delete a quarter.
	for i := 0; i < n/2; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i+1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/4; i++ {
		if err := st.Delete(fmt.Sprintf("key-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != n-n/4 {
		t.Fatalf("len %d after deletes, want %d", st.Len(), n-n/4)
	}
	for i := 0; i < n; i++ {
		v, ok, err := st.Get(fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < n/4:
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		case i < n/2:
			if !ok || !bytes.Equal(v, val(i+1000)) {
				t.Fatalf("overwritten key %d wrong", i)
			}
		default:
			if !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("key %d wrong", i)
			}
		}
	}
	stats := st.Stats()
	if stats.DeadBytes == 0 {
		t.Fatal("overwrites produced no dead bytes")
	}
	if stats.Entries != n-n/4 {
		t.Fatalf("stats entries %d, want %d", stats.Entries, n-n/4)
	}
}

// TestStoreSurvivesRestart is the core durability property: everything
// acknowledged before a clean close — and everything acknowledged
// before an unclean abandon (no Close, dirty pages lost, WAL intact) —
// is there after reopening.
func TestStoreSurvivesRestart(t *testing.T) {
	for _, clean := range []bool{true, false} {
		t.Run(map[bool]string{true: "clean-close", false: "crash"}[clean], func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(smallOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			const n = 60
			for i := 0; i < n; i++ {
				if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Delete("key-007"); err != nil {
				t.Fatal(err)
			}
			if clean {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Unclean: simply abandon the handles. Page writebacks that
			// never happened are re-derived from the WAL on open.
			st2, err := Open(smallOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if st2.Len() != n-1 {
				t.Fatalf("reopened len %d, want %d", st2.Len(), n-1)
			}
			for i := 0; i < n; i++ {
				v, ok, err := st2.Get(fmt.Sprintf("key-%03d", i))
				if err != nil {
					t.Fatal(err)
				}
				if i == 7 {
					if ok {
						t.Fatal("deleted key resurrected")
					}
					continue
				}
				if !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d lost or wrong after restart", i)
				}
			}
			if !clean {
				// The crash path must have replayed from the WAL.
				if replayed := st2.Stats().WAL.ReplayRecords; replayed == 0 {
					t.Fatal("crash reopen replayed nothing")
				}
			}
		})
	}
}

// TestStoreCheckpointTrimsWAL: after Flush, reopening replays nothing
// (pages carry everything) yet all data is present.
func TestStoreCheckpointTrimsWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if replayed := st2.Stats().WAL.ReplayRecords; replayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", replayed)
	}
	for i := 0; i < 40; i++ {
		if _, ok, err := st2.Get(fmt.Sprintf("key-%03d", i)); !ok || err != nil {
			t.Fatalf("key %d missing after checkpointed reopen", i)
		}
	}
}

// TestStoreFlushAfterSyncedPutsRecovery: sequential Puts across WAL
// rollovers pay exactly one fsync each — a rollover fsyncs the segment
// it closes and opens none, so the rolling Put's Sync has nothing left
// to fsync. A checkpoint after them adds no WAL fsync — its rotation
// closes a segment whose records the Puts' Syncs already made durable,
// and the checkpoint deletes it — and a crash right after still
// recovers every key.
func TestStoreFlushAfterSyncedPutsRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	wal := st.Stats().WAL
	if wal.Rotations == 0 || wal.Fsyncs != n {
		t.Fatalf("%d puts: %d WAL rollovers, %d fsyncs; want a rollover and exactly one fsync per put", n, wal.Rotations, wal.Fsyncs)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().WAL.Fsyncs; got != wal.Fsyncs {
		t.Fatalf("Flush after synced puts added %d WAL fsyncs, want 0", got-wal.Fsyncs)
	}
	crash(st)

	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Len(); got != n {
		t.Fatalf("len %d after crash recovery, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok, err := st.Get(fmt.Sprintf("key-%03d", i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost after flush and crash (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestStoreCrashAfterCheckpointedRestart: writes acknowledged after a
// restart survive a crash even though the checkpoint at the previous
// close dropped every WAL segment. LSNs must continue past META's
// checkpoint_lsn — a log restarted at 1 hands out LSNs that replay
// skips as already checkpointed — and a read-only restart must never
// move checkpoint_lsn backwards.
func TestStoreCrashAfterCheckpointedRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+10; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("key-007"); err != nil {
		t.Fatal(err)
	}
	crash(st)

	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+10; i++ {
		if v, ok, err := st.Get(fmt.Sprintf("key-%03d", i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Errorf("key %d acknowledged after the restart lost in the crash (ok=%v err=%v)", i, ok, err)
		}
	}
	if _, ok, _ := st.Get("key-007"); ok {
		t.Error("key deleted after the restart resurrected by the crash")
	}
	if got := st.Len(); got != n+10-1 {
		t.Errorf("len %d after crash recovery, want %d", got, n+10-1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := checkpointLSNs(t, dir)
	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after := checkpointLSNs(t, dir)
	for i := range before {
		if after[i] < before[i] {
			t.Errorf("shard %d: read-only restart moved checkpoint_lsn back %d → %d", i, before[i], after[i])
		}
	}
}

// TestStoreRecoveryCountsOnlyAppliedRecords: a crash between a
// checkpoint's META swap and its WAL drop leaves a segment whose
// records the checkpoint already holds. The next open skips them, and
// wal.replay_records must not count them as replayed.
func TestStoreRecoveryCountsOnlyAppliedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("key", val(1)); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments after one put: %v (err %v), want one", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left the WAL segment behind (stat err %v)", err)
	}
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats().WAL.ReplayRecords; got != 0 {
		t.Errorf("replay_records %d after reopening over a checkpointed segment, want 0", got)
	}
	if v, ok, err := st.Get("key"); err != nil || !ok || !bytes.Equal(v, val(1)) {
		t.Errorf("checkpointed key lost: ok=%v err=%v", ok, err)
	}
}

// checkpointLSNs reads the store's META checkpoint_lsn (one shard, so
// one entry).
func checkpointLSNs(t *testing.T, dir string) []uint64 {
	t.Helper()
	m, err := readShardMeta(filepath.Join(dir, "META"))
	if err != nil {
		t.Fatal(err)
	}
	return []uint64{m.CheckpointLSN}
}

// TestStoreCleanRestartLeavesDirUnchanged: restarting a store with no
// writes since its last checkpoint does no durable I/O — no fsync, no
// new file, no rewritten manifest — while a restart after a write still
// checkpoints it.
func TestStoreCleanRestartLeavesDirUnchanged(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := snapshotTree(t, dir)

	t.Cleanup(fault.Disable)
	reg := fault.New(1,
		fault.Rule{Point: "store.seg.fsync", Mode: fault.ModeError},
		fault.Rule{Point: "store.wal.fsync", Mode: fault.ModeError})
	fault.Enable(reg)
	for round := 0; round < 3; round++ {
		st, err := Open(smallOpts(dir))
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		for i := 0; i < n; i++ {
			if v, ok, err := st.Get(fmt.Sprintf("key-%03d", i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("round %d: key %d: ok=%v err=%v", round, i, ok, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("round %d: clean close: %v", round, err)
		}
		for _, p := range []string{"store.seg.fsync", "store.wal.fsync"} {
			if h := reg.Hits(p); h != 0 {
				t.Fatalf("round %d: clean restart reached %s %d times", round, p, h)
			}
		}
		if got := snapshotTree(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: clean restart changed the store directory", round)
		}
	}
	fault.Disable()

	// The dirty path still checkpoints: after one Put the close — or a
	// compaction, which checkpoints too, and a clean close — leaves
	// nothing to replay.
	for i, compact := range []bool{false, true} {
		key := fmt.Sprintf("after-%d", i)
		st, err := Open(smallOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, val(n+i)); err != nil {
			t.Fatal(err)
		}
		if compact {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(smallOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().WAL.ReplayRecords; got != 0 {
			t.Fatalf("compact=%v: replayed %d records after the close, want 0", compact, got)
		}
		if v, ok, err := st.Get(key); err != nil || !ok || !bytes.Equal(v, val(n+i)) {
			t.Fatalf("compact=%v: write before the close lost: ok=%v err=%v", compact, ok, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotTree maps every path under root to its contents (directories
// to a marker), so two snapshots compare paths, sizes and bytes.
func snapshotTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardTornWriteRecovery runs the truncation harness end to end at
// the shard level: commit K entries, truncate the WAL at every byte
// offset of the last record, and require the reopened shard to hold
// exactly the K-1 committed entries.
func TestShardTornWriteRecovery(t *testing.T) {
	const committed = 6
	master := t.TempDir()
	opt := smallOpts("")
	sh, err := OpenShard(master, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		if err := sh.Put(fmt.Sprintf("key-%d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: pages stay dirty in memory, the WAL is the
	// only durable copy — exactly the crash shape the harness wants.
	walDir := filepath.Join(master, "wal")
	seqs, err := walSegments(walDir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("wal segments: %v %v", seqs, err)
	}
	active := seqs[len(seqs)-1]
	full, err := os.ReadFile(walPath(walDir, active))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := walHeaderSize
	for off := walHeaderSize; off < len(full); {
		_, n, derr := DecodeRecord(full[off:])
		if derr != nil {
			t.Fatalf("walk: %v", derr)
		}
		lastStart = off
		off += n
	}
	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		copyTree(t, master, dir)
		if err := os.WriteFile(walPath(filepath.Join(dir, "wal"), active), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sh2, err := OpenShard(dir, opt)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if sh2.Len() != committed-1 {
			t.Fatalf("cut %d: %d entries, want %d", cut, sh2.Len(), committed-1)
		}
		for i := 0; i < committed-1; i++ {
			v, ok, err := sh2.Get(fmt.Sprintf("key-%d", i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("cut %d: entry %d lost (ok=%v err=%v)", cut, i, ok, err)
			}
		}
		if _, ok, _ := sh2.Get(fmt.Sprintf("key-%d", committed-1)); ok {
			t.Fatalf("cut %d: torn entry visible", cut)
		}
		if err := sh2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardJumboValues stores entries far larger than a page and gets
// them back, across a restart.
func TestShardJumboValues(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts("")
	sh, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("jumbo!"), 3000) // ~18 KiB on 512 B pages
	if err := sh.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if err := sh.Put("small-after", val(1)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Put("big", append(big, 'x')); err != nil { // jumbo overwrite
		t.Fatal(err)
	}
	v, ok, err := sh.Get("big")
	if err != nil || !ok || !bytes.Equal(v, append(big, 'x')) {
		t.Fatalf("jumbo get: ok=%v err=%v len=%d", ok, err, len(v))
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	sh2, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	v, ok, err = sh2.Get("big")
	if err != nil || !ok || !bytes.Equal(v, append(big, 'x')) {
		t.Fatalf("jumbo get after restart: ok=%v err=%v", ok, err)
	}
	if v, ok, _ := sh2.Get("small-after"); !ok || !bytes.Equal(v, val(1)) {
		t.Fatal("small entry next to jumbo lost")
	}
}

// TestShardEvictionWriteback forces the pool far over capacity and
// checks reads come back through disk.
func TestShardEvictionWriteback(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts("")
	opt.PoolPages = 4
	sh, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := sh.Put(fmt.Sprintf("key-%04d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := sh.Get(fmt.Sprintf("key-%04d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d through tiny pool: ok=%v err=%v", i, ok, err)
		}
	}
	ps := sh.Stats().Pool
	if ps.Evictions == 0 || ps.Writebacks == 0 || ps.Misses == 0 {
		t.Fatalf("tiny pool saw no churn: %+v", ps)
	}
	if ps.Pages > 2*ps.Capacity {
		t.Fatalf("pool grew unbounded: %+v", ps)
	}
}

// TestShardCompaction reclaims overwritten space and survives a
// restart afterwards.
func TestShardCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts("")
	sh, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i++ {
			if err := sh.Put(fmt.Sprintf("key-%03d", i), val(1000*round+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sh.Delete("key-000"); err != nil {
		t.Fatal(err)
	}
	before := sh.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("no dead bytes before compaction")
	}
	if err := sh.Compact(); err != nil {
		t.Fatal(err)
	}
	after := sh.Stats()
	if after.DeadBytes != 0 {
		t.Fatalf("dead bytes %d after compaction", after.DeadBytes)
	}
	if after.Compactions != 1 || after.ReclaimedBytes == 0 {
		t.Fatalf("compaction not recorded: %+v", after)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction grew disk: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	check := func(sh *Shard, label string) {
		t.Helper()
		if sh.Len() != n-1 {
			t.Fatalf("%s: len %d, want %d", label, sh.Len(), n-1)
		}
		for i := 1; i < n; i++ {
			v, ok, err := sh.Get(fmt.Sprintf("key-%03d", i))
			if err != nil || !ok || !bytes.Equal(v, val(4000+i)) {
				t.Fatalf("%s: key %d wrong after compaction (ok=%v err=%v)", label, i, ok, err)
			}
		}
	}
	check(sh, "live")
	// Writes continue fine after compaction.
	if err := sh.Put("post-compact", val(7)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	sh2, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if v, ok, _ := sh2.Get("post-compact"); !ok || !bytes.Equal(v, val(7)) {
		t.Fatal("post-compaction write lost")
	}
	if err := sh2.Delete("post-compact"); err != nil {
		t.Fatal(err)
	}
	check(sh2, "reopened")
}

// TestShardBackgroundCompaction: crossing the dead-fraction threshold
// kicks compaction without an explicit call.
func TestShardBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts("")
	opt.CompactMinBytes = 4 << 10
	opt.CompactFraction = 0.5
	sh, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			if err := sh.Put(fmt.Sprintf("key-%02d", i), val(round*100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The trigger is async; poll briefly.
	ok := false
	for i := 0; i < 200 && !ok; i++ {
		ok = sh.Stats().Compactions > 0
	}
	if !ok {
		// Force the race to settle: one more put then a direct check.
		if err := sh.Put("kick", val(1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000 && sh.Stats().Compactions == 0; i++ {
		}
	}
	if sh.Stats().Compactions == 0 {
		t.Fatal("background compaction never ran")
	}
}

func TestStoreManifestPinsGeometry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	bad := smallOpts(dir)
	bad.PageSize = 4096
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "page size") {
		t.Fatalf("page-size change silently accepted: %v", err)
	}
}

// TestStoreReopenAdoptsManifest: a store created with a non-default
// page size must reopen with zero-value options — the zero value adopts
// the persisted page size instead of being defaulted into a mismatch
// error.
func TestStoreReopenAdoptsManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key-%02d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with nothing but the directory — the default-flags restart.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("zero-value reopen of a 4096 B page store: %v", err)
	}
	defer st2.Close()
	if st2.Len() != n {
		t.Fatalf("reopened len %d, want %d", st2.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := st2.Get(fmt.Sprintf("key-%02d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d wrong after adopted reopen: ok=%v err=%v", i, ok, err)
		}
	}
	// New writes land on the adopted layout and survive another
	// zero-value reopen.
	if err := st2.Put("post-adopt", val(99)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if v, ok, _ := st3.Get("post-adopt"); !ok || !bytes.Equal(v, val(99)) {
		t.Fatal("write on adopted layout lost")
	}
	// An explicit conflict still refuses loudly.
	if _, err := Open(Options{Dir: dir, PageSize: 8192}); err == nil || !strings.Contains(err.Error(), "page size") {
		t.Fatalf("explicit page-size conflict accepted: %v", err)
	}
}

// TestStoreCrashBeforeFirstCheckpointRecovery: the page size is durable
// from creation. Pool evictions write 512 B pages long before the first
// checkpoint; after a crash, a zero-options reopen must read them as
// 512 B pages rather than 8 KiB ones, and must not re-pin the store to
// the default size for the reopens after it.
func TestStoreCrashBeforeFirstCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; st.Stats().Pool.Writebacks == 0; n++ {
		if n == 1000 {
			t.Fatal("1000 puts on a 16-frame pool wrote back no page")
		}
		if err := st.Put(fmt.Sprintf("key-%04d", n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	crash(st)

	check := func(st *Store, label string) {
		t.Helper()
		if got := st.Len(); got != n {
			t.Fatalf("%s: len %d, want %d", label, got, n)
		}
		for i := 0; i < n; i++ {
			if v, ok, err := st.Get(fmt.Sprintf("key-%04d", i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("%s: key %d lost (ok=%v err=%v)", label, i, ok, err)
			}
		}
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("zero-options reopen after the crash: %v", err)
	}
	check(st, "zero-options reopen")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("512 B reopen after a zero-options one: %v", err)
	}
	defer st.Close()
	check(st, "512 B reopen")
}

// TestStoreRefusesShardedLayout: a directory in the sharded layout of
// an earlier version (a STORE manifest over shard-NNN directories) is
// refused with an error naming it, and Open writes, moves and deletes
// nothing there.
func TestStoreRefusesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"STORE": `{"version":1,"shards":4,"page_size":8192}`,
	}
	for i := 0; i < 4; i++ {
		shard := fmt.Sprintf("shard-%03d", i)
		files[filepath.Join(shard, "META")] = `{"version":1,"epoch":0,"checkpoint_lsn":3,"page_size":8192}`
		files[filepath.Join(shard, "seg-0-00000001.dat")] = strings.Repeat("p", 8192)
		files[filepath.Join(shard, "wal", "wal-0000000000000001.log")] = "TWAL"
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotTree(t, dir)

	st, err := Open(Options{Dir: dir})
	if err == nil {
		st.Close()
		t.Fatal("sharded layout opened")
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "sharded layout of an earlier version") {
		t.Fatalf("refusal %q does not name %s and its sharded layout", msg, dir)
	}
	if after := snapshotTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused Open changed the directory")
	}
}

// TestStorePoolPagesCap: the configured frame cap is what the pool
// gets — never silently re-defaulted to 1024 — floored at 4 frames
// (pin-safety). The case names keep the shard counts of the sharded
// store's table, which split PoolPages over that many pools; each now
// opens one pool, within the max(PoolPages, 4*shards) total the
// sharded store was held to.
func TestStorePoolPagesCap(t *testing.T) {
	for _, tc := range []struct {
		shards, poolPages int
	}{
		{1, 1}, {1, 2}, {2, 2}, {4, 2}, {8, 2}, // cap below the floor
		{1, 4}, {2, 64}, {4, 64},
		{4, 1024}, {8, 1024}, // default-scale
	} {
		t.Run(fmt.Sprintf("shards=%d,pool=%d", tc.shards, tc.poolPages), func(t *testing.T) {
			opt := smallOpts(t.TempDir())
			opt.PoolPages = tc.poolPages
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.Stats().Pool.Capacity, max(tc.poolPages, 4); got != want {
				t.Errorf("PoolPages %d: pool capacity %d, want %d", tc.poolPages, got, want)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStorePeerWarmFill(t *testing.T) {
	primary, err := Open(smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 20; i++ {
		if err := primary.Put(fmt.Sprintf("key-%02d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	opt := smallOpts(t.TempDir())
	opt.Peer = StorePeer{S: primary}
	replica, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	// Miss locally, warm-fill from the peer.
	v, ok, err := replica.Get("key-03")
	if err != nil || !ok || !bytes.Equal(v, val(3)) {
		t.Fatalf("warm fill failed: ok=%v err=%v", ok, err)
	}
	st := replica.Stats()
	if st.PeerFills != 1 {
		t.Fatalf("peer fills %d, want 1", st.PeerFills)
	}
	// Second read is local (the fill was durable).
	if _, ok, _ = replica.GetLocal("key-03"); !ok {
		t.Fatal("warm fill did not persist locally")
	}
	// A key nobody has counts a peer miss.
	if _, ok, _ := replica.Get("nope"); ok {
		t.Fatal("phantom key")
	}
	if st := replica.Stats(); st.PeerMisses != 1 {
		t.Fatalf("peer misses %d, want 1", st.PeerMisses)
	}
}

// TestStoreTornPageIgnored: external corruption of a checkpointed page
// must not brick the store — the scan skips the bad page and the rest
// of the shard stays readable.
func TestStoreTornPageIgnored(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts("")
	sh, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := sh.Put(fmt.Sprintf("key-%02d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle of the first segment file.
	seqs, err := (&Shard{dir: dir, epoch: 0}).segSeqs()
	if err != nil || len(seqs) == 0 {
		t.Fatalf("segments: %v %v", seqs, err)
	}
	path := filepath.Join(dir, segName(0, seqs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sh2, err := OpenShard(dir, opt)
	if err != nil {
		t.Fatalf("open with corrupt page: %v", err)
	}
	defer sh2.Close()
	if sh2.Len() >= 30 {
		t.Fatalf("corruption invisible: %d entries", sh2.Len())
	}
	// Still writable and readable.
	if err := sh2.Put("fresh", val(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sh2.Get("fresh"); !ok || err != nil {
		t.Fatalf("shard unusable after corruption: ok=%v err=%v", ok, err)
	}
}

// TestStoreConcurrentAccess hammers the store from many goroutines so
// the race detector sees Put/Get/Delete/Stats/compaction interleaved.
func TestStoreConcurrentAccess(t *testing.T) {
	opt := smallOpts(t.TempDir())
	opt.CompactMinBytes = 8 << 10 // let background compaction join in
	opt.CompactFraction = 0.4
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const workers, each = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i%20)
				if err := st.Put(key, val(g*1000+i)); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := st.Get(key); err != nil || !ok || len(v) == 0 {
					t.Errorf("get %s: ok=%v err=%v", key, ok, err)
					return
				}
				if i%10 == 9 {
					if err := st.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
				_ = st.Stats()
			}
		}(g)
	}
	wg.Wait()
}
