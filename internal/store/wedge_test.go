package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
)

// TestShardWedgeAfterFsyncFailureRecovery is the fsyncgate property: a
// failed WAL fsync permanently wedges the shard into degraded read-only
// mode — a later fsync "success" proves nothing about the pages the
// kernel already dropped, so durability is never re-acknowledged — while
// reads keep serving and a fault-free reopen recovers every write that
// was acknowledged before the failure.
func TestShardWedgeAfterFsyncFailureRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	const acked = 20
	for i := 0; i < acked; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Healthy() {
		t.Fatal("healthy store reports unhealthy")
	}

	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{Point: "store.wal.fsync", Mode: fault.ModeError, Times: 1}))
	err = st.Put("victim", val(999))
	if err == nil {
		t.Fatal("Put with failing fsync was acknowledged")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("victim Put error %v does not wrap the injected fault", err)
	}

	// Sticky: the injected rule is exhausted (Times:1) and even fully
	// disabling injection must not bring writes back — the shard must
	// never re-acknowledge durability after a failed fsync.
	fault.Disable()
	for i := 0; i < 3; i++ {
		if err := st.Put("after-wedge", val(i)); !errors.Is(err, ErrWedged) {
			t.Fatalf("Put after wedge = %v, want ErrWedged", err)
		}
	}
	if err := st.Delete("key-000"); !errors.Is(err, ErrWedged) {
		t.Fatalf("Delete after wedge = %v, want ErrWedged", err)
	}

	// Degraded read-only: every previously acknowledged key still serves.
	for i := 0; i < acked; i++ {
		v, ok, err := st.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("wedged read %d: ok=%v err=%v", i, ok, err)
		}
	}

	// The wedge is visible on the stats surface.
	if st.Healthy() {
		t.Fatal("wedged store reports healthy")
	}
	stats := st.Stats()
	if !stats.Wedged {
		t.Fatal("stats do not report Wedged")
	}
	if stats.WedgeReason == "" {
		t.Fatal("wedged store has empty WedgeReason")
	}

	// Close must not attempt a checkpoint (it would advance the
	// checkpoint LSN past data of unknown durability); it just releases
	// handles. Reopening fault-free replays the WAL to the last
	// trustworthy state: every acknowledged write is there.
	_ = st.Close()
	st2, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen after wedge: %v", err)
	}
	defer st2.Close()
	if !st2.Healthy() {
		t.Fatal("reopened store is not healthy")
	}
	for i := 0; i < acked; i++ {
		v, ok, err := st2.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("post-reopen read %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Writes are accepted again on the fresh, fault-free incarnation.
	if err := st2.Put("fresh", val(7)); err != nil {
		t.Fatalf("post-reopen Put: %v", err)
	}
}

// TestShardWedgeAfterWritebackTornWriteRecovery wedges via the page
// writeback path: a torn page write during checkpoint leaves a page of
// unknown integrity on disk, so the shard degrades read-only and a
// reopen recovers from the WAL (the torn page is rejected by its CRC).
func TestShardWedgeAfterWritebackTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	const acked = 30
	for i := 0; i < acked; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(3, fault.Rule{Point: "store.page.writeback", Mode: fault.ModeTorn, Times: 1}))
	if err := st.Flush(); err == nil {
		t.Fatal("checkpoint with torn writeback succeeded")
	}
	fault.Disable()

	if st.Healthy() {
		t.Fatal("store healthy after torn writeback")
	}
	if err := st.Put("post", val(1)); !errors.Is(err, ErrWedged) {
		t.Fatalf("Put after torn writeback = %v, want ErrWedged", err)
	}
	for i := 0; i < acked; i++ {
		v, ok, err := st.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("wedged read %d: ok=%v err=%v", i, ok, err)
		}
	}

	_ = st.Close()
	st2, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen after torn writeback: %v", err)
	}
	defer st2.Close()
	for i := 0; i < acked; i++ {
		v, ok, err := st2.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("post-reopen read %d: ok=%v err=%v", i, ok, err)
		}
	}
}
