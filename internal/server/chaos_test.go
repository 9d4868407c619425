package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/sweep"
)

// chaosIterations is the seeded-iteration budget: the CI chaos job runs
// the full count under -race; -short keeps ordinary test runs quick.
func chaosIterations(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 200
}

// chaosRule builds one deterministic rule for a point. Guaranteed rules
// (the per-iteration coverage target) always fire a bounded number of
// times; background rules fire probabilistically. jobs.compute only
// ever gets latency — an injected compute *error* is a legitimate
// client-visible failure, and the chaos contract under test is that
// store/peer/transport faults are never client-visible.
func chaosRule(point string, rng *rand.Rand, guaranteed bool) fault.Rule {
	r := fault.Rule{Point: point}
	if guaranteed {
		r.Times = 1 + rng.Intn(3)
	} else {
		r.Prob = 0.2 + 0.3*rng.Float64()
	}
	switch point {
	case "jobs.compute":
		r.Mode = fault.ModeLatency
		r.Delay = time.Duration(1+rng.Intn(2)) * time.Millisecond
	case "store.wal.write", "store.page.writeback":
		if rng.Intn(2) == 0 {
			r.Mode = fault.ModeTorn
		} else {
			r.Mode = fault.ModeError
		}
	case "store.peer.fetch":
		if rng.Intn(2) == 0 {
			r.Mode = fault.ModeLatency
			r.Delay = time.Millisecond
		} else {
			r.Mode = fault.ModeError
		}
	default:
		r.Mode = fault.ModeError
	}
	return r
}

// TestChaosConcurrentSweepsUnderFaults is the chaos suite: many seeded
// iterations of concurrent sweeps with faults firing at every
// registered point, asserting (a) the store never reopens corrupted,
// (b) results are byte-identical to a fault-free run, (c) store and
// peer faults degrade to compute — zero client-visible request errors —
// and (d) nothing leaks goroutines.
func TestChaosConcurrentSweepsUnderFaults(t *testing.T) {
	iterations := chaosIterations(t)
	points := fault.Points()
	if len(points) == 0 {
		t.Fatal("no fault points registered")
	}
	baseGoroutines := runtime.NumGoroutine()

	// Fault-free oracle: same engine path, no store, no faults. Its
	// in-memory cache re-serves identical clones across iterations.
	oracle := New(Options{Workers: 2})
	oracleTS := httptest.NewServer(oracle.Handler())
	defer func() { oracleTS.Close(); oracle.Close() }()

	// The replica peer the store warm-fills from: always a definitive
	// miss, so every store miss exercises store.peer.fetch then computes.
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not found", http.StatusNotFound)
	}))
	defer peerSrv.Close()

	dir := t.TempDir()
	baseline := map[string]string{} // scenario key → canonical metrics JSON
	coverage := map[string]uint64{} // point → cumulative injected firings

	postSweep := func(url string, g sweep.Grid) (*sweep.Report, int, error) {
		body, err := json.Marshal(SweepRequest{Grid: &g})
		if err != nil {
			return nil, 0, err
		}
		resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e errorJSON
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return nil, resp.StatusCode, fmt.Errorf("%s", e.Error)
		}
		var rep sweep.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return nil, resp.StatusCode, err
		}
		return &rep, resp.StatusCode, nil
	}
	metricsJSON := func(t *testing.T, r sweep.Result) string {
		t.Helper()
		b, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)*7919 + 17))
		target := points[iter%len(points)]

		// Three small concurrent sweep shapes; C's seed is novel every
		// iteration so the store always has a miss (peer fetch + fresh
		// write-through), while A and B revisit persisted keys.
		shapes := []sweep.Grid{
			{Coolings: []string{"air"}, Workloads: []string{"web"},
				Seeds: []int64{1, 2}, Steps: 2, Res: 8},
			{Coolings: []string{"air", "liquid"}, Workloads: []string{"web"},
				Seeds: []int64{3}, Steps: 2, Res: 8},
			{Coolings: []string{"air"}, Workloads: []string{"db"},
				Seeds: []int64{int64(1000 + iter)}, Steps: 2, Res: 8},
		}

		// Fill the oracle baseline fault-free before enabling injection.
		for _, g := range shapes {
			rep, status, err := postSweep(oracleTS.URL, g)
			if err != nil || status != http.StatusOK {
				t.Fatalf("iter %d: oracle sweep: status=%d err=%v", iter, status, err)
			}
			for _, r := range rep.Results {
				if r.Error != "" || r.Metrics == nil {
					t.Fatalf("iter %d: oracle result error: %s", iter, r.Error)
				}
				baseline[r.Key] = metricsJSON(t, r)
			}
		}

		// Reopen the store fault-free: a prior iteration may have wedged
		// it and skipped its checkpoint — reopening must replay cleanly.
		st, err := store.Open(store.Options{
			Dir: dir, PoolPages: 16, PageSize: 512,
			SegmentBytes: 8 << 10, WALSegmentBytes: 8 << 10,
			Peer: store.NewHTTPPeer([]string{peerSrv.URL}, store.HTTPPeerOptions{
				Timeout: 500 * time.Millisecond, Attempts: 1, Backoff: time.Millisecond,
			}),
		})
		if err != nil {
			t.Fatalf("iter %d: corrupted reopen: %v", iter, err)
		}
		if !st.Healthy() {
			t.Fatalf("iter %d: store reopened unhealthy", iter)
		}
		svc := New(Options{Workers: 2, Store: st})
		ts := httptest.NewServer(svc.Handler())

		// Compile this iteration's deterministic fault registry: the
		// round-robin target point always fires, others probabilistically.
		// When the target sits downstream in the store's durability
		// pipeline (writeback, segment fsync, ...), upstream store rules
		// would wedge the shard before the target is ever evaluated — so
		// those iterations keep only non-interfering background rules.
		rules := []fault.Rule{chaosRule(target, rng, true)}
		storeTarget := target != "jobs.compute" && target != "store.peer.fetch"
		for _, p := range points {
			if p == target {
				continue
			}
			if storeTarget && p != "jobs.compute" && p != "store.peer.fetch" {
				continue
			}
			if rng.Float64() < 0.35 {
				rules = append(rules, chaosRule(p, rng, false))
			}
		}
		reg := fault.New(int64(iter)+1, rules...)
		fault.Enable(reg)

		var wg sync.WaitGroup
		for si, g := range shapes {
			wg.Add(1)
			go func(si int, g sweep.Grid) {
				defer wg.Done()
				rep, status, err := postSweep(ts.URL, g)
				if err != nil || status != http.StatusOK {
					t.Errorf("iter %d shape %d: status=%d err=%v (store/peer faults must not be client-visible)",
						iter, si, status, err)
					return
				}
				if rep.Errors != 0 {
					t.Errorf("iter %d shape %d: %d result errors under faults", iter, si, rep.Errors)
				}
				for _, r := range rep.Results {
					want, ok := baseline[r.Key]
					if !ok {
						t.Errorf("iter %d shape %d: no baseline for %s", iter, si, r.Key)
						continue
					}
					if got := metricsJSON(t, r); got != want {
						t.Errorf("iter %d shape %d key %s: metrics diverge from fault-free baseline\n got %s\nwant %s",
							iter, si, r.Key, got, want)
					}
				}
			}(si, g)
		}
		wg.Wait()

		// Checkpoint-path and compaction points are only evaluated when
		// those operations actually run; drive them explicitly on their
		// coverage iterations (the injected failure is the expected
		// outcome — it wedges the shard, proven safe by the next reopen).
		switch target {
		case "store.compact":
			_ = st.Compact()
		case "store.page.writeback", "store.seg.fsync":
			_ = st.Flush()
		}

		// Tear down with faults still enabled — close paths (final
		// checkpoint, segment fsync) take injection too. Wedged shards
		// skip their checkpoint; the next iteration's reopen proves the
		// on-disk state stayed sound either way.
		ts.Close()
		svc.Close()
		_ = st.Close()
		fault.Disable()

		for _, p := range points {
			coverage[p] += reg.Hits(p)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	// Every registered point took at least one injected fault across the
	// suite.
	for _, p := range points {
		if coverage[p] == 0 {
			t.Errorf("fault point %s never fired across %d iterations", p, iterations)
		}
	}

	// Final fault-free reopen: the store is intact and serves.
	st, err := store.Open(store.Options{Dir: dir, PoolPages: 16,
		PageSize: 512, SegmentBytes: 8 << 10, WALSegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if !st.Healthy() {
		t.Fatal("final reopen unhealthy")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}

	// No stuck goroutines: allow the runtime a moment to reap HTTP
	// keep-alives and worker teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
