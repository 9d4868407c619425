package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/sweep"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, PageSize: 512, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runSweep(t *testing.T, url string) sweep.Report {
	t.Helper()
	body := `{"grid":{"coolings":["air","liquid"],"workloads":["web","db"],"policies":["LB"],"steps":2,"grid":8}}`
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return decode[sweep.Report](t, resp, http.StatusOK)
}

func getStatsResp(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decode[StatsResponse](t, resp, http.StatusOK)
}

// TestServerRestartServesFromStore is the PR's acceptance criterion: a
// populated cache survives a restart. Run a sweep against a
// store-backed server, tear everything down, bring up a fresh server on
// the same store directory, and re-run the identical sweep — every
// scenario must be a store-served cache hit, nothing recomputed, and
// the metrics byte-identical (exact float bits, checked through the
// binary codec).
func TestServerRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()

	st1 := openTestStore(t, dir)
	s1 := New(Options{Workers: 2, QueueDepth: 16, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	rep1 := runSweep(t, ts1.URL)
	if rep1.Errors != 0 || rep1.Scenarios != 4 {
		t.Fatalf("seed sweep: %d scenarios, %d errors", rep1.Scenarios, rep1.Errors)
	}
	stats1 := getStatsResp(t, ts1.URL)
	// 4 scenario results + the results registry's sweep manifest and
	// sweep index.
	if stats1.Store == nil || stats1.Store.Entries != 6 {
		t.Fatalf("store block after seed sweep: %+v", stats1.Store)
	}
	if stats1.CacheStats.StorePuts != 4 {
		t.Fatalf("write-throughs %d, want 4", stats1.CacheStats.StorePuts)
	}
	ts1.Close()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh process state, same store directory.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	if st2.Len() != 6 {
		t.Fatalf("store lost entries across restart: %d", st2.Len())
	}
	s2 := New(Options{Workers: 2, QueueDepth: 16, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()

	rep2 := runSweep(t, ts2.URL)
	if rep2.Errors != 0 {
		t.Fatalf("re-run errors: %d", rep2.Errors)
	}
	if rep2.CacheHits != rep2.Scenarios {
		t.Fatalf("re-run: %d/%d store hits, want all", rep2.CacheHits, rep2.Scenarios)
	}
	for _, r := range rep2.Results {
		if !r.CacheHit {
			t.Fatalf("scenario %s recomputed after restart", r.Key)
		}
	}
	stats2 := getStatsResp(t, ts2.URL)
	if stats2.ScenariosComputed != 0 {
		t.Fatalf("restarted server recomputed %d scenarios", stats2.ScenariosComputed)
	}
	if stats2.CacheStats.StoreHits != 4 {
		t.Fatalf("store hits %d, want 4: %+v", stats2.CacheStats.StoreHits, stats2.CacheStats)
	}

	// Byte-identical results: the binary codec preserves exact IEEE-754
	// bits, so the encodings must match, not just the JSON renderings.
	byKey := map[string][]byte{}
	for _, r := range rep1.Results {
		byKey[r.Key] = jobs.EncodeMetrics(r.Metrics)
	}
	for _, r := range rep2.Results {
		want, ok := byKey[r.Key]
		if !ok {
			t.Fatalf("re-run produced unknown key %s", r.Key)
		}
		if !bytes.Equal(jobs.EncodeMetrics(r.Metrics), want) {
			t.Fatalf("scenario %s not byte-identical across restart", r.Key)
		}
	}
}

// TestSimulateStoreHitFlaggedCached: a store-served result reports
// "cached": true on the wire, same as a memory hit.
func TestSimulateStoreHitFlaggedCached(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	s1 := New(Options{Workers: 2, QueueDepth: 16, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/simulate", "application/json", quickBody(t))
	if err != nil {
		t.Fatal(err)
	}
	first := decode[SimulateResponse](t, resp, http.StatusOK)
	if first.Cached {
		t.Fatal("first request cached")
	}
	ts1.Close()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Workers: 2, QueueDepth: 16, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	resp, err = http.Post(ts2.URL+"/v1/simulate", "application/json", quickBody(t))
	if err != nil {
		t.Fatal(err)
	}
	second := decode[SimulateResponse](t, resp, http.StatusOK)
	if !second.Cached {
		t.Fatal("store-served result not flagged cached")
	}
	if !reflect.DeepEqual(second.Metrics, first.Metrics) {
		t.Fatal("store-served metrics differ")
	}
}

// jsonKeyPaths flattens a decoded JSON value into sorted dotted key
// paths ("wal.fsyncs", "peers.#.hits"), with array elements
// collapsed — a structural fingerprint that pins the wire shape without
// pinning values.
func jsonKeyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(p, child, out)
		}
	case []any:
		for _, child := range x {
			jsonKeyPaths(prefix+".#", child, out)
		}
	}
}

// TestStatsStoreShape pins the /v1/stats store block's wire shape with
// a golden key-path assertion, so accidental renames or dropped
// counters fail loudly.
func TestStatsStoreShape(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := New(Options{Workers: 2, QueueDepth: 16, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// One computed scenario so every counter surface is live.
	if resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", quickBody(t)); err != nil {
		t.Fatal(err)
	} else {
		decode[SimulateResponse](t, resp, http.StatusOK)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw := decode[map[string]any](t, resp, http.StatusOK)
	storeBlock, ok := raw["store"]
	if !ok {
		t.Fatal("/v1/stats has no store block with a store attached")
	}
	got := map[string]bool{}
	jsonKeyPaths("", storeBlock, got)
	var paths []string
	for p := range got {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	golden := []string{
		"compactions",
		"dead_bytes",
		"deletes",
		"disk_bytes",
		"entries",
		"gets",
		"hits",
		"live_bytes",
		"peer_fill_errors",
		"peer_fills",
		"peer_misses",
		"pool",
		"pool.capacity",
		"pool.evictions",
		"pool.hits",
		"pool.misses",
		"pool.pages",
		"pool.writebacks",
		"puts",
		"reclaimed_bytes",
		"segments",
		"wal",
		"wal.appended_bytes",
		"wal.appends",
		"wal.fsyncs",
		"wal.replay_records",
		"wal.rotations",
		"wal.segments",
		"wal.syncs",
		"wal.truncated_bytes",
		"wedged",
	}
	if !reflect.DeepEqual(paths, golden) {
		gotJSON, _ := json.MarshalIndent(paths, "", "  ")
		t.Fatalf("store stats shape drifted from golden:\n%s", gotJSON)
	}

	// Without a store, the block is absent entirely.
	s2, ts2 := newTestServer(t)
	_ = s2
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw = decode[map[string]any](t, resp, http.StatusOK)
	if _, ok := raw["store"]; ok {
		t.Fatal("store block present without a store attached")
	}

	// And the cache_stats block carries the store counters.
	for _, key := range []string{"store_misses", "store_puts"} {
		stats := getStatsResp(t, ts.URL)
		b, _ := json.Marshal(stats.CacheStats)
		if !strings.Contains(string(b), fmt.Sprintf("%q", key)) {
			t.Fatalf("cache_stats missing %s: %s", key, b)
		}
	}
}
