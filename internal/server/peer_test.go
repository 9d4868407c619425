package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestStoreGetEndpoint pins the replica fetch protocol: url-safe base64
// key in the path, raw bytes out, 404 for absent keys, 400 for a
// malformed segment, 404 when no store is attached at all.
func TestStoreGetEndpoint(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := New(Options{Workers: 2, QueueDepth: 16, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	key := string([]byte{'k', 0, '/', 0xff, 'z'}) // deliberately URL-hostile
	want := []byte("stored bytes \x00\x01")
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/store/" + store.EncodeKeyPath(key))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("stored key: status=%d body=%q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}

	if resp, err = http.Get(ts.URL + "/v1/store/" + store.EncodeKeyPath("absent")); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: status %d, want 404", resp.StatusCode)
	}

	if resp, err = http.Get(ts.URL + "/v1/store/!!not-base64!!"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad segment: status %d, want 400", resp.StatusCode)
	}

	// A storeless server has nothing to serve.
	s2, ts2 := newTestServer(t)
	_ = s2
	if resp, err = http.Get(ts2.URL + "/v1/store/" + store.EncodeKeyPath(key)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless server: status %d, want 404", resp.StatusCode)
	}
}

// TestServerPeerWarmFillOverHTTP is the fleet acceptance criterion: a
// second replica with an empty store directory, peered at the first
// over real HTTP, serves a previously computed sweep entirely from peer
// warm-fills — zero recomputation, byte-identical metrics, and the
// fills durably adopted. Killing the peer then degrades the replica to
// compute (no request errors), with the dead peer's trip/probe
// counters visible in /v1/stats.
func TestServerPeerWarmFillOverHTTP(t *testing.T) {
	// Replica A computes the sweep into its durable store.
	stA := openTestStore(t, t.TempDir())
	sA := New(Options{Workers: 2, QueueDepth: 16, Store: stA})
	tsA := httptest.NewServer(sA.Handler())
	repA := runSweep(t, tsA.URL)
	if repA.Errors != 0 || repA.Scenarios != 4 {
		t.Fatalf("seed sweep on A: %d scenarios, %d errors", repA.Scenarios, repA.Errors)
	}

	// Replica B: empty store directory, peered at A over real HTTP.
	peer := store.NewHTTPPeer([]string{tsA.URL}, store.HTTPPeerOptions{
		Timeout:    5 * time.Second,
		Backoff:    time.Millisecond,
		TripAfter:  2,
		ProbeAfter: time.Hour, // no half-open probes inside this test
	})
	stB, err := store.Open(store.Options{
		Dir: t.TempDir(), PageSize: 512, PoolPages: 64, Peer: peer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	sB := New(Options{Workers: 2, QueueDepth: 16, Store: stB})
	tsB := httptest.NewServer(sB.Handler())
	defer func() { tsB.Close(); sB.Close() }()

	// The same sweep on B: 100% peer warm-fills, zero recomputation.
	repB := runSweep(t, tsB.URL)
	if repB.Errors != 0 || repB.Scenarios != 4 {
		t.Fatalf("warm-fill sweep on B: %d scenarios, %d errors", repB.Scenarios, repB.Errors)
	}
	if repB.CacheHits != repB.Scenarios {
		t.Fatalf("B recomputed: %d/%d cache hits", repB.CacheHits, repB.Scenarios)
	}
	statsB := getStatsResp(t, tsB.URL)
	if statsB.ScenariosComputed != 0 {
		t.Fatalf("B computed %d scenarios, want 0", statsB.ScenariosComputed)
	}
	if statsB.CacheStats.StoreHits != 4 {
		t.Fatalf("B store hits %d, want 4: %+v", statsB.CacheStats.StoreHits, statsB.CacheStats)
	}
	if statsB.Store == nil || statsB.Store.PeerFills != 4 || statsB.Store.PeerMisses != 0 || statsB.Store.PeerFillErrors != 0 {
		t.Fatalf("B peer counters: %+v", statsB.Store)
	}
	if len(statsB.Store.Peers) != 1 || statsB.Store.Peers[0].Hits != 4 || statsB.Store.Peers[0].Errors != 0 {
		t.Fatalf("B peer health: %+v", statsB.Store.Peers)
	}

	// Byte-identical through the exact-float-bits codec.
	byKey := map[string][]byte{}
	for _, r := range repA.Results {
		byKey[r.Key] = jobs.EncodeMetrics(r.Metrics)
	}
	for _, r := range repB.Results {
		want, ok := byKey[r.Key]
		if !ok {
			t.Fatalf("B produced unknown key %s", r.Key)
		}
		if !bytes.Equal(jobs.EncodeMetrics(r.Metrics), want) {
			t.Fatalf("scenario %s not byte-identical across the fleet", r.Key)
		}
	}

	// Kill A. The warm-fills were durably adopted, so B still serves the
	// sweep — and a sweep A never computed degrades to local compute
	// without a single request error, tripping A's breaker.
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	repB2 := runSweep(t, tsB.URL)
	if repB2.Errors != 0 || repB2.CacheHits != repB2.Scenarios {
		t.Fatalf("B no longer serves the adopted sweep: %+v", repB2)
	}

	fresh := `{"grid":{"coolings":["air","liquid"],"workloads":["web","db"],"policies":["LB"],"steps":3,"grid":8}}`
	resp, err := http.Post(tsB.URL+"/v1/sweeps", "application/json",
		bytes.NewReader([]byte(fresh)))
	if err != nil {
		t.Fatal(err)
	}
	repB3 := decode[sweep.Report](t, resp, http.StatusOK)
	if repB3.Errors != 0 || repB3.Scenarios != 4 {
		t.Fatalf("degraded sweep on B: %d scenarios, %d errors", repB3.Scenarios, repB3.Errors)
	}
	if repB3.CacheHits != 0 {
		t.Fatalf("degraded sweep claims %d cache hits from a dead fleet", repB3.CacheHits)
	}
	statsB = getStatsResp(t, tsB.URL)
	if statsB.ScenariosComputed != 4 {
		t.Fatalf("B computed %d scenarios after degradation, want 4", statsB.ScenariosComputed)
	}
	if statsB.Store.PeerMisses != 4 {
		t.Fatalf("degraded lookups not counted as peer misses: %+v", statsB.Store)
	}
	ph := statsB.Store.Peers[0]
	if ph.Errors == 0 || ph.Trips != 1 || !ph.Tripped {
		t.Fatalf("dead peer's breaker state not surfaced: %+v", ph)
	}
	if ph.ConsecutiveFailures < 2 {
		t.Fatalf("consecutive failures %d, want >= 2", ph.ConsecutiveFailures)
	}
}
