package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// postSimulate sends one simulate request for a distinct tiny scenario.
func postSimulate(ts *httptest.Server, seed int64) (*http.Response, error) {
	b, _ := json.Marshal(jobs.Scenario{
		Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
		Steps: 2, Grid: 8, Seed: seed,
	})
	return http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decode[StatsResponse](t, resp, http.StatusOK)
}

// TestOverloadShedsPromptly saturates MaxInFlight=1 plus its one queue
// slot and requires the next request to be shed immediately with 503 +
// Retry-After instead of queueing without bound.
func TestOverloadShedsPromptly(t *testing.T) {
	s := New(Options{Workers: 2, MaxInFlight: 1, QueueWait: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// The first request holds the single execution slot for ~1s via an
	// injected compute latency; later requests compute fast.
	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: time.Second, Times: 1,
	}))

	type outcome struct {
		status int
		err    error
	}
	results := make(chan outcome, 2)
	launch := func(seed int64) {
		go func() {
			resp, err := postSimulate(ts, seed)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode}
		}()
	}
	waitGauge := func(name string, read func(AdmissionStats) int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := getStats(t, ts)
			if st.Admission != nil && read(*st.Admission) >= 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission gauge %s never reached 1: %+v", name, st.Admission)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	launch(11) // takes the slot, sleeps 1s in compute
	waitGauge("in_flight", func(a AdmissionStats) int { return a.InFlight })
	launch(12) // fills the single queue slot
	waitGauge("queued", func(a AdmissionStats) int { return a.Queued })

	// Slot busy, queue full: this one must be shed promptly.
	start := time.Now()
	resp, err := postSimulate(ts, 13)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("shed took %v, want immediate", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}

	// The slot holder and the queued request both complete normally.
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("admitted request %d: status=%d err=%v", i, o.status, o.err)
		}
	}
	st := getStats(t, ts)
	if st.Admission == nil || st.Admission.Shed < 1 || st.Admission.Admitted < 2 {
		t.Fatalf("admission stats %+v, want >=1 shed and >=2 admitted", st.Admission)
	}
	if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
		t.Fatalf("gauges did not drain: %+v", st.Admission)
	}
}

// TestRequestTimeoutReturns504: a compute request that outlives
// RequestTimeout is cancelled and answered with 504, not left hanging.
func TestRequestTimeoutReturns504(t *testing.T) {
	s := New(Options{Workers: 2, RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Each of the 6 grid points pays 60ms of injected latency on 2
	// workers: the sweep cannot finish inside the 100ms deadline.
	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: 60 * time.Millisecond,
	}))
	body, _ := json.Marshal(SweepRequest{Grid: &sweep.Grid{
		Coolings: []string{"air"}, Workloads: []string{"web"},
		Seeds: []int64{21, 22, 23, 24, 25, 26},
		Steps: 2, Res: 8,
	}})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timed-out request took %v to answer", elapsed)
	}
}

// TestAsyncExemptFromRequestTimeout: ?async=1 submissions outlive the
// submitting request's deadline by design.
func TestAsyncExemptFromRequestTimeout(t *testing.T) {
	s := New(Options{Workers: 2, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: 200 * time.Millisecond,
	}))
	resp, err := postSimulateAsync(ts, 31)
	if err != nil {
		t.Fatal(err)
	}
	view := decode[jobs.JobView](t, resp, http.StatusAccepted)

	// The job completes successfully despite running far past the
	// request deadline.
	wresp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	final := decode[jobs.JobView](t, wresp, http.StatusOK)
	if final.Status != jobs.StatusDone {
		t.Fatalf("async job status = %q (err %q), want done", final.Status, final.Error)
	}
}

func postSimulateAsync(ts *httptest.Server, seed int64) (*http.Response, error) {
	b, _ := json.Marshal(jobs.Scenario{
		Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
		Steps: 2, Grid: 8, Seed: seed,
	})
	return http.Post(ts.URL+"/v1/simulate?async=1", "application/json", bytes.NewReader(b))
}

// TestClientDisconnectDoesNotPoisonSingleFlight: a client that
// disconnects mid-sweep cancels its compute, and an identical follow-up
// request computes fresh instead of inheriting the cancelled flight's
// error from the single-flight cache.
func TestClientDisconnectDoesNotPoisonSingleFlight(t *testing.T) {
	_, ts := newTestServer(t)

	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: 300 * time.Millisecond,
	}))
	body, _ := json.Marshal(SweepRequest{Grid: &sweep.Grid{
		Coolings: []string{"air"}, Workloads: []string{"web"},
		Seeds: []int64{41, 42}, Steps: 2, Res: 8,
	}})

	// First attempt: disconnect while the sweep is mid-compute.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected the disconnecting request to fail client-side")
	}

	// Give the server a moment to observe the cancellation, then drop
	// the injected latency and retry the identical request.
	time.Sleep(50 * time.Millisecond)
	fault.Disable()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[sweep.Report](t, resp, http.StatusOK)
	if rep.Errors != 0 || rep.Scenarios != 2 {
		t.Fatalf("follow-up sweep: %d/%d errors, want clean", rep.Errors, rep.Scenarios)
	}
	for _, r := range rep.Results {
		if r.Metrics == nil || r.Error != "" {
			t.Fatalf("follow-up result %d poisoned: err=%q", r.Index, r.Error)
		}
	}
}

// TestReadyzDrainSequence: /readyz reflects drain state while /healthz
// keeps reporting liveness.
func TestReadyzDrainSequence(t *testing.T) {
	s, ts := newTestServer(t)

	check := func(wantReady int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantReady {
			t.Fatalf("/readyz = %d, want %d", resp.StatusCode, wantReady)
		}
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d, want 200 regardless of drain", hresp.StatusCode)
		}
	}
	check(http.StatusOK)
	s.SetDraining(true)
	check(http.StatusServiceUnavailable)
	s.SetDraining(false)
	check(http.StatusOK)
}

// TestReadyzReflectsWedgedStore: a store wedged by a durability failure
// flips /readyz to 503 and surfaces in /v1/stats, while compute
// requests keep succeeding (degraded to cache-only).
func TestReadyzReflectsWedgedStore(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close(); st.Close() })

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with healthy store = %d", resp.StatusCode)
	}

	// Wedge the store's only shard with one injected fsync failure.
	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "store.wal.fsync", Mode: fault.ModeError, Times: 1,
	}))
	if err := st.Put("doomed", []byte("x")); err == nil {
		t.Fatal("Put with failing fsync was acknowledged")
	}
	fault.Disable()

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with wedged store = %d, want 503", resp.StatusCode)
	}
	stats := getStats(t, ts)
	if stats.Store == nil || !stats.Store.Wedged {
		t.Fatalf("stats.store.wedged missing: %+v", stats.Store)
	}

	// Compute still works: write-through failures degrade to cache-only.
	for seed := int64(51); seed < 54; seed++ {
		sresp, err := postSimulate(ts, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim := decode[SimulateResponse](t, sresp, http.StatusOK)
		if sim.Metrics == nil {
			t.Fatalf("seed %d: nil metrics from degraded server", seed)
		}
	}
	if got := s.Cache().Stats().StoreErrors; got == 0 {
		t.Fatal("degraded write-throughs not counted in StoreErrors")
	}
}

// TestStreamingExemptFromWriteDeadline: the NDJSON sweep stream extends
// its write deadline per flushed line, so a sweep that takes longer
// than the server's WriteTimeout still streams to completion.
func TestStreamingExemptFromWriteDeadline(t *testing.T) {
	s := New(Options{Workers: 2})
	t.Cleanup(s.Close)
	srv := httptest.NewUnstartedServer(s.Handler())
	srv.Config.WriteTimeout = 250 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)

	// ~8 scenarios × 60ms injected latency on 2 workers ≈ 240ms+ of
	// compute — beyond WriteTimeout measured from request start, but
	// each streamed line pushes the deadline out.
	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: 60 * time.Millisecond,
	}))
	var seeds []int64
	for i := int64(61); i < 69; i++ {
		seeds = append(seeds, i)
	}
	body, _ := json.Marshal(SweepRequest{Grid: &sweep.Grid{
		Coolings: []string{"air"}, Workloads: []string{"web"},
		Seeds: seeds, Steps: 2, Res: 8,
	}})
	resp, err := http.Post(srv.URL+"/v1/sweeps?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var lines, results int
	var sawReport bool
	for dec.More() {
		var l sweepLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("stream truncated after %d lines: %v", lines, err)
		}
		lines++
		switch l.Type {
		case "result":
			results++
		case "report":
			sawReport = true
		case "error":
			t.Fatalf("stream error line: %s", l.Error)
		}
	}
	if results != len(seeds) || !sawReport {
		t.Fatalf("streamed %d results (want %d), report=%v", results, len(seeds), sawReport)
	}
}

// TestShedWhileQueueTimesOut: a request admitted to the queue but never
// reaching a slot within QueueWait is shed with 503 rather than waiting
// forever.
func TestShedWhileQueueTimesOut(t *testing.T) {
	s := New(Options{Workers: 2, MaxInFlight: 1, QueueWait: 80 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{
		Point: "jobs.compute", Mode: fault.ModeLatency, Delay: time.Second, Times: 1,
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := postSimulate(ts, 71); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := getStats(t, ts); st.Admission != nil && st.Admission.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot holder never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	resp, err := postSimulate(ts, 72)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-too-long status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if elapsed < 50*time.Millisecond || elapsed > 700*time.Millisecond {
		t.Fatalf("queue-wait shed after %v, want ≈QueueWait", elapsed)
	}
	<-done
}
