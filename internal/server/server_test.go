package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// quickBody is a fast-but-real simulate request.
func quickBody(t *testing.T) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(jobs.Scenario{
		Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
		Steps: 2, Grid: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func decode[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantStatus {
		var e errorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, e.Error, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[map[string]any](t, resp, http.StatusOK)
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
}

// TestSimulateEndToEndWithCacheHit is the acceptance check: a simulate
// request served end to end, with the second identical request hitting
// the cache and returning the same metrics.
func TestSimulateEndToEndWithCacheHit(t *testing.T) {
	_, ts := newTestServer(t)

	post := func() SimulateResponse {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", quickBody(t))
		if err != nil {
			t.Fatal(err)
		}
		return decode[SimulateResponse](t, resp, http.StatusOK)
	}
	first := post()
	if first.Cached {
		t.Fatal("first request reported a cache hit")
	}
	if first.Metrics == nil || first.Metrics.SimulatedS <= 0 {
		t.Fatalf("first metrics = %+v", first.Metrics)
	}
	second := post()
	if !second.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if !reflect.DeepEqual(second.Metrics, first.Metrics) {
		t.Fatal("cached metrics differ from computed metrics")
	}
}

// TestStatsSolverMetrics exercises the /v1/stats surface: fresh solves
// grow the per-backend aggregates, cache hits do not, and the request
// "solver" field routes work to the named backend.
func TestStatsSolverMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	getStats := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[StatsResponse](t, resp, http.StatusOK)
	}
	if st := getStats(); st.ScenariosComputed != 0 || len(st.Backends) < 3 {
		t.Fatalf("fresh server stats = %+v", st)
	}

	post := func(body []byte) SimulateResponse {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return decode[SimulateResponse](t, resp, http.StatusOK)
	}
	mk := func(solver string) []byte {
		b, err := json.Marshal(jobs.Scenario{
			Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
			Steps: 2, Grid: 8, Seed: 1, Solver: solver,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := post(mk(""))
	if first.Request.Solver != "bicgstab" {
		t.Fatalf("normalized request solver = %q", first.Request.Solver)
	}
	st := getStats()
	if st.ScenariosComputed != 1 {
		t.Fatalf("after one solve: ScenariosComputed = %d", st.ScenariosComputed)
	}
	if agg, ok := st.Solver["bicgstab"]; !ok || agg.Solves == 0 {
		t.Fatalf("bicgstab aggregate missing or empty: %+v", st.Solver)
	}

	// A cache hit must not grow the aggregates.
	if resp := post(mk("")); !resp.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if st := getStats(); st.ScenariosComputed != 1 {
		t.Fatalf("cache hit grew ScenariosComputed to %d", st.ScenariosComputed)
	}

	// A direct-backend request is a distinct cache entry and records
	// under its own backend, with factor-once visible in the counters.
	dresp := post(mk("direct"))
	if dresp.Cached || dresp.Key == first.Key {
		t.Fatal("direct-backend request aliased the bicgstab cache entry")
	}
	st = getStats()
	agg, ok := st.Solver["direct"]
	if !ok || agg.Factorizations == 0 || agg.Solves == 0 {
		t.Fatalf("direct aggregate missing or empty: %+v", st.Solver)
	}
	if agg.Iterations != 0 {
		t.Fatalf("direct backend reported %d iterations", agg.Iterations)
	}
}

func TestSimulateAsyncSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/simulate?async=1", "application/json", quickBody(t))
	if err != nil {
		t.Fatal(err)
	}
	queued := decode[jobs.JobView](t, resp, http.StatusAccepted)
	if queued.ID == "" || queued.Status.Terminal() {
		t.Fatalf("queued view = %+v", queued)
	}

	// Long-poll until terminal.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + queued.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	done := decode[jobs.JobView](t, resp, http.StatusOK)
	if done.Status != jobs.StatusDone {
		t.Fatalf("terminal job = %+v", done)
	}
	result, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(result, &sr); err != nil {
		t.Fatalf("job result is not a SimulateResponse: %v", err)
	}
	if sr.Metrics == nil || sr.Metrics.SimulatedS <= 0 {
		t.Fatalf("async metrics = %+v", sr.Metrics)
	}

	// Plain poll works too and the job shows up in the listing.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := decode[jobs.JobView](t, resp, http.StatusOK); v.Status != jobs.StatusDone {
		t.Fatalf("polled job = %+v", v)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]jobs.JobView](t, resp, http.StatusOK)
	if len(list["jobs"]) != 1 || list["jobs"][0].ID != queued.ID {
		t.Fatalf("job list = %+v", list)
	}
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"malformed json": "{not json",
		"unknown field":  `{"tiresome": 1}`,
		"bad tiers":      `{"tiers": 3}`,
		"bad cooling":    `{"cooling": "helium"}`,
		"bad workload":   `{"workload": "nope"}`,
		// Size bounds: each of these would allocate past the machine's
		// memory before the first step.
		"huge grid":        `{"grid": 100000, "steps": 1}`,
		"huge steps":       `{"grid": 4, "steps": 2000000000}`,
		"huge flow levels": `{"cooling": "liquid", "policy": "LC_FUZZY", "grid": 4, "steps": 1, "flow_levels": 2000000000}`,
		"grid past bound":  `{"grid": 33, "steps": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	assertNothingComputed(t, ts)
}

// assertNothingComputed checks that rejected requests never reached the
// compute path: no cache lookup, no scenario, no sweep.
func assertNothingComputed(t *testing.T, ts *httptest.Server) {
	t.Helper()
	st := getStats(t, ts)
	if st.CacheStats.Misses != 0 || st.ScenariosComputed != 0 || st.Sweeps.Sweeps != 0 {
		t.Fatalf("rejected requests reached the compute path: cache misses %d, computed %d, sweeps %d",
			st.CacheStats.Misses, st.ScenariosComputed, st.Sweeps.Sweeps)
	}
}

// TestResponsesAreCompactJSON pins the wire format: every JSON body is
// one line plus a newline, success and error alike.
func TestResponsesAreCompactJSON(t *testing.T) {
	_, ts := newTestServer(t)
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/v1/simulate", `{"steps":2,"grid":8}`},
		{http.MethodPost, "/v1/simulate", `{"tiers":3}`},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) || bytes.IndexByte(b, '\n') != len(b)-1 {
			t.Errorf("%s %s (status %d): body is not one JSON line: %q", req.method, req.path, resp.StatusCode, b)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestDSEEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/dse", "application/json", bytes.NewReader([]byte(`{"flow_levels": 4}`)))
	if err != nil {
		t.Fatal(err)
	}
	body := decode[DSEResponse](t, resp, http.StatusOK)
	if len(body.Evaluations) == 0 || len(body.ParetoFront) == 0 {
		t.Fatalf("dse response empty: %+v", body)
	}
	if body.Best == nil {
		t.Fatalf("no feasible best design: %s", body.BestError)
	}
	for _, e := range body.ParetoFront {
		if e.JunctionC <= 0 || e.FlowMlMin <= 0 {
			t.Fatalf("implausible evaluation %+v", e)
		}
	}
}

func TestStudiesEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full study matrix is not short")
	}
	s, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json",
		bytes.NewReader([]byte(`{"steps": 4, "grid": 8}`)))
	if err != nil {
		t.Fatal(err)
	}
	body := decode[StudyResponse](t, resp, http.StatusOK)
	if len(body.Results) != 7 {
		t.Fatalf("got %d study rows, want 7", len(body.Results))
	}
	if body.Fig6 == "" || body.Fig7 == "" {
		t.Fatal("rendered tables missing")
	}
	// The study populated the shared scenario cache: 7 configs × 4
	// workloads.
	if n := s.Cache().Len(); n != 28 {
		t.Fatalf("cache holds %d scenarios after the study, want 28", n)
	}
}

// TestStudiesRejectsBadRequests: every study (and savings) scenario is
// validated before dispatch, so a bad request gets 400 synchronously
// and asynchronously alike, never a 422 or a failed job after compute
// has started.
func TestStudiesRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"steps": -5, "grid": 8}`,
		`{"steps": 2, "grid": 100000}`,
		`{"steps": 2000000000, "grid": 8}`,
		`{"steps": 2, "grid": 8, "solver": "quantum"}`,
		`{"steps": -5, "grid": 8, "savings": true}`,
	} {
		for _, path := range []string{"/v1/studies", "/v1/studies?async=1"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad study request on %s: status %d, want 400: %s", path, resp.StatusCode, body)
			}
		}
	}
	assertNothingComputed(t, ts)
}

func TestStudiesAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("full study matrix is not short")
	}
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/studies?async=1", "application/json",
		bytes.NewReader([]byte(`{"steps": 2, "grid": 8}`)))
	if err != nil {
		t.Fatal(err)
	}
	queued := decode[jobs.JobView](t, resp, http.StatusAccepted)

	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "?wait=1")
		if err != nil {
			t.Fatal(err)
		}
		v := decode[jobs.JobView](t, resp, http.StatusOK)
		if v.Status.Terminal() {
			if v.Status != jobs.StatusDone {
				t.Fatalf("study job failed: %s", v.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("study job did not finish in time")
		}
	}
}

func TestSweepsGridEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep endpoint test is not short")
	}
	_, ts := newTestServer(t)
	body := `{"grid": {"coolings": ["air", "liquid"], "workloads": ["web", "light"], "steps": 3, "grid": 8}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[sweep.Report](t, resp, http.StatusOK)
	if rep.Scenarios != 4 || rep.Errors != 0 || len(rep.Results) != 4 {
		t.Fatalf("report: %d scenarios, %d errors, %d results", rep.Scenarios, rep.Errors, len(rep.Results))
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("got %d structural groups, want 2", len(rep.Groups))
	}
	if rep.Prep.Shares == 0 {
		t.Fatal("sweep shared no factorizations")
	}
	// The sharing outcome is folded into /v1/stats.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[StatsResponse](t, resp, http.StatusOK)
	if stats.Sweeps.Sweeps != 1 || stats.Sweeps.Scenarios != 4 || stats.Sweeps.Prep.Shares == 0 {
		t.Fatalf("stats.sweeps = %+v", stats.Sweeps)
	}
}

func TestSweepsSteadyStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep endpoint test is not short")
	}
	_, ts := newTestServer(t)
	body := `{"steady": {"tiers": 2, "grid": 8, "utils": [0.2, 0.8], "flows_ml_min": [10, 32.3]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps?stream=1", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var points, reports int
	var final sweepLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l sweepLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		switch l.Type {
		case "point":
			points++
			if l.Point == nil || l.Point.Error != "" {
				t.Fatalf("bad point line: %+v", l)
			}
		case "report":
			reports++
			final = l
		default:
			t.Fatalf("unexpected line type %q", l.Type)
		}
	}
	if points != 4 || reports != 1 {
		t.Fatalf("streamed %d points and %d reports, want 4 and 1", points, reports)
	}
	if final.SteadyReport == nil || final.SteadyReport.Prep.Factorizations != 2 {
		t.Fatalf("final report: %+v", final.SteadyReport)
	}
	if len(final.SteadyReport.Points) != 0 {
		t.Fatal("summary line repeats the streamed points")
	}
}

func TestSweepsRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{}`,
		`{"grid": {}, "steady": {"utils": [0.5], "flows_ml_min": [20]}}`,
		`{"grid": {"tiers": [3]}}`,
		`{"steady": {"utils": [], "flows_ml_min": [20]}}`,
		`{"nope": 1}`,
		// One bad point fails the whole grid, valid points included.
		`{"grid": {"workloads": ["web", "nope"], "steps": 2, "grid": 8}}`,
		`{"grid": {"grid": 100000, "steps": 1}}`,
		`{"grid": {"steps": 2000000000, "grid": 4}}`,
		`{"steady": {"grid": 100000, "utils": [0.5], "flows_ml_min": [20]}}`,
	} {
		// Streamed and unstreamed alike must reject before any 200.
		for _, path := range []string{"/v1/sweeps", "/v1/sweeps?stream=1"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad sweep request on %s: status %d, want 400: %s", path, resp.StatusCode, body)
			}
			resp.Body.Close()
		}
	}
	assertNothingComputed(t, ts)
}

func TestSweepsGridBatchStats(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep endpoint test is not short")
	}
	_, ts := newTestServer(t)
	body := `{"grid": {"coolings": ["liquid"], "policies": ["LC_FUZZY"], "seeds": [1, 2, 3], "solvers": ["direct"], "steps": 3, "grid": 8}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[sweep.Report](t, resp, http.StatusOK)
	if rep.Errors != 0 || rep.Batch == nil {
		t.Fatalf("report: %d errors, batch %+v", rep.Errors, rep.Batch)
	}
	if rep.Batch.BatchedColumns == 0 || rep.Batch.Assemblies.Shares == 0 {
		t.Fatalf("grid sweep did not lockstep: %+v", rep.Batch)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[StatsResponse](t, resp, http.StatusOK)
	if stats.Sweeps.Batch.BatchedColumns != rep.Batch.BatchedColumns {
		t.Fatalf("stats batch aggregate %+v != report %+v", stats.Sweeps.Batch, rep.Batch.BatchStats)
	}
	if stats.Sweeps.Assemblies.Shares == 0 {
		t.Fatalf("stats assemblies aggregate %+v", stats.Sweeps.Assemblies)
	}
}

// flushRecorder is a ResponseWriter whose Flush hands everything written
// since the previous flush to an unbuffered channel and blocks until the
// consumer takes it — a deterministic slow reader: the handler cannot
// run ahead of the client by more than one record.
type flushRecorder struct {
	header  http.Header
	pending bytes.Buffer
	chunks  chan string
}

func (f *flushRecorder) Header() http.Header         { return f.header }
func (f *flushRecorder) WriteHeader(int)             {}
func (f *flushRecorder) Write(p []byte) (int, error) { return f.pending.Write(p) }
func (f *flushRecorder) Flush() {
	if f.pending.Len() == 0 {
		return
	}
	f.chunks <- f.pending.String()
	f.pending.Reset()
}

// TestSweepsStreamFlushesEveryRecord pins the incremental-streaming
// contract of /v1/sweeps?stream=1: every NDJSON record is flushed on its
// own, so a slow reader receives result lines one at a time while the
// sweep is still running, instead of one buffered blob at the end.
func TestSweepsStreamFlushesEveryRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep endpoint test is not short")
	}
	s := New(Options{Workers: 1})
	defer s.Close()
	body := `{"grid": {"workloads": ["web", "light", "db", "mm"], "steps": 2, "grid": 8}}`
	req := httptest.NewRequest("POST", "/v1/sweeps?stream=1", bytes.NewReader([]byte(body)))
	rec := &flushRecorder{header: http.Header{}, chunks: make(chan string)}
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	var lines []string
	for open := true; open; {
		select {
		case chunk := <-rec.chunks:
			trimmed := strings.TrimSuffix(chunk, "\n")
			if strings.Contains(trimmed, "\n") {
				t.Fatalf("one flush carried multiple records: %q", chunk)
			}
			lines = append(lines, trimmed)
		case <-done:
			open = false
		}
	}
	if want := 4 + 1; len(lines) != want { // one per scenario + the summary
		t.Fatalf("streamed %d flushed records, want %d", len(lines), want)
	}
	for _, raw := range lines[:4] {
		var l sweepLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil || l.Type != "result" {
			t.Fatalf("bad result line %q: %v", raw, err)
		}
	}
	var final sweepLine
	if err := json.Unmarshal([]byte(lines[4]), &final); err != nil || final.Type != "report" || final.Report == nil {
		t.Fatalf("bad summary line %q: %v", lines[4], err)
	}
	if final.Report.Batch == nil {
		t.Fatal("streamed transient sweep missing batch stats")
	}
}
