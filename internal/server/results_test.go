package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/query"
)

func queryResults(t *testing.T, url, q, format, sweepID string) (*http.Response, string) {
	t.Helper()
	req := url + "/v1/results/query?q=" + strings.ReplaceAll(q, " ", "+")
	if format != "" {
		req += "&format=" + format
	}
	if sweepID != "" {
		req += "&sweep=" + sweepID
	}
	resp, err := http.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestResultsQueryEndpoint covers the in-memory tier end to end: a
// sweep registers itself, GET /v1/results lists it, and
// /v1/results/query answers filter+sort+project expressions in every
// format with the right Content-Type — the query surface's golden
// shape test.
func TestResultsQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	rep := runSweep(t, ts.URL)
	if rep.SweepID == "" || !strings.HasPrefix(rep.SweepID, "sw-") {
		t.Fatalf("sweep report without registry id: %q", rep.SweepID)
	}

	// The registry lists the sweep as memory-resident (no store attached).
	resp, err := http.Get(ts.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]SweepInfo](t, resp, http.StatusOK)
	if len(list["sweeps"]) != 1 {
		t.Fatalf("results list: %+v", list)
	}
	if info := list["sweeps"][0]; info.ID != rep.SweepID || !info.InMemory || info.Durable || info.Scenarios != 4 {
		t.Fatalf("sweep info: %+v", info)
	}

	// Table output: header row carries the projection, rows align, no
	// trailing whitespace, filter+sort+limit applied.
	q := "cooling=liquid sort:-max_temp limit:2 fields:sweep,index,cooling,max_temp"
	resp, body := queryResults(t, ts.URL, q, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table query: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("table Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 3 { // header + 2 liquid rows
		t.Fatalf("table rows:\n%s", body)
	}
	if fields := strings.Fields(lines[0]); strings.Join(fields, ",") != "sweep,index,cooling,max_temp" {
		t.Fatalf("table header: %q", lines[0])
	}
	for _, line := range lines {
		if strings.TrimRight(line, " ") != line {
			t.Fatalf("trailing whitespace in %q", line)
		}
		if !strings.Contains(line, "max_temp") && !strings.Contains(line, "liquid") {
			t.Fatalf("unfiltered row: %q", line)
		}
	}

	// NDJSON: one JSON object per row, keys exactly the projection.
	resp, body = queryResults(t, ts.URL, q, "ndjson", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson Content-Type = %q", ct)
	}
	var prevTemp float64
	scanner := bufio.NewScanner(strings.NewReader(body))
	rows := 0
	for scanner.Scan() {
		var row map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &row); err != nil {
			t.Fatalf("ndjson line %q: %v", scanner.Text(), err)
		}
		if len(row) != 4 || row["cooling"] != "liquid" || row["sweep"] != rep.SweepID {
			t.Fatalf("ndjson row: %v", row)
		}
		temp, ok := row["max_temp"].(float64)
		if !ok || temp <= 0 {
			t.Fatalf("ndjson max_temp: %v", row["max_temp"])
		}
		if rows > 0 && temp > prevTemp {
			t.Fatalf("sort:-max_temp violated: %v after %v", temp, prevTemp)
		}
		prevTemp = temp
		rows++
	}
	if rows != 2 {
		t.Fatalf("ndjson rows = %d, want 2", rows)
	}

	// POST body form with json format: an array of the same rows.
	post, err := http.Post(ts.URL+"/v1/results/query", "application/json",
		strings.NewReader(`{"query":"`+q+`","format":"json"}`))
	if err != nil {
		t.Fatal(err)
	}
	arr := decode[[]map[string]any](t, post, http.StatusOK)
	if len(arr) != 2 || arr[0]["cooling"] != "liquid" {
		t.Fatalf("POST json rows: %v", arr)
	}

	// An empty query returns every row under the default projection.
	if _, body = queryResults(t, ts.URL, "", "ndjson", ""); strings.Count(body, "\n") != 4 {
		t.Fatalf("unfiltered ndjson:\n%s", body)
	}
}

// TestResultsQueryErrors pins the failure modes: parse errors and
// unknown projected fields are 400s naming the queryable fields,
// unknown sweep ids are 404s, unknown formats are 400s.
func TestResultsQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	runSweep(t, ts.URL)

	for _, tc := range []struct {
		q, format, sweep string
		status           int
		wantSub          string
	}{
		{q: "max_temp<", status: http.StatusBadRequest, wantSub: "fields:"},
		{q: "limit:zero", status: http.StatusBadRequest, wantSub: "fields:"},
		{q: "fields:nope", status: http.StatusBadRequest, wantSub: "unknown field"},
		{q: "max_tmp>60", status: http.StatusBadRequest, wantSub: "unknown field"},
		{q: "sort:nope", status: http.StatusBadRequest, wantSub: "unknown field"},
		{q: "", format: "xml", status: http.StatusBadRequest, wantSub: "format"},
		{q: "", sweep: "sw-doesnotexist00", status: http.StatusNotFound, wantSub: "unknown sweep"},
	} {
		resp, body := queryResults(t, ts.URL, tc.q, tc.format, tc.sweep)
		if resp.StatusCode != tc.status {
			t.Fatalf("q=%q format=%q: status %d, want %d (%s)", tc.q, tc.format, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(body, tc.wantSub) {
			t.Fatalf("q=%q error body %q missing %q", tc.q, body, tc.wantSub)
		}
		// Parse failures list the queryable fields so the error is
		// self-documenting.
		if strings.Contains(tc.wantSub, "fields:") && !strings.Contains(body, "max_temp") {
			t.Fatalf("error body does not enumerate fields: %s", body)
		}
	}
}

// TestResultsQueryAfterRestart is the durability half of the query
// surface: a restarted store-backed server answers queries over sweeps
// run before the restart — rebuilt from manifests plus stored metrics,
// nothing recomputed.
func TestResultsQueryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	s1 := New(Options{Workers: 2, QueueDepth: 16, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	rep := runSweep(t, ts1.URL)
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

	// The restarted registry lists the sweep as durable, not in memory.
	resp, err := http.Get(ts2.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]SweepInfo](t, resp, http.StatusOK)
	if len(list["sweeps"]) != 1 {
		t.Fatalf("restarted results list: %+v", list)
	}
	if info := list["sweeps"][0]; info.ID != rep.SweepID || info.InMemory || !info.Durable || info.Scenarios != 4 {
		t.Fatalf("restarted sweep info: %+v", info)
	}

	// Metric filters answer from the store — and restricting to the
	// sweep id hits the manifest path directly.
	for _, sweepID := range []string{"", rep.SweepID} {
		resp, body := queryResults(t, ts2.URL,
			"max_temp>0 sort:index fields:sweep,index,policy,max_temp,pump_power", "ndjson", sweepID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart query (sweep=%q): %d %s", sweepID, resp.StatusCode, body)
		}
		lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
		if len(lines) != 4 {
			t.Fatalf("restart query rows (sweep=%q):\n%s", sweepID, body)
		}
		for _, line := range lines {
			var row map[string]any
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				t.Fatal(err)
			}
			if row["sweep"] != rep.SweepID || row["max_temp"].(float64) <= 0 {
				t.Fatalf("restart row: %v", row)
			}
		}
	}

	// Answering those queries recomputed nothing.
	if stats := getStatsResp(t, ts2.URL); stats.ScenariosComputed != 0 {
		t.Fatalf("restarted server recomputed %d scenarios to answer queries", stats.ScenariosComputed)
	}

	// Re-running the identical sweep re-registers under the same
	// content-addressed id: the list stays at one sweep, now in both tiers.
	if rep2 := runSweep(t, ts2.URL); rep2.SweepID != rep.SweepID {
		t.Fatalf("sweep id not content-addressed: %q vs %q", rep2.SweepID, rep.SweepID)
	}
	resp, err = http.Get(ts2.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	list = decode[map[string][]SweepInfo](t, resp, http.StatusOK)
	if len(list["sweeps"]) != 1 || !list["sweeps"][0].InMemory || !list["sweeps"][0].Durable {
		t.Fatalf("re-registered sweep info: %+v", list)
	}
}

// TestQueryFieldCatalogMatchesRecords keeps FieldHelp, the query
// engine and the HTTP field validation in sync: every default field is
// documented and known.
func TestQueryFieldCatalogMatchesRecords(t *testing.T) {
	for _, f := range query.DefaultFields {
		if !knownField(f) {
			t.Fatalf("default field %q not in catalog", f)
		}
	}
}
