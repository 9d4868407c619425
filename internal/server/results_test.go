package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jobs"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/sweep"
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

// reply is one /v1/results/query response as the byte-identity contract
// sees it.
type reply struct {
	status      int
	contentType string
	body        string
}

// askGet sends one results query straight to h as a GET.
func askGet(h http.Handler, q, format, sweepID string) reply {
	params := url.Values{"q": {q}}
	if format != "" {
		params.Set("format", format)
	}
	if sweepID != "" {
		params.Set("sweep", sweepID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results/query?"+params.Encode(), nil))
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// askPost sends one results query straight to h as a POST body.
func askPost(t *testing.T, h http.Handler, req ResultsQueryRequest) reply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/results/query", bytes.NewReader(body)))
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

var wantContentType = map[string]string{
	"table":  "text/plain; charset=utf-8",
	"ndjson": "application/x-ndjson",
	"json":   "application/json",
}

// freshAnswer evaluates a valid query without the answer cache: the
// registry's tables, RunTables and the formatter.
func freshAnswer(t *testing.T, g *resultsRegistry, expr, format, sweepID string) reply {
	t.Helper()
	q, err := query.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := query.NewFormatter(format)
	if err != nil {
		t.Fatal(err)
	}
	tables, _, _, err := g.Tables(sweepID)
	if err != nil {
		t.Fatal(err)
	}
	fields := q.Fields
	if len(fields) == 0 {
		fields = query.DefaultFields
	}
	var b strings.Builder
	if err := f.Format(&b, fields, q.RunTables(tables)); err != nil {
		t.Fatal(err)
	}
	return reply{http.StatusOK, wantContentType[f.Name()], b.String()}
}

// postSweep runs one transient grid sweep over HTTP.
func postSweep(t *testing.T, baseURL, grid string) sweep.Report {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/sweeps", "application/json", strings.NewReader(`{"grid":`+grid+`}`))
	if err != nil {
		t.Fatal(err)
	}
	return decode[sweep.Report](t, resp, http.StatusOK)
}

// exprTerms is one generated expression as its filter, sort and other
// (limit, fields) terms, so it can be spelled in several equivalent
// ways.
type exprTerms struct{ filters, sorts, rest []string }

// canonical spells the terms in query.Query.String order.
func (e exprTerms) canonical() string {
	return strings.Join(append(append(append([]string(nil), e.filters...), e.sorts...), e.rest...), " ")
}

// respell interleaves the terms at random, keeping the order among the
// filters and among the sort keys, with random whitespace between and
// around them: an expression that parses to the same query.
func (e exprTerms) respell(rng *rand.Rand) string {
	lists := [][]string{e.filters, e.sorts, e.rest}
	if rng.Intn(2) == 0 {
		lists[2] = []string{}
		for _, i := range rng.Perm(len(e.rest)) {
			lists[2] = append(lists[2], e.rest[i])
		}
	}
	space := []string{" ", "  ", "\t", " \n "}
	var b strings.Builder
	b.WriteString(space[rng.Intn(len(space))])
	for len(lists[0])+len(lists[1])+len(lists[2]) > 0 {
		k := rng.Intn(3)
		if len(lists[k]) == 0 {
			continue
		}
		b.WriteString(lists[k][0])
		b.WriteString(space[rng.Intn(len(space))])
		lists[k] = lists[k][1:]
	}
	return b.String()
}

// genExpr draws an expression over recs: 0–3 filters over every op
// (literals mostly taken from the rows, so equality matches), then
// shape%4 sort keys, a limit when shape&4 is set and a projection when
// shape&8 is set.
func genExpr(rng *rand.Rand, recs []query.Record, shape int) exprTerms {
	numeric := []string{"index", "seed", "tiers", "grid", "steps", "cache_hit",
		"max_temp", "hotspot_avg", "pump_power", "total_energy", "perf_degradation", "mean_flow"}
	text := []string{"policy", "cooling", "workload", "solver", "sweep"}
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	var e exprTerms
	for range rng.Intn(4) {
		field := numeric[rng.Intn(len(numeric))]
		if rng.Intn(3) == 0 {
			field = text[rng.Intn(len(text))]
		}
		var lit string
		switch v := recs[rng.Intn(len(recs))][field].(type) {
		case float64:
			lit = strconv.FormatFloat(v, 'g', -1, 64)
		case nil:
			lit = "1"
		default:
			lit = fmt.Sprint(v)
		}
		if lit == "true" || lit == "false" || rng.Intn(5) == 0 {
			lit = []string{"0", "60", "liquid", "LB", "zzz"}[rng.Intn(5)]
		}
		e.filters = append(e.filters, field+ops[rng.Intn(len(ops))]+lit)
	}
	all := query.FieldNames()
	for range shape % 4 {
		key := "sort:" + all[rng.Intn(len(all))]
		if rng.Intn(2) == 0 {
			key = "sort:-" + key[len("sort:"):]
		}
		e.sorts = append(e.sorts, key)
	}
	if shape&4 != 0 {
		e.rest = append(e.rest, "limit:"+strconv.Itoa(1+rng.Intn(8)))
	}
	if shape&8 != 0 {
		perm := rng.Perm(len(all))[:1+rng.Intn(5)]
		fields := make([]string, len(perm))
		for i, p := range perm {
			fields[i] = all[p]
		}
		e.rest = append(e.rest, "fields:"+strings.Join(fields, ","))
	}
	return e
}

// TestResultsAnswerMatchesFreshEvaluation checks the answer cache on
// seeded generated queries over three registered sweeps (every filter
// op; 0–3 sort keys, each with and without a limit and a projection):
// in every format (the default spelt both "" and "table"), over all
// sweeps and each one alone, the first answer, its repeat and an
// equivalent respelling (GET or POST) are byte-identical — status,
// Content-Type and body — to a fresh evaluation, and the repeat and the
// respelling are served from the cache.
func TestResultsAnswerMatchesFreshEvaluation(t *testing.T) {
	s, ts := newTestServer(t)
	h := s.Handler()
	reps := []sweep.Report{
		runSweep(t, ts.URL),
		postSweep(t, ts.URL, `{"coolings":["liquid"],"policies":["LC_FUZZY","LC_PID"],"seeds":[1,2,3],"steps":3,"grid":6}`),
		postSweep(t, ts.URL, `{"coolings":["air"],"policies":["LB","TDVFS_LB"],"workloads":["web","mm"],"steps":2,"grid":6,"solvers":["direct"]}`),
	}
	sweeps := []string{""}
	var recs []query.Record
	for _, rep := range reps {
		sweeps = append(sweeps, rep.SweepID)
		for _, r := range rep.Results {
			recs = append(recs, query.FromResult(rep.SweepID, r))
		}
	}
	formats := []string{"", "table", "ndjson", "json"}
	rng := rand.New(rand.NewSource(24))
	ops := map[string]bool{}
	for n := 0; n < 32; n++ {
		e := genExpr(rng, recs, n)
		expr := e.canonical()
		q, err := query.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range q.Filters {
			ops[f.Op] = true
		}
		for _, format := range formats {
			for _, sweepID := range sweeps {
				want := freshAnswer(t, s.results, expr, format, sweepID)
				before := s.results.stats()
				if got := askGet(h, expr, format, sweepID); got != want {
					t.Fatalf("q=%q format=%q sweep=%q: first answer\n%+v\nwant\n%+v", expr, format, sweepID, got, want)
				}
				if got := askGet(h, expr, format, sweepID); got != want {
					t.Fatalf("q=%q format=%q sweep=%q: repeated answer\n%+v\nwant\n%+v", expr, format, sweepID, got, want)
				}
				alt, altFormat := e.respell(rng), format
				switch format {
				case "":
					altFormat = "table"
				case "table":
					altFormat = ""
				}
				var got reply
				if rng.Intn(2) == 0 {
					got = askGet(h, alt, altFormat, sweepID)
				} else {
					got = askPost(t, h, ResultsQueryRequest{Query: alt, Format: altFormat, Sweep: sweepID})
				}
				if got != want {
					t.Fatalf("q=%q (respelt %q) format=%q sweep=%q: answer\n%+v\nwant\n%+v", expr, alt, altFormat, sweepID, got, want)
				}
				if after := s.results.stats(); after.AnswerHits < before.AnswerHits+2 {
					t.Fatalf("q=%q format=%q sweep=%q: %d answers served from the cache, want the repeat and the respelling",
						expr, format, sweepID, after.AnswerHits-before.AnswerHits)
				}
			}
		}
	}
	if len(ops) != 6 {
		t.Fatalf("generated filters use only the ops %v", ops)
	}
	if st := s.results.stats(); st.Answers == 0 || st.Answers > maxAnswers {
		t.Fatalf("answer cache holds %d answers, want 1..%d", st.Answers, maxAnswers)
	}
}

// TestResultsAnswerAfterRegister pins the generation: after a Register
// the next answer shows the new sweep's rows, and an answer computed
// from tables read before a Register is never kept. Failed answers —
// a 400, a 404, or a formatter error — are never kept either.
func TestResultsAnswerAfterRegister(t *testing.T) {
	s, ts := newTestServer(t)
	h := s.Handler()
	a := runSweep(t, ts.URL)
	const q = "sort:index fields:sweep,index,cooling,max_temp"
	first := askGet(h, q, "ndjson", "")
	if first.status != http.StatusOK || strings.Count(first.body, a.SweepID) != 4 {
		t.Fatalf("first answer: %+v", first)
	}
	if again := askGet(h, q, "ndjson", ""); again != first || s.results.stats().AnswerHits != 1 {
		t.Fatalf("repeat not served from the cache: %+v, stats %+v", again, s.results.stats())
	}

	b := postSweep(t, ts.URL, `{"coolings":["liquid"],"policies":["LC_FUZZY"],"seeds":[7,8],"steps":2,"grid":6}`)
	next := askGet(h, q, "ndjson", "")
	if next != freshAnswer(t, s.results, q, "ndjson", "") || strings.Count(next.body, b.SweepID) != 2 ||
		strings.Count(next.body, a.SweepID) != 4 {
		t.Fatalf("answer after registering %s:\n%s", b.SweepID, next.body)
	}

	// An answer finished after a Register is dropped: its tables
	// belong to the previous generation.
	key := answerKey{query: "fields:sweep", format: "table"}
	_, gen, ring, err := s.results.Tables("")
	if err != nil || !ring {
		t.Fatalf("Tables: ring %v, err %v", ring, err)
	}
	if _, err := s.results.Register(&sweep.Report{Results: []sweep.Result{{Index: 0, Key: "stale-generation"}}}); err != nil {
		t.Fatal(err)
	}
	s.results.keepAnswer(key, gen, &answer{contentType: wantContentType["table"], body: []byte("stale\n")})
	if _, ok := s.results.cachedAnswer(key); ok {
		t.Fatal("an answer computed before a Register was kept")
	}

	// Failed answers are never kept: 400s, 404s, and an ndjson answer
	// whose NaN metric JSON cannot encode.
	nan := &sweep.Report{Results: []sweep.Result{{Index: 0, Key: "nan-row",
		Scenario: jobs.Scenario{Policy: "LB"}, Metrics: &sim.Metrics{PeakTempC: math.NaN()}}}}
	if _, err := s.results.Register(nan); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			q, format, sweep string
			status           int
		}{
			{q: "max_temp<", status: http.StatusBadRequest},
			{q: "max_tmp>60", status: http.StatusBadRequest},
			{q: "", format: "xml", status: http.StatusBadRequest},
			{q: "sort:index", sweep: "sw-doesnotexist00", status: http.StatusNotFound},
			{q: "fields:max_temp", format: "ndjson", sweep: SweepID(nan.Results), status: http.StatusOK},
		} {
			if got := askGet(h, tc.q, tc.format, tc.sweep); got.status != tc.status {
				t.Fatalf("q=%q format=%q sweep=%q: status %d, want %d (%s)", tc.q, tc.format, tc.sweep, got.status, tc.status, got.body)
			}
		}
	}
	if st := s.results.stats(); st.Answers != 0 || st.AnswerHits != 1 {
		t.Fatalf("failed answers were kept or served: %+v", st)
	}
	// The same NaN row in the table format answers, and is kept.
	askGet(h, "fields:max_temp", "table", SweepID(nan.Results))
	if st := s.results.stats(); st.Answers != 1 {
		t.Fatalf("a successful answer was not kept: %+v", st)
	}
}

// TestResultsAnswerDurableOnlyNotKept covers the durable tier: after a
// restart, a durable-only sweep with one row's metrics missing from the
// store answers without them, and once those metrics are Put the next
// identical query includes them — its answers are never kept. An answer
// over a ring sweep alone is kept beside it.
func TestResultsAnswerDurableOnlyNotKept(t *testing.T) {
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
	h := s2.Handler()

	missing := rep.Results[1].Key
	val, ok, err := st2.GetLocal(missing)
	if err != nil || !ok {
		t.Fatalf("row metrics not in the store: ok %v, err %v", ok, err)
	}
	if err := st2.Delete(missing); err != nil {
		t.Fatal(err)
	}
	const q = "max_temp>0 sort:index fields:sweep,index,max_temp"
	rows := func(sweepID string, want int) {
		t.Helper()
		for round := 0; round < 2; round++ {
			got := askGet(h, q, "ndjson", sweepID)
			if got != freshAnswer(t, s2.results, q, "ndjson", sweepID) {
				t.Fatalf("sweep=%q: answer differs from a fresh evaluation:\n%s", sweepID, got.body)
			}
			if n := strings.Count(got.body, "\n"); n != want {
				t.Fatalf("sweep=%q: %d rows, want %d:\n%s", sweepID, n, want, got.body)
			}
		}
	}
	for _, sweepID := range []string{"", rep.SweepID} {
		rows(sweepID, 3)
	}
	if err := st2.Put(missing, val); err != nil {
		t.Fatal(err)
	}
	for _, sweepID := range []string{"", rep.SweepID} {
		rows(sweepID, 4)
	}
	if st := s2.results.stats(); st.Answers != 0 || st.AnswerHits != 0 {
		t.Fatalf("answers over a durable-only sweep were kept: %+v", st)
	}

	// A new sweep lives in the ring: an answer over it alone is kept,
	// one that also reads the durable-only sweep is not.
	b := postSweep(t, ts2.URL, `{"coolings":["liquid"],"policies":["LC_FUZZY"],"seeds":[7,8],"steps":2,"grid":6}`)
	rows(b.SweepID, 2)
	rows("", 6)
	if st := s2.results.stats(); st.Answers != 1 || st.AnswerHits != 1 {
		t.Fatalf("want only the ring sweep's answer kept and served once: %+v", st)
	}
}

// TestResultsAnswerRacesRegister races queries from several goroutines
// against Register: every answer to a query sent after Register(X)
// returned holds all of X's rows. Run it under -race.
func TestResultsAnswerRacesRegister(t *testing.T) {
	eng := &sweep.Engine{Pool: jobs.NewPool(2)}
	var reps []*sweep.Report
	for k := range 24 {
		var batch []jobs.Scenario
		for seed := range 2 {
			batch = append(batch, jobs.Scenario{Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
				Steps: 1, Grid: 4, Seed: int64(2*k + seed + 1)})
		}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	s := New(Options{Workers: 2, QueueDepth: 16})
	defer s.Close()
	h := s.Handler()
	var registered atomic.Int64
	check := func() error {
		n := int(registered.Load())
		got := askGet(h, "sort:index fields:sweep,index", "table", "")
		if got.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", got.status, got.body)
		}
		for _, rep := range reps[:n] {
			if c := strings.Count(got.body, SweepID(rep.Results)); c != len(rep.Results) {
				return fmt.Errorf("answer after %d registrations holds %d of sweep %s's %d rows:\n%s",
					n, c, SweepID(rep.Results), len(rep.Results), got.body)
			}
		}
		return nil
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, rep := range reps {
		if _, err := s.results.Register(rep); err != nil {
			t.Fatal(err)
		}
		registered.Add(1)
		if err := check(); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatsResultsShape pins the /v1/stats results block's wire shape
// and its counts after one miss and one hit.
func TestStatsResultsShape(t *testing.T) {
	s, ts := newTestServer(t)
	runSweep(t, ts.URL)
	for range 2 {
		if got := askGet(s.Handler(), "sort:index", "", ""); got.status != http.StatusOK {
			t.Fatalf("query: %+v", got)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw := decode[map[string]any](t, resp, http.StatusOK)
	got := map[string]bool{}
	jsonKeyPaths("", raw["results"], got)
	var paths []string
	for p := range got {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	if golden := []string{"answer_hits", "answer_misses", "answers"}; !reflect.DeepEqual(paths, golden) {
		t.Fatalf("results stats shape %v, want %v", paths, golden)
	}
	if st := getStatsResp(t, ts.URL).Results; st != (ResultsStats{AnswerHits: 1, AnswerMisses: 1, Answers: 1}) {
		t.Fatalf("results stats after a miss and a hit: %+v", st)
	}
}
