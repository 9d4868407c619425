package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/jobs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The queryable results surface: every completed transient sweep is
// registered here under a content-addressed id, and /v1/results/query
// answers filter/sort/project expressions (internal/query) over the
// registered rows. Two tiers back the registry: a bounded in-memory
// ring of recent sweeps, and — when a durable store is attached — a
// manifest per sweep (identity rows: scenario, key, group) persisted
// beside the metrics the result cache already writes through. A
// restarted server re-reads manifests and re-joins each row to its
// stored metrics, so queries keep answering across restarts without
// recomputing anything. Each in-memory sweep is kept as a query.Table,
// so the columns a query reads are decoded once per sweep, not once per
// query.
//
// A repeated query does not run at all: the registry keeps the
// formatted bytes of recent answers, keyed by the canonical expression
// (query.Query.String), the format and the sweep id. Every Register
// bumps the registry's generation and drops every kept answer, and an
// answer is kept only if no Register ran between reading its tables and
// finishing it, so a kept answer is always the one a fresh evaluation
// would give. Only answers computed wholly from ring tables are kept:
// an answer that failed, or that read a durable-only sweep (whose rows
// a later write-through can fill in), is evaluated afresh every time.

// Store keys of the durable tier. Manifests live beside (not inside)
// the scenario-metrics namespace, so the cache's scenario keys and the
// registry's sweep ids can never collide.
const (
	sweepMetaPrefix = "sweepmeta/v1/"
	sweepIndexKey   = "sweepindex/v1"
)

// defaultMemSweeps bounds the in-memory ring; maxAnswers and
// maxAnswerBytes bound the answer cache's count and bytes (a larger
// answer is never kept).
const (
	defaultMemSweeps = 32
	maxAnswers       = 64
	maxAnswerBytes   = 1 << 20
)

// sweepManifest is the durable identity record of one sweep: every
// row's scenario, content key and grouping, without metrics (those are
// in the result store under the row's key).
type sweepManifest struct {
	ID   string        `json:"id"`
	Rows []manifestRow `json:"rows"`
}

type manifestRow struct {
	Index    int           `json:"index"`
	Key      string        `json:"key"`
	Group    string        `json:"group,omitempty"`
	CacheHit bool          `json:"cache_hit,omitempty"`
	Error    string        `json:"error,omitempty"`
	Scenario jobs.Scenario `json:"scenario"`
}

// resultsRegistry is the two-tier sweep registry and its answer cache.
type resultsRegistry struct {
	store  *store.Store
	maxMem int

	mu    sync.Mutex
	gen   uint64   // bumped by every Register
	order []string // in-memory ids, oldest first
	mem   map[string]*query.Table

	answers      map[answerKey]*answer // all computed at generation gen
	answerOrder  []answerKey           // kept answers, oldest first
	answerBytes  int
	hits, misses int
}

// answerKey names one answer: everything but the registry's contents
// that its bytes depend on.
type answerKey struct {
	query  string // canonical expression
	format string // formatter name ("" resolved to "table")
	sweep  string
}

// answer is one formatted 200 response of /v1/results/query.
type answer struct {
	contentType string
	body        []byte
}

func (a *answer) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", a.contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.body)
}

func newResultsRegistry(st *store.Store) *resultsRegistry {
	return &resultsRegistry{store: st, maxMem: defaultMemSweeps,
		mem: map[string]*query.Table{}, answers: map[answerKey]*answer{}}
}

// SweepID content-addresses a sweep: the hash of its ordered scenario
// keys. Re-running the same batch yields the same id, so restarts and
// repeats are idempotent in both tiers.
func SweepID(results []sweep.Result) string {
	h := sha256.New()
	for _, r := range results {
		h.Write([]byte(r.Key))
		h.Write([]byte{'\n'})
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Register records one completed transient sweep in both tiers and
// returns its id. It starts a new generation: every kept answer is
// dropped. Store errors are returned after the in-memory tier is
// updated: the sweep is queryable either way, just not durable.
func (g *resultsRegistry) Register(rep *sweep.Report) (string, error) {
	id := SweepID(rep.Results)
	records := make([]query.Record, 0, len(rep.Results))
	for _, r := range rep.Results {
		records = append(records, query.FromResult(id, r))
	}

	g.mu.Lock()
	if _, seen := g.mem[id]; !seen {
		g.order = append(g.order, id)
		for len(g.order) > g.maxMem {
			delete(g.mem, g.order[0])
			g.order = g.order[1:]
		}
	}
	g.mem[id] = query.NewTable(records)
	g.gen++
	clear(g.answers)
	g.answerOrder = g.answerOrder[:0]
	g.answerBytes = 0
	var err error
	if g.store != nil {
		err = g.persistLocked(id, rep)
	}
	g.mu.Unlock()
	return id, err
}

// persistLocked writes the sweep's manifest and links it into the
// durable index (read-modify-write under the registry lock).
func (g *resultsRegistry) persistLocked(id string, rep *sweep.Report) error {
	man := sweepManifest{ID: id, Rows: make([]manifestRow, 0, len(rep.Results))}
	for _, r := range rep.Results {
		man.Rows = append(man.Rows, manifestRow{
			Index: r.Index, Key: r.Key, Group: r.Group,
			CacheHit: r.CacheHit, Error: r.Error, Scenario: r.Scenario,
		})
	}
	raw, err := json.Marshal(man)
	if err != nil {
		return err
	}
	if err := g.store.Put(sweepMetaPrefix+id, raw); err != nil {
		return err
	}
	ids, err := g.durableIDs()
	if err != nil {
		return err
	}
	for _, have := range ids {
		if have == id {
			return nil
		}
	}
	raw, err = json.Marshal(append(ids, id))
	if err != nil {
		return err
	}
	return g.store.Put(sweepIndexKey, raw)
}

// durableIDs reads the persisted sweep index (empty when absent).
func (g *resultsRegistry) durableIDs() ([]string, error) {
	if g.store == nil {
		return nil, nil
	}
	raw, ok, err := g.store.GetLocal(sweepIndexKey)
	if err != nil || !ok {
		return nil, err
	}
	var ids []string
	if err := json.Unmarshal(raw, &ids); err != nil {
		return nil, fmt.Errorf("results: corrupt sweep index: %w", err)
	}
	return ids, nil
}

// loadDurable rebuilds one sweep's records from its manifest and the
// stored metrics. Rows whose metrics are missing from the store keep
// their identity fields (queryable, metric filters exclude them).
func (g *resultsRegistry) loadDurable(id string) ([]query.Record, error) {
	raw, ok, err := g.store.GetLocal(sweepMetaPrefix + id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("results: unknown sweep %q", id)
	}
	var man sweepManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("results: corrupt manifest for %q: %w", id, err)
	}
	records := make([]query.Record, 0, len(man.Rows))
	for _, row := range man.Rows {
		res := sweep.Result{
			Index: row.Index, Key: row.Key, Group: row.Group,
			CacheHit: row.CacheHit, Error: row.Error, Scenario: row.Scenario,
		}
		if row.Error == "" {
			if val, ok, err := g.store.Get(row.Key); err == nil && ok {
				if m, err := jobs.DecodeMetrics(val); err == nil {
					res.Metrics = m
				}
			}
		}
		records = append(records, query.FromResult(id, res))
	}
	return records, nil
}

// SweepInfo describes one registered sweep for GET /v1/results.
type SweepInfo struct {
	ID        string `json:"id"`
	Scenarios int    `json:"scenarios"`
	// InMemory and Durable report which tiers hold the sweep.
	InMemory bool `json:"in_memory"`
	Durable  bool `json:"durable"`
}

// List enumerates both tiers, memory-resident sweeps first (newest
// last, matching registration order), then store-only ones.
func (g *resultsRegistry) List() ([]SweepInfo, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []SweepInfo
	for _, id := range g.order {
		out = append(out, SweepInfo{ID: id, Scenarios: g.mem[id].Len(), InMemory: true})
	}
	ids, err := g.durableIDs()
	if err != nil {
		return out, err
	}
	for _, id := range ids {
		if _, inMem := g.mem[id]; inMem {
			for i := range out {
				if out[i].ID == id {
					out[i].Durable = true
				}
			}
			continue
		}
		info := SweepInfo{ID: id, Durable: true}
		if raw, ok, err := g.store.GetLocal(sweepMetaPrefix + id); err == nil && ok {
			var man sweepManifest
			if json.Unmarshal(raw, &man) == nil {
				info.Scenarios = len(man.Rows)
			}
		}
		out = append(out, info)
	}
	return out, nil
}

// Tables gathers the queryable sweeps: one when id is given, both
// tiers otherwise, in query order: the ring oldest first, then the
// durable-only sweeps in index order (memory wins for sweeps present
// in both). Durable-only sweeps are rebuilt for each query, so their
// tables are uncached: the query reads their records directly. It also
// returns the generation the tables belong to, and whether all of them
// are ring tables, which is when an answer computed from them may be
// kept (keepAnswer).
func (g *resultsRegistry) Tables(id string) (tables []*query.Table, gen uint64, ring bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id != "" {
		if t, ok := g.mem[id]; ok {
			return []*query.Table{t}, g.gen, true, nil
		}
		if g.store == nil {
			return nil, 0, false, fmt.Errorf("results: unknown sweep %q", id)
		}
		recs, err := g.loadDurable(id)
		if err != nil {
			return nil, 0, false, err
		}
		return []*query.Table{query.Uncached(recs)}, g.gen, false, nil
	}
	out := make([]*query.Table, 0, len(g.order))
	for _, memID := range g.order {
		out = append(out, g.mem[memID])
	}
	ids, err := g.durableIDs()
	if err != nil {
		return out, 0, false, err
	}
	ring = true
	for _, durID := range ids {
		if _, inMem := g.mem[durID]; inMem {
			continue
		}
		recs, err := g.loadDurable(durID)
		if err != nil {
			return out, 0, false, err
		}
		out = append(out, query.Uncached(recs))
		ring = false
	}
	return out, g.gen, ring, nil
}

// cachedAnswer returns the answer kept under key, counting a hit or a
// miss. Every kept answer belongs to the current generation.
func (g *resultsRegistry) cachedAnswer(key answerKey) (*answer, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a, ok := g.answers[key]
	if ok {
		g.hits++
	} else {
		g.misses++
	}
	return a, ok
}

// keepAnswer keeps a, computed from tables of generation gen, under
// key, unless a Register has run since (gen is stale) or a is larger
// than maxAnswerBytes. The oldest kept answers make room.
func (g *resultsRegistry) keepAnswer(key answerKey, gen uint64, a *answer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen != g.gen || len(a.body) > maxAnswerBytes {
		return
	}
	if _, ok := g.answers[key]; ok {
		return
	}
	for len(g.answerOrder) >= maxAnswers || g.answerBytes+len(a.body) > maxAnswerBytes {
		old := g.answerOrder[0]
		g.answerBytes -= len(g.answers[old].body)
		delete(g.answers, old)
		g.answerOrder = g.answerOrder[1:]
	}
	g.answers[key] = a
	g.answerOrder = append(g.answerOrder, key)
	g.answerBytes += len(a.body)
}

// ResultsStats is the /v1/stats results block: how /v1/results/query
// requests that passed validation were answered.
type ResultsStats struct {
	// AnswerHits counts answers served from the answer cache,
	// AnswerMisses the ones evaluated afresh.
	AnswerHits   int `json:"answer_hits"`
	AnswerMisses int `json:"answer_misses"`
	// Answers counts the answers the cache holds now.
	Answers int `json:"answers"`
}

func (g *resultsRegistry) stats() ResultsStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return ResultsStats{AnswerHits: g.hits, AnswerMisses: g.misses, Answers: len(g.answers)}
}

// ResultsQueryRequest is the POST body of /v1/results/query. GET
// passes the same parameters as ?q=, ?format=, ?sweep=.
type ResultsQueryRequest struct {
	// Query is the filter/sort/project expression (see internal/query).
	Query string `json:"query"`
	// Format selects the output encoding: table (default), ndjson, json.
	Format string `json:"format,omitempty"`
	// Sweep restricts the query to one registered sweep id.
	Sweep string `json:"sweep,omitempty"`
}

func (s *Server) handleResultsList(w http.ResponseWriter, r *http.Request) {
	infos, err := s.results.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if infos == nil {
		infos = []SweepInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": infos})
}

func (s *Server) handleResultsQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	req := ResultsQueryRequest{
		Query:  params.Get("q"),
		Format: params.Get("format"),
		Sweep:  params.Get("sweep"),
	}
	if r.Method == http.MethodPost {
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w (fields: %s)", err, strings.Join(query.FieldNames(), ", ")))
		return
	}
	if f, ok := unknownField(q); ok {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("query: unknown field %q (have %s)", f, strings.Join(query.FieldNames(), ", ")))
		return
	}
	formatter, err := query.NewFormatter(req.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := answerKey{query: q.String(), format: formatter.Name(), sweep: req.Sweep}
	if a, ok := s.results.cachedAnswer(key); ok {
		a.write(w)
		return
	}
	tables, gen, ring, err := s.results.Tables(req.Sweep)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	rows := q.RunTables(tables)
	fields := q.Fields
	if len(fields) == 0 {
		fields = query.DefaultFields
	}
	var body bytes.Buffer
	err = formatter.Format(&body, fields, rows)
	a := &answer{contentType: contentType(formatter.Name()), body: body.Bytes()}
	if err == nil && ring {
		s.results.keepAnswer(key, gen, a)
	}
	a.write(w)
}

// contentType is the Content-Type of an answer in the named format.
func contentType(format string) string {
	switch format {
	case "ndjson":
		return "application/x-ndjson"
	case "json":
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

var knownFields = func() map[string]bool {
	m := map[string]bool{}
	for _, f := range query.FieldNames() {
		m[f] = true
	}
	return m
}()

func knownField(f string) bool { return knownFields[f] }

// unknownField returns the first field q filters, sorts or projects on
// that no record carries.
func unknownField(q *query.Query) (string, bool) {
	for _, f := range q.Filters {
		if !knownField(f.Field) {
			return f.Field, true
		}
	}
	for _, k := range q.Sort {
		if !knownField(k.Field) {
			return k.Field, true
		}
	}
	for _, f := range q.Fields {
		if !knownField(f) {
			return f, true
		}
	}
	return "", false
}
