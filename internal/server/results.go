package server

import (
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

// Store keys of the durable tier. Manifests live beside (not inside)
// the scenario-metrics namespace, so the cache's scenario keys and the
// registry's sweep ids can never collide.
const (
	sweepMetaPrefix = "sweepmeta/v1/"
	sweepIndexKey   = "sweepindex/v1"
)

// defaultMemSweeps bounds the in-memory ring.
const defaultMemSweeps = 32

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

// resultsRegistry is the two-tier sweep registry.
type resultsRegistry struct {
	store  *store.Store
	maxMem int

	mu    sync.Mutex
	order []string // in-memory ids, oldest first
	mem   map[string]*query.Table
}

func newResultsRegistry(st *store.Store) *resultsRegistry {
	return &resultsRegistry{store: st, maxMem: defaultMemSweeps, mem: map[string]*query.Table{}}
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
// returns its id. Store errors are returned after the in-memory tier
// is updated: the sweep is queryable either way, just not durable.
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
// tables are uncached: the query reads their records directly.
func (g *resultsRegistry) Tables(id string) ([]*query.Table, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id != "" {
		if t, ok := g.mem[id]; ok {
			return []*query.Table{t}, nil
		}
		if g.store == nil {
			return nil, fmt.Errorf("results: unknown sweep %q", id)
		}
		recs, err := g.loadDurable(id)
		if err != nil {
			return nil, err
		}
		return []*query.Table{query.Uncached(recs)}, nil
	}
	out := make([]*query.Table, 0, len(g.order))
	for _, memID := range g.order {
		out = append(out, g.mem[memID])
	}
	ids, err := g.durableIDs()
	if err != nil {
		return out, err
	}
	for _, durID := range ids {
		if _, inMem := g.mem[durID]; inMem {
			continue
		}
		recs, err := g.loadDurable(durID)
		if err != nil {
			return out, err
		}
		out = append(out, query.Uncached(recs))
	}
	return out, nil
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
	tables, err := s.results.Tables(req.Sweep)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	rows := q.RunTables(tables)
	fields := q.Fields
	if len(fields) == 0 {
		fields = query.DefaultFields
	}
	switch formatter.Name() {
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
	case "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	_ = formatter.Format(w, fields, rows)
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
