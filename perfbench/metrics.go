package main

import (
	"context"
	"io"
	"path"

	"repro/internal/jobs"
	"repro/internal/query"
)

// metricDef names one metric as BENCHMARK.json lists it; moves names
// the end-to-end metric (and workload) a per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics every untraced run reports. Each workload
// maps main and side to its own request classes (see workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"req_per_s", "1/s", "higher", ""},
	{"main_p50_ms", "ms", "lower", ""},
	{"side_p50_ms", "ms", "lower", ""},
	{"peak_heap_mb", "MB", "lower", ""},
}

var (
	routes = []string{"simulate", "sweeps", "studies", "query"}
	layers = []string{"http", "server", "store"}
)

// Where each layer's work should show end to end.
const (
	movesHTTP    = "serve-mix main_p50_ms (hit), side_p50_ms (query); replica-heal main_p50_ms (store hit)"
	movesCompute = "policy-compute main_p50_ms (sweep), side_p50_ms (study), req_per_s"
	movesJobs    = "serve-mix main_p50_ms (hit); replica-heal main_p50_ms (store hit)"
	movesThermal = "policy-compute main_p50_ms (sweep)"
	movesMat     = "policy-compute main_p50_ms (sweep, direct), side_p50_ms (study, bicgstab); serve-mix req_per_s (cold)"
	movesStore   = "replica-heal main_p50_ms (store hit), side_p50_ms (reopen), req_per_s; serve-mix req_per_s (cold)"
	movesQuery   = "serve-mix side_p50_ms (query)"
	movesRuntime = "peak_heap_mb; serve-mix tail of hits"
)

// perLayer are the metrics every traced run reports: counts per
// request from /v1/stats deltas, times from spans and direct calls.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better, moves string) { d = append(d, metricDef{name, unit, better, moves}) }
	for _, r := range routes {
		moves := movesHTTP
		if r == "sweeps" || r == "studies" {
			moves = movesCompute
		}
		add("server.handler_us."+r, "us", "lower", moves)
		add("http.transport_us."+r, "us", "lower", moves)
		add("server.resp_bytes."+r, "B", "lower", moves)
	}
	add("jobs.cache.hit_us", "us", "lower", movesJobs)
	add("jobs.codec.encode_us", "us", "lower", movesJobs)
	add("jobs.codec.decode_us", "us", "lower", movesJobs)
	add("jobs.cache.hits", "count/req", "higher", movesJobs)
	add("jobs.cache.misses", "count/req", "lower", movesJobs)
	add("jobs.cache.store_hits", "count/req", "higher", movesJobs)
	add("jobs.cache.store_puts", "count/req", "lower", movesJobs)
	add("jobs.scenarios_computed", "count/req", "lower", movesJobs)
	add("sweep.groups", "count/req", "lower", movesCompute)
	add("plan.groups_planned", "count/req", "lower", movesCompute)
	add("plan.est_ms", "ms/req", "lower", movesCompute)
	add("plan.actual_ms", "ms/req", "lower", movesCompute)
	for _, m := range []struct{ name, better string }{
		{"batch_solves", "lower"}, {"batched_columns", "higher"}, {"solo_solves", "lower"},
		{"fixed_point_skips", "higher"}, {"assemblies", "lower"}, {"assembly_shares", "higher"},
	} {
		add("thermal."+m.name, "count/req", m.better, movesThermal)
	}
	add("mat.factorizations", "count/req", "lower", movesMat)
	add("mat.refactors", "count/req", "lower", movesMat)
	add("mat.prep_shares", "count/req", "higher", movesMat)
	// The workloads solve with bicgstab (studies, cold computes) and
	// direct (sweeps); direct does no iterations.
	add("mat.solves.bicgstab", "count/req", "lower", movesMat)
	add("mat.iterations.bicgstab", "count/req", "lower", movesMat)
	add("mat.solves.direct", "count/req", "lower", movesMat)
	add("mat.factor_ms", "ms/req", "lower", movesMat)
	add("store.get_us", "us", "lower", movesStore)
	add("store.put_us", "us", "lower", movesStore)
	add("store.open_ms", "ms", "lower", movesStore)
	add("store.close_ms", "ms", "lower", movesStore)
	for _, m := range []struct{ name, better string }{
		{"wal.appends", "lower"}, {"wal.fsyncs", "lower"},
		{"pool.hits", "higher"}, {"pool.misses", "lower"},
	} {
		add("store."+m.name, "count/req", m.better, movesStore)
	}
	add("query.parse_us", "us", "lower", movesQuery)
	add("query.run_us", "us", "lower", movesQuery)
	add("query.format_us", "us", "lower", movesQuery)
	add("query.rows", "count", "lower", movesQuery)
	add("go.alloc_bytes_per_req", "B/req", "lower", movesRuntime)
	add("go.gc_cycles", "count/req", "lower", movesRuntime)
	for _, l := range layers {
		add("trace.self_us."+l, "us/req", "lower", "the layer's share of every end-to-end time")
	}
	add("trace.overhead_pct", "%", "lower", "none: traced against untraced wall time, one client")
	return d
}()

// sumPaths adds every flattened /v1/stats counter whose path matches
// pattern (path.Match syntax; '*' stops at no dot).
func sumPaths(c map[string]float64, pattern string) float64 {
	sum := 0.0
	for k, v := range c {
		if ok, _ := path.Match(pattern, k); ok {
			sum += v
		}
	}
	return sum
}

// countMetrics maps /v1/stats deltas summed over a phase to the
// per-request layer counts. Absent blocks read as zero.
func countMetrics(c map[string]float64, reqs float64) map[string]float64 {
	per := func(v float64) float64 { return v / reqs }
	m := map[string]float64{
		"jobs.cache.hits":           per(c["cache_stats.hits"]),
		"jobs.cache.misses":         per(c["cache_stats.misses"]),
		"jobs.cache.store_hits":     per(c["cache_stats.store_hits"]),
		"jobs.cache.store_puts":     per(c["cache_stats.store_puts"]),
		"jobs.scenarios_computed":   per(c["scenarios_computed"]),
		"sweep.groups":              per(c["sweeps.groups"]),
		"plan.groups_planned":       per(c["planner.groups_planned"]),
		"plan.est_ms":               per(c["planner.est_ns_total"] / 1e6),
		"plan.actual_ms":            per(c["planner.actual_ns_total"] / 1e6),
		"thermal.batch_solves":      per(c["sweeps.batch.batch_solves"]),
		"thermal.batched_columns":   per(c["sweeps.batch.batched_columns"]),
		"thermal.solo_solves":       per(c["sweeps.batch.solo_solves"]),
		"thermal.fixed_point_skips": per(c["sweeps.batch.fixed_point_skips"]),
		"thermal.assemblies":        per(c["sweeps.assemblies.assemblies"]),
		"thermal.assembly_shares":   per(c["sweeps.assemblies.shares"]),
		"mat.factorizations":        per(sumPaths(c, "solver.*.factorizations")),
		"mat.refactors":             per(c["sweeps.prep.refactors"]),
		"mat.prep_shares":           per(c["sweeps.prep.shares"]),
		"mat.factor_ms":             per(sumPaths(c, "ordering_factor_ns.*") / 1e6),
		"store.wal.appends":         per(c["store.wal.appends"]),
		"store.wal.fsyncs":          per(c["store.wal.fsyncs"]),
		"store.pool.hits":           per(c["store.pool.hits"]),
		"store.pool.misses":         per(c["store.pool.misses"]),
		"mat.solves.bicgstab":       per(c["solver.bicgstab.solves"]),
		"mat.iterations.bicgstab":   per(c["solver.bicgstab.iterations"]),
		"mat.solves.direct":         per(c["solver.direct.solves"]),
	}
	return m
}

// spanMetrics derives the per-route and per-store-call times of a
// traced phase from its nested spans.
func spanMetrics(spans []span, reqs float64) map[string]float64 {
	serverChild := map[int]int64{}
	for i := range spans {
		if spans[i].Layer == "server" && spans[i].Parent != 0 {
			serverChild[spans[i].Parent] += spans[i].dur()
		}
	}
	handler := map[string][]float64{}
	transport := map[string][]float64{}
	bytes := map[string][]float64{}
	named := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		us := float64(s.dur()) / 1e3
		named[s.Name] = append(named[s.Name], us)
		if s.Req == 0 {
			continue
		}
		switch s.Layer {
		case "server":
			handler[s.Name[len("server."):]] = append(handler[s.Name[len("server."):]], us)
		case "http":
			rt := s.Name[len("http."):]
			transport[rt] = append(transport[rt], float64(s.dur()-serverChild[s.ID])/1e3)
			bytes[rt] = append(bytes[rt], float64(s.Bytes))
		}
	}
	m := map[string]float64{
		"store.get_us":   median(named["store.get"]),
		"store.put_us":   median(named["store.put"]),
		"store.open_ms":  median(named["store.open"]) / 1e3,
		"store.close_ms": median(named["store.close"]) / 1e3,
	}
	for _, r := range routes {
		m["server.handler_us."+r] = median(handler[r])
		m["http.transport_us."+r] = median(transport[r])
		m["server.resp_bytes."+r] = mean(bytes[r])
	}
	self := selfTimes(spans)
	for _, l := range layers {
		m["trace.self_us."+l] = self[l] / reqs
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// probeReps is the number of direct calls behind each probe median.
const probeReps = 1000

// probe times direct calls into the jobs and query layers on a live
// fixture: a memory-cache hit on a resident scenario, the metrics codec
// on its value, and serve-mix's query over the registered sweep's rows.
func (e *env) probe(fx fixture) (map[string]float64, error) {
	r, sc := fx.resident()
	cache := r.srv.Cache()
	ctx := context.Background()
	m, hit, err := cache.Metrics(ctx, sc)
	if err != nil || !hit {
		return nil, violation("resident scenario not served from the cache (hit %v, err %v)", hit, err)
	}
	enc := jobs.EncodeMetrics(m)
	out := map[string]float64{
		"jobs.cache.hit_us": e.tr.timeN("jobs.cache.hit", "jobs", probeReps, func() {
			_, _, _ = cache.Metrics(ctx, sc)
		}),
		"jobs.codec.encode_us": e.tr.timeN("jobs.codec.encode", "jobs", probeReps, func() { jobs.EncodeMetrics(m) }),
		"jobs.codec.decode_us": e.tr.timeN("jobs.codec.decode", "jobs", probeReps, func() { _, _ = jobs.DecodeMetrics(enc) }),
	}
	mf, ok := fx.(*mixFixture)
	if !ok {
		return out, nil
	}
	q, err := query.Parse(mixQuery)
	if err != nil {
		return nil, err
	}
	f, err := query.NewFormatter("")
	if err != nil {
		return nil, err
	}
	res := q.Run(mf.rows)
	out["query.rows"] = float64(len(res))
	out["query.parse_us"] = e.tr.timeN("query.parse", "query", probeReps, func() { _, _ = query.Parse(mixQuery) })
	out["query.run_us"] = e.tr.timeN("query.run", "query", probeReps, func() { q.Run(mf.rows) })
	out["query.format_us"] = e.tr.timeN("query.format", "query", probeReps, func() { _ = f.Format(io.Discard, q.Fields, res) })
	return out, nil
}
