package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// DefaultBatchWidth bounds one lockstep batch of a direct group: wide
// enough that the blocked multi-RHS solves amortise the factor
// traversal, narrow enough that a big sweep still fans across the
// pool's workers.
const DefaultBatchWidth = 32

// TransientKey names the scenario properties that must coincide for
// lockstep stepping: the structural key (stack, cooling, grid, solver —
// one matrix sparsity pattern, one time step dt) plus the trace length,
// so every scenario of a group walks the same interval/sub-step
// schedule.
func TransientKey(s jobs.Scenario) string {
	s = s.Normalized()
	return fmt.Sprintf("%s|steps=%d", StructuralKey(s), s.Steps)
}

// groupCaches are the sharing caches of one lockstep group.
type groupCaches struct {
	prep *mat.PrepCache
	asm  *thermal.AssemblyCache
}

// tgroup is one lockstep group during a transient run: the sharing
// caches every chunk of the group plugs into, plus the accumulated
// batching counters.
type tgroup struct {
	key    string
	solver string
	groupCaches
	scenarios int

	mu    sync.Mutex
	batch thermal.BatchStats
}

// chunkWidth is the width rule: a direct group chunks at BatchWidth (0
// selects DefaultBatchWidth; negative or 1 steps solo), every other
// backend at one. Only direct factorizations block
// (mat.BatchFactorization); an iterative chunk wider than one would
// keep more runners live for no blocked solve.
func (e *Engine) chunkWidth(solver string) int {
	switch {
	case solver != mat.BackendDirect:
		return 1
	case e.BatchWidth == 0:
		return DefaultBatchWidth
	case e.BatchWidth < 1:
		return 1
	default:
		return e.BatchWidth
	}
}

// RunTransient executes a transient scenario batch with lockstep
// multi-RHS stepping: scenarios are normalized, validated and
// deduplicated (the first occurrence computes, the rest reuse its
// result), grouped by TransientKey, split into the fewest evenly sized
// chunks of at most chunkWidth (evenChunks), and every chunk advances
// its scenarios in lockstep (sim.RunBatch) — each chunk's thermal
// sub-steps solve all right-hand sides that share a direct
// factorization in one blocked pass, and the whole group shares one
// factor cache and one assembly cache. Those caches start empty and,
// on a miss, adopt the preparations of the same key's group in the last
// transient sweep this engine finished (mat.NewPrepCacheFrom,
// thermal.NewAssemblyCacheFrom); when the sweep ends the caches of its
// direct groups replace that generation, so the engine keeps one
// finished sweep's direct preparations at most. Only direct groups are
// handed on: an iterative group warmed that way ran no faster than a
// fresh one, so its caches would only hold memory. The report's prep
// and assembly counters count the physical work this sweep paid, an
// adoption counting as a share.
// Results are filled through the result cache (batch-aware single-flight
// fills, so concurrent requests for a scenario join the batch's
// computation). Per-scenario metrics are byte-identical to a solo
// jobs.Scenario.Run for every batch width, worker count and engine
// history, and for a given engine history the report is byte-identical
// across worker counts. onResult, when non-nil, observes every Result
// as it completes (any order, one call at a time) — the streaming hook
// behind POST /v1/sweeps. RunTransient fails fast only on validation
// errors, context cancellation, or — with FailFast — the first scenario
// error.
func (e *Engine) RunTransient(ctx context.Context, scenarios []jobs.Scenario, onResult func(Result)) (*Report, error) {
	p, err := newPlan(scenarios)
	if err != nil {
		return nil, err
	}
	n := len(p.norm)

	// Group the distinct scenarios by lockstep compatibility; each group
	// owns the sharing caches, each chunk is one pool task. A group's
	// caches adopt from the same key's group of the last sweep the
	// engine finished.
	e.mu.Lock()
	last := e.last
	e.mu.Unlock()
	groups := map[string]*tgroup{}
	var groupOrder []*tgroup
	groupOf := make([]*tgroup, n)
	memberOf := map[*tgroup][]int{}
	for _, i := range p.distinct {
		gk := TransientKey(p.norm[i])
		g := groups[gk]
		if g == nil {
			prev := last[gk]
			g = &tgroup{key: gk, solver: p.norm[i].Solver, groupCaches: groupCaches{prep: e.newPrepCache(prev.prep),
				asm: thermal.NewAssemblyCacheFrom(prev.asm, e.asmEntries())}}
			groups[gk] = g
			groupOrder = append(groupOrder, g)
		}
		g.scenarios += 1 + len(p.dupsOf[i])
		groupOf[i] = g
		memberOf[g] = append(memberOf[g], i)
	}
	var chunks [][]int
	var chunkGroup []*tgroup
	for _, g := range groupOrder {
		for _, c := range evenChunks(memberOf[g], e.chunkWidth(g.solver)) {
			chunks = append(chunks, c)
			chunkGroup = append(chunkGroup, g)
		}
	}

	runCtx := ctx
	var cancel context.CancelFunc
	if e.FailFast {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	results := make([]Result, n)
	var emitMu sync.Mutex
	emit := func(r Result) {
		results[r.Index] = r
		if onResult != nil {
			emitMu.Lock()
			onResult(r)
			emitMu.Unlock()
		}
	}

	pool := e.Pool
	if pool == nil {
		pool = jobs.NewPool(0)
	}
	_, _ = pool.Run(runCtx, len(chunks), func(ctx context.Context, ci int) error {
		e.runChunk(ctx, chunkGroup[ci], chunks[ci], p, emit, cancel)
		return nil
	})
	// Every chunk has returned: hand this sweep's direct groups' caches
	// to the next one, replacing the previous generation. A cancelled
	// or failed sweep hands them on too; adoption takes only completed,
	// error-free entries.
	next := make(map[string]groupCaches, len(groupOrder))
	for _, g := range groupOrder {
		g.prep.DropPrevious()
		g.asm.DropPrevious()
		if g.solver == mat.BackendDirect {
			next[g.key] = g.groupCaches
		}
	}
	e.mu.Lock()
	e.last = next
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Scenarios skipped by a fail-fast cancellation never ran their
	// emitter: fill their slots so the report stays self-describing.
	for _, i := range p.distinct {
		if results[i].Key != "" {
			continue
		}
		err := fmt.Errorf("sweep: skipped after batch failure: %w", context.Canceled)
		for _, d := range append([]int{i}, p.dupsOf[i]...) {
			results[d] = Result{Index: d, Key: p.keys[d], Group: groupOf[i].key,
				Scenario: p.norm[d], Err: err, Error: err.Error()}
		}
	}

	rep := &Report{Results: results, Scenarios: n, Batch: &BatchReport{Chunks: len(chunks)}}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			rep.Errors++
			continue
		}
		if r.CacheHit {
			rep.CacheHits++
		}
		if r.Metrics != nil {
			rep.Solver.Accumulate(r.Metrics.Solver)
		}
	}
	for _, g := range groupOrder {
		asm := g.asm.Stats()
		gs := GroupStats{Key: g.key, Scenarios: g.scenarios, Distinct: g.prep.Len(),
			Prep: g.prep.Stats(), Assemblies: &asm}
		rep.Groups = append(rep.Groups, gs)
		rep.Prep.Accumulate(gs.Prep)
		rep.Batch.Assemblies.Accumulate(asm)
		rep.Batch.BatchStats.Accumulate(g.batch)
		e.recordFactorNs(g.prep)
	}
	if e.FailFast && rep.Errors > 0 {
		// Surface the root cause, not a skipped scenario's cancellation.
		first := rep.FirstFailure()
		return rep, fmt.Errorf("sweep: scenario %d (%s/%s/%s): %w", first,
			p.norm[first].Cooling, p.norm[first].Policy, p.norm[first].Workload, results[first].Err)
	}
	return rep, nil
}

// evenChunks splits a lockstep group's members into the fewest chunks
// of at most width, with sizes differing by at most one and each chunk
// a contiguous run of idxs. Cutting width-sized chunks from the front
// would run a 50-scenario group as 32 beside 18, leaving one of two
// workers idle once its 18 finish; split evenly it runs as 25+25.
// Contiguous runs keep same-policy scenarios together, so they share
// more factorizations per blocked solve than a strided split would.
// The split depends on the group and width alone, never on the pool's
// worker count: the report's batch block follows chunk composition and
// must stay identical across worker counts.
func evenChunks(idxs []int, width int) [][]int {
	n := len(idxs)
	count := (n + width - 1) / width
	out := make([][]int, count)
	for k := range out {
		out[k] = idxs[k*n/count : (k+1)*n/count]
	}
	return out
}

// asmEntries maps the engine's PrepEntries convention onto the assembly
// cache bound (assemblies are keyed like preparations: one per distinct
// flow vector, plus the derived per-dt systems).
func (e *Engine) asmEntries() int {
	max := e.PrepEntries
	if max == 0 {
		return 2 * DefaultPrepEntries
	}
	if max < 0 {
		return 0
	}
	return 2 * max
}

// runChunk advances one lockstep chunk: resolve every scenario against
// the result cache (reserving single-flight slots for the ones this
// chunk computes), build their runners, drive them in lockstep, then
// publish and emit each outcome. Failures stay per-scenario; with
// FailFast the first one cancels the batch.
func (e *Engine) runChunk(ctx context.Context, g *tgroup, idxs []int, p *plan, emit func(Result), cancel context.CancelFunc) {
	sh := jobs.Shared{Prep: g.prep, Assemblies: g.asm}
	emitScenario := func(i int, m *sim.Metrics, hit bool, err error) {
		r := Result{Index: i, Key: p.keys[i], Group: g.key, Scenario: p.norm[i], Metrics: m, CacheHit: hit}
		if err != nil {
			r.Err = err
			r.Error = err.Error()
			// Errors flow to the report through the emitted result; with
			// FailFast the first one also cancels the batch.
			if cancel != nil {
				cancel()
			}
		}
		emit(r)
		for _, d := range p.dupsOf[i] {
			dr := r
			dr.Index = d
			if err == nil {
				dr.Metrics = m.Clone()
				dr.CacheHit = true
			}
			emit(dr)
		}
	}

	// Acquire the chunk's single-flight slots in global key order: a
	// join on a key another sweep is computing blocks while this chunk
	// already holds reservations, so every holder must only ever wait on
	// keys greater than all keys it holds — ascending acquisition makes
	// the wait-for chain strictly increasing and a deadlock between
	// concurrent overlapping sweeps impossible. Emission order is
	// unordered by contract and results are slotted by batch index, so
	// the reordering is invisible in the report.
	order := append([]int(nil), idxs...)
	sort.Slice(order, func(a, b int) bool { return p.keys[order[a]] < p.keys[order[b]] })

	var runners []*sim.Runner
	var slots []int // batch index per runner
	var flights []*jobs.Flight
	for _, i := range order {
		if ctx.Err() != nil {
			break
		}
		v, cached, fl, err := e.Cache.StartFlight(ctx, p.keys[i])
		if err != nil || fl == nil {
			// Cached, joined, or canceled while joining: no run needed.
			var m *sim.Metrics
			if err == nil {
				if mv, ok := v.(*sim.Metrics); ok {
					m = mv.Clone()
				}
			}
			emitScenario(i, m, cached, err)
			continue
		}
		rn, err := p.norm[i].NewRunner(ctx, sh)
		if err != nil {
			fl.Complete(nil, err)
			emitScenario(i, nil, false, err)
			continue
		}
		runners = append(runners, rn)
		slots = append(slots, i)
		flights = append(flights, fl)
	}
	metrics, errs, bstats := sim.RunBatch(ctx, runners)
	g.mu.Lock()
	g.batch.Accumulate(bstats)
	g.mu.Unlock()
	for k := range runners {
		m, err := metrics[k], errs[k]
		flights[k].Complete(m, err)
		var rm *sim.Metrics
		if err == nil {
			rm = m.Clone()
		}
		emitScenario(slots[k], rm, false, err)
	}
}
