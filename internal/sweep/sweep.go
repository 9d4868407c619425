// Package sweep is the batched scenario-sweep engine: it expands
// parameter grids into scenario batches (Grid) and runs every transient
// batch through one path, RunTransient. Scenarios group by lockstep key
// — same stack, thermal grid and solver backend mean the same matrix
// sparsity pattern, matching cavity flows mean the very same left-hand
// side, and the same trace length means the same step schedule — and
// each group runs through a jobs.Pool with one shared mat.PrepCache and
// one shared thermal.AssemblyCache, so an N-point sweep pays for
// O(distinct matrices) factorizations instead of O(N). Consecutive
// sweeps on one Engine share too: each group's caches adopt what the
// same key's direct group of the engine's last finished sweep
// prepared, so a sweep that revisits those matrices pays for none of
// them; the engine keeps that one generation only. A direct group
// also steps its chunks in lockstep through blocked multi-RHS solves;
// every other backend steps solo (see Engine.RunTransient).
//
// The paper's headline results are exactly such sweeps (flow rates ×
// workloads × stack configurations under the fuzzy controller), and the
// design-space/ study entry points (dse.(*Space).ExploreParallel,
// exp.RunStudyOn) and the HTTP service's /v1/dse, /v1/studies and
// /v1/sweeps endpoints all route through this package.
//
// Sharing is result-invariant by construction: matrix assembly is
// deterministic, a shared factorization is bit-identical to a private
// one, and workspace solver counters are logical (see mat.PrepCache) —
// so the engine returns byte-identical results whether it runs on one
// worker or sixteen, at any batch width, with or without sharing, and
// whatever sweeps it ran before. Tests pin this.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// DefaultPrepEntries bounds each group's factor cache: past the bound
// new matrices are solved with private preparations instead of growing
// the cache (a per-cavity policy can visit levels^cavities distinct flow
// vectors; the sweep must not pin that many factorizations). Entries
// adopted from the previous sweep count toward it, so it also bounds
// what one group hands to the next sweep.
const DefaultPrepEntries = 256

// Engine executes scenario batches. The zero value works: a nil Pool
// selects a GOMAXPROCS-wide default per call, a nil Cache disables
// result memoization. One Engine may serve many concurrent sweeps — the
// HTTP service holds exactly one.
type Engine struct {
	// Pool bounds concurrent scenario execution across all sweeps.
	Pool *jobs.Pool
	// Cache memoizes scenario results under their content-addressed key.
	Cache *jobs.Cache
	// PrepEntries bounds each group's shared factor cache: 0 selects
	// DefaultPrepEntries, negative is unbounded.
	PrepEntries int
	// BatchWidth bounds the scenarios one lockstep batch of a direct
	// group advances together in RunTransient: 0 selects
	// DefaultBatchWidth, negative (or 1) steps every scenario solo.
	// Each direct group splits into the fewest chunks of at most this
	// width, sized evenly (see evenChunks); groups of every other
	// backend step solo whatever the width (see chunkWidth). Results
	// are identical for every width; the width only trades
	// blocked-solve locality against cross-chunk parallelism.
	BatchWidth int
	// FailFast cancels the remaining scenarios of a batch after the
	// first failure instead of completing the survivors.
	FailFast bool

	// mu guards what the engine carries from sweep to sweep.
	mu sync.Mutex
	// factorNs is the per-ordering factor wall-time aggregated across
	// every sweep this engine has run. Wall time is inherently
	// nondeterministic, so it lives here — outside the byte-identical
	// reports — and is surfaced through OrderingFactorNs (the /v1/stats
	// solver block).
	factorNs map[string]int64
	// last holds the direct groups' caches of the last transient sweep
	// the engine finished, by lockstep key: the next sweep's group
	// caches adopt from them (see RunTransient). Only that one
	// generation is kept, and no iterative group's caches: a sweep of
	// bicgstab or gmres groups alone leaves last empty.
	last map[string]groupCaches
}

// StructuralKey names the scenario properties that fix the thermal
// system's structure: stack height, cooling technology, grid resolution
// and solver backend. Scenarios sharing a structural key assemble
// matrices with one sparsity pattern — and bit-identical matrices
// whenever their cavity flows coincide — so they share one factor cache.
func StructuralKey(s jobs.Scenario) string {
	s = s.Normalized()
	return fmt.Sprintf("tiers=%d|cooling=%s|grid=%d|solver=%s", s.Tiers, s.Cooling, s.Grid, s.Solver)
}

// Result is the outcome of one scenario of a batch, in batch order.
type Result struct {
	// Index is the scenario's position in the submitted batch.
	Index int `json:"index"`
	// Key is the scenario's content address (jobs.Scenario.Key).
	Key string `json:"key"`
	// Group labels the sharing group the scenario ran in: its lockstep
	// key (TransientKey: structural key + trace length).
	Group string `json:"group"`
	// Scenario echoes the normalized scenario.
	Scenario jobs.Scenario `json:"scenario"`
	// Metrics holds the simulation result (nil on error).
	Metrics *sim.Metrics `json:"metrics,omitempty"`
	// CacheHit reports that the result was served without a fresh solve:
	// from the result cache, or from an identical scenario earlier in
	// the same batch.
	CacheHit bool `json:"cache_hit"`
	// Error carries the failure, if any ("" on the wire when absent).
	Error string `json:"error,omitempty"`
	// Err is the underlying error for in-process callers.
	Err error `json:"-"`
}

// GroupStats reports one lockstep group's sharing outcome.
type GroupStats struct {
	// Key is the lockstep key (TransientKey).
	Key string `json:"key"`
	// Scenarios counts batch members in the group.
	Scenarios int `json:"scenarios"`
	// Distinct counts matrices held by the group's factor cache.
	Distinct int `json:"distinct_matrices"`
	// Prep counts the group's physical preparation work: Factorizations
	// is what the group actually paid, Shares what it avoided.
	Prep mat.PrepStats `json:"prep"`
	// Assemblies counts the group's physical matrix-assembly work (the
	// group shares the assemblies themselves, like its factorizations).
	Assemblies *thermal.AsmStats `json:"assemblies,omitempty"`
}

// Report is the full outcome of one batch.
type Report struct {
	// Results holds one entry per submitted scenario, in batch order.
	Results []Result `json:"results"`
	// Groups holds the lockstep groups in first-appearance order.
	Groups []GroupStats `json:"groups"`
	// Scenarios, Errors and CacheHits count batch outcomes.
	Scenarios int `json:"scenarios"`
	Errors    int `json:"errors"`
	CacheHits int `json:"cache_hits"`
	// Solver aggregates the per-scenario logical solver counters —
	// Factorizations here is what the batch would have cost without
	// sharing; Prep.Factorizations below is what it actually paid.
	Solver mat.SolveStats `json:"solver"`
	// Prep aggregates the physical preparation work across groups.
	Prep mat.PrepStats `json:"prep"`
	// Batch reports the lockstep batching outcome.
	Batch *BatchReport `json:"batch,omitempty"`
	// SweepID is the content-addressed registry id the serving layer
	// assigns when it records the sweep for /v1/results/query (a pure
	// function of the scenario keys — deterministic). Nil-safe: the
	// engine never sets it.
	SweepID string `json:"sweep_id,omitempty"`
}

// BatchReport is the lockstep batching section of a transient sweep's
// report: how much stepping was actually blocked, and how much assembly
// work the group-wide sharing avoided.
type BatchReport struct {
	thermal.BatchStats
	// Chunks counts the lockstep batches the sweep was split into
	// (evenly sized within a group, at most chunkWidth scenarios each).
	Chunks int `json:"chunks"`
	// Assemblies aggregates the physical assembly work across groups.
	Assemblies thermal.AsmStats `json:"assemblies"`
}

// FirstFailure returns the lowest result index holding a root-cause
// error — preferring non-cancellation failures over fail-fast skips —
// or -1 when every result succeeded (or the report is nil). It is the
// error-selection policy behind the engine's FailFast return and the
// study wrappers' labeled errors.
func (r *Report) FirstFailure() int {
	if r == nil {
		return -1
	}
	first := -1
	for i := range r.Results {
		if r.Results[i].Err == nil {
			continue
		}
		if !errors.Is(r.Results[i].Err, context.Canceled) {
			return i
		}
		if first < 0 {
			first = i
		}
	}
	return first
}

// FanOut fans n independent evaluations across pool (nil selects a
// GOMAXPROCS-wide default): values[i] and errs[i] capture evaluation i,
// errs[i] holding ctx.Err() for evaluations skipped after cancellation.
// The returned error is non-nil only when ctx was canceled. It is the
// shared fan-out primitive behind the engine and the DSE explorer.
func FanOut[T any](ctx context.Context, pool *jobs.Pool, n int, eval func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if pool == nil {
		pool = jobs.NewPool(0)
	}
	values := make([]T, n)
	errs, err := pool.Run(ctx, n, func(ctx context.Context, i int) error {
		v, e := eval(ctx, i)
		values[i] = v
		return e
	})
	return values, errs, err
}

// plan is the normalized, validated, deduplicated form of one scenario
// batch — RunTransient's prologue. Only first occurrences of a content
// key run, so the computed/joined flags of duplicates cannot depend on
// scheduling.
type plan struct {
	norm     []jobs.Scenario
	keys     []string
	distinct []int // batch indices of first occurrences
	dupsOf   map[int][]int
}

func newPlan(scenarios []jobs.Scenario) (*plan, error) {
	n := len(scenarios)
	if n == 0 {
		return nil, fmt.Errorf("sweep: empty batch")
	}
	p := &plan{
		norm:   make([]jobs.Scenario, n),
		keys:   make([]string, n),
		dupsOf: map[int][]int{},
	}
	for i, s := range scenarios {
		p.norm[i] = s.Normalized()
		if err := p.norm[i].Validate(); err != nil {
			return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
		}
		p.keys[i] = p.norm[i].Key()
	}
	firstOf := map[string]int{}
	for i, k := range p.keys {
		if f, ok := firstOf[k]; ok {
			p.dupsOf[f] = append(p.dupsOf[f], i)
			continue
		}
		firstOf[k] = i
		p.distinct = append(p.distinct, i)
	}
	return p, nil
}

// newPrepCache applies the engine's capacity convention (0 selects
// DefaultPrepEntries, negative is unbounded) to a cache that adopts
// from prev, the previous generation of its group (nil: none).
func (e *Engine) newPrepCache(prev *mat.PrepCache) *mat.PrepCache {
	max := e.PrepEntries
	if max == 0 {
		max = DefaultPrepEntries
	} else if max < 0 {
		max = 0
	}
	return mat.NewPrepCacheFrom(prev, max)
}

// recordFactorNs folds one retiring group cache's per-ordering factor
// wall-time into the engine aggregate.
func (e *Engine) recordFactorNs(c *mat.PrepCache) {
	ns := c.OrderingFactorNs()
	if len(ns) == 0 {
		return
	}
	e.mu.Lock()
	if e.factorNs == nil {
		e.factorNs = map[string]int64{}
	}
	for name, v := range ns {
		e.factorNs[name] += v
	}
	e.mu.Unlock()
}

// OrderingFactorNs reports the total wall-clock nanoseconds spent in
// physical factorisations per concrete fill-reducing ordering, summed
// over every sweep the engine has completed.
func (e *Engine) OrderingFactorNs() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.factorNs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(e.factorNs))
	for name, v := range e.factorNs {
		out[name] = v
	}
	return out
}
