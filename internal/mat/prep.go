package mat

import (
	"sync"
	"time"
)

// PrepCache shares the expensive per-matrix solver preparation —
// factorisations and preconditioners — across the models of a sweep
// group. Scenarios built from the same stack, grid and time step
// assemble bit-identical matrices whenever their cavity flows coincide
// (matrix assembly is deterministic), so a 100-point sweep revisits the
// same handful of left-hand sides over and over; the cache lets the
// whole group pay for each distinct matrix once and stamp out cheap
// per-caller workspaces everywhere else.
//
// Lookup is keyed by the backend's FactorKey plus a caller-supplied
// semantic tag (e.g. the cavity-flow vector and time step), and every
// hit is verified by exact matrix equality before reuse — a tag
// collision can cost a redundant factorisation, never a wrong solve. A
// precomputed content checksum short-circuits the common miss (distinct
// matrices under one tag); the O(nnz) equality walk runs only on
// checksum agreement, as the confirming check.
//
// Sharing is invisible in results and workspace stats: workspaces
// derived from a shared factorization report the same logical counters
// (Factorizations: 1) as standalone preparation, so metrics are
// bit-identical whether or not a cache was plugged in. The physical
// work actually saved is reported by Stats.
//
// Consecutive sweeps of one group hand their preparations on (see
// NewPrepCacheFrom): a cache built from the previous generation starts
// empty and, on a miss, adopts that generation's completed, error-free
// factorization of an equal matrix (the same checksum and Equal check
// as a hit) or ordering of an equal pattern instead of preparing its
// own. Adoptions count as Shares, never as
// Factorizations, so Stats keeps counting the physical work this
// generation paid.
//
// A PrepCache is safe for concurrent use; concurrent requests for the
// same matrix single-flight the factorisation.
type PrepCache struct {
	mu      sync.Mutex
	max     int
	prev    *PrepCache // generation adopted from on a miss; nil once dropped
	entries map[string][]*prepEntry
	ords    map[string][]*ordEntry
	ordAggs map[string]*ordAgg
	n       int
	stats   PrepStats
}

type prepEntry struct {
	a    *Sparse
	ck   uint64 // a.Checksum(), snapshotted at insert
	done chan struct{}
	fact Factorization
	err  error
}

// ordEntry memoises one fill-reducing-ordering choice per sparsity
// pattern (orderings are pure functions of the pattern, so reuse is
// bit-invisible). Single-flighted like prepEntry so the reuse counters
// stay deterministic under concurrency.
type ordEntry struct {
	a    *Sparse
	done chan struct{}
	ch   OrderingChoice
}

// ordAgg accumulates the per-ordering physical-factorisation outcomes.
type ordAgg struct {
	count   int
	fillSum float64
	ns      int64
}

// PrepStats counts the physical preparation work of a cache — the
// counters sweep reports surface as "factorization sharing". With an
// unexceeded capacity the counters are deterministic for a
// deterministic scenario set, independent of worker scheduling.
type PrepStats struct {
	// Factorizations counts matrices actually factored (cache misses and
	// overflow preparations).
	Factorizations int `json:"factorizations"`
	// Shares counts workspaces served from an existing factorization,
	// including single-flight joins.
	Shares int `json:"shares"`
	// Overflows counts preparations performed uncached because the
	// capacity bound was reached (also included in Factorizations).
	Overflows int `json:"overflows,omitempty"`
	// Fallbacks counts preparations for backends that do not support
	// factorization sharing (also included in Factorizations).
	Fallbacks int `json:"fallbacks,omitempty"`
	// Refactors counts cache misses prepared through the numeric-refresh
	// path (Refactorer.RefactorFrom with a caller-supplied prior
	// factorization) rather than an unconditional cold Factor. Also
	// included in Factorizations; results are bit-identical either way.
	Refactors int `json:"refactors,omitempty"`
	// OrderingReuses counts cold factorisations that reused a memoised
	// per-pattern fill-reducing-ordering choice instead of recomputing
	// it. Reuse is bit-invisible (orderings are pure functions of the
	// pattern).
	OrderingReuses int `json:"ordering_reuses,omitempty"`
	// Orderings aggregates the physical factorisations per concrete
	// ordering (for the "auto" policy, the winners). Every field is a
	// deterministic function of the scenario set — wall-clock factor
	// times live outside PrepStats (PrepCache.OrderingFactorNs) so
	// reports stay bit-identical across worker schedules.
	Orderings map[string]OrderingAgg `json:"orderings,omitempty"`
}

// OrderingAgg aggregates the factorisations one concrete ordering
// served.
type OrderingAgg struct {
	// Factorizations counts physical factorisations under this ordering.
	Factorizations int `json:"factorizations"`
	// MeanFillRatio is the mean measured nnz(L+U)/nnz(A).
	MeanFillRatio float64 `json:"mean_fill_ratio"`
}

// Accumulate folds o's counters into s.
func (s *PrepStats) Accumulate(o PrepStats) {
	s.Factorizations += o.Factorizations
	s.Shares += o.Shares
	s.Overflows += o.Overflows
	s.Fallbacks += o.Fallbacks
	s.Refactors += o.Refactors
	s.OrderingReuses += o.OrderingReuses
	if len(o.Orderings) > 0 {
		if s.Orderings == nil {
			s.Orderings = make(map[string]OrderingAgg, len(o.Orderings))
		}
		for name, oa := range o.Orderings {
			sa := s.Orderings[name]
			if total := sa.Factorizations + oa.Factorizations; total > 0 {
				sa.MeanFillRatio = (sa.MeanFillRatio*float64(sa.Factorizations) +
					oa.MeanFillRatio*float64(oa.Factorizations)) / float64(total)
				sa.Factorizations = total
			}
			s.Orderings[name] = sa
		}
	}
}

// NewPrepCache returns a cache holding at most maxEntries factored
// matrices; maxEntries <= 0 means unbounded. Past the bound new
// matrices are prepared uncached (no eviction — the hot entries of a
// sweep group are its quantised flow levels, which arrive first), so a
// runaway per-cavity policy cannot pin unbounded factor memory.
func NewPrepCache(maxEntries int) *PrepCache {
	return NewPrepCacheFrom(nil, maxEntries)
}

// NewPrepCacheFrom is NewPrepCache for the next generation of a group
// whose previous generation was prev (nil: none): on a miss the new
// cache adopts prev's completed, error-free entry for an equal matrix,
// or prev's ordering for an equal pattern, before preparing one itself.
// Adopted entries count toward maxEntries like prepared ones, and past
// the bound an adoption is served uncached. Call DropPrevious when the
// generation ends, so that handing caches on never chains generations.
func NewPrepCacheFrom(prev *PrepCache, maxEntries int) *PrepCache {
	return &PrepCache{
		max:     maxEntries,
		prev:    prev,
		entries: map[string][]*prepEntry{},
		ords:    map[string][]*ordEntry{},
	}
}

// DropPrevious ends adoption from the previous generation and releases
// it: after the call c holds only what its own generation prepared or
// adopted.
func (c *PrepCache) DropPrevious() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.prev = nil
	c.mu.Unlock()
}

// adoptableLocked returns prev's completed, error-free entry for a
// under key — found by the same checksum and equality check as a hit —
// or nil. Caller holds c.mu; prev never locks c, so the order is safe.
func (c *PrepCache) adoptableLocked(key string, a *Sparse, ck uint64) *prepEntry {
	p := c.prev
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cand := range p.entries[key] {
		if (cand.a == a || (cand.ck == ck && cand.a.Equal(a))) && closed(cand.done) && cand.err == nil {
			return cand
		}
	}
	return nil
}

// closed reports whether ch is closed, without blocking.
func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Len reports the number of cached factorizations.
func (c *PrepCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns a snapshot of the physical-work counters.
func (c *PrepCache) Stats() PrepStats {
	if c == nil {
		return PrepStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if len(c.ordAggs) > 0 {
		st.Orderings = make(map[string]OrderingAgg, len(c.ordAggs))
		for name, ag := range c.ordAggs {
			st.Orderings[name] = OrderingAgg{
				Factorizations: ag.count,
				MeanFillRatio:  ag.fillSum / float64(ag.count),
			}
		}
	}
	return st
}

// OrderingFactorNs reports the total wall-clock nanoseconds spent in
// physical factorisations per concrete ordering. Timing is inherently
// nondeterministic, so it is kept out of PrepStats (which sweep reports
// must reproduce bit-identically across worker schedules) and surfaced
// only through this accessor, for operational endpoints.
func (c *PrepCache) OrderingFactorNs() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ordAggs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(c.ordAggs))
	for name, ag := range c.ordAggs {
		out[name] = ag.ns
	}
	return out
}

// Prepare returns a workspace for a through s, sharing the factorisation
// with every other caller that presented an identical matrix under the
// same backend configuration. The boolean reports whether an existing
// factorization was reused. A nil cache, or a backend that is not a
// Factorizer, degrades to plain s.Prepare.
func (c *PrepCache) Prepare(s Solver, tag string, a *Sparse) (Workspace, bool, error) {
	_, ws, shared, err := c.prepare(s, tag, a, nil)
	return ws, shared, err
}

// PrepareFact is Prepare additionally exposing the factorization behind
// the workspace — the shareable handle lockstep batch solvers group
// their columns by. fact is nil when the backend is not a Factorizer
// (no sharing or batching possible).
func (c *PrepCache) PrepareFact(s Solver, tag string, a *Sparse) (Factorization, Workspace, error) {
	fact, ws, _, err := c.prepare(s, tag, a, nil)
	return fact, ws, err
}

// PrepareFactPrior is PrepareFact with a numeric-refresh hint: on a
// cache miss, a backend implementing Refactorer refreshes prior — a
// factorization of a structurally identical matrix, typically the one
// the caller is superseding — instead of cold-factoring, skipping the
// symbolic analysis. The hint never changes results (refactorisation is
// bit-identical to a cold preparation) and never changes what the cache
// stores or shares; it only makes misses cheaper.
func (c *PrepCache) PrepareFactPrior(s Solver, tag string, a *Sparse, prior Factorization) (Factorization, Workspace, error) {
	fact, ws, _, err := c.prepare(s, tag, a, prior)
	return fact, ws, err
}

// factorWith performs the physical preparation of a miss: the
// numeric-refresh path when a prior factorization is available, a cold
// Factor otherwise. The boolean reports which path ran.
func factorWith(fz Factorizer, a *Sparse, prior Factorization) (Factorization, bool, error) {
	if prior != nil {
		if rf, ok := fz.(Refactorer); ok {
			fact, err := rf.RefactorFrom(prior, a)
			return fact, true, err
		}
	}
	fact, err := fz.Factor(a)
	return fact, false, err
}

// factorTimed is factorWith under the cache: cold factorisations of
// ordering-aware backends go through the per-pattern ordering memo, and
// the physical preparation is wall-clocked for the per-ordering stats.
func (c *PrepCache) factorTimed(fz Factorizer, a *Sparse, prior Factorization) (Factorization, bool, int64, error) {
	start := time.Now()
	if prior != nil {
		if rf, ok := fz.(Refactorer); ok {
			fact, err := rf.RefactorFrom(prior, a)
			return fact, true, time.Since(start).Nanoseconds(), err
		}
	}
	if ofz, ok := fz.(OrderedFactorizer); ok {
		fact, err := ofz.FactorOrdered(a, c.orderingFor(ofz, a))
		return fact, false, time.Since(start).Nanoseconds(), err
	}
	fact, err := fz.Factor(a)
	return fact, false, time.Since(start).Nanoseconds(), err
}

// orderingFor returns the memoised ordering choice for a's pattern,
// computing and caching it on first sight. The memo is namespaced by
// the configured ordering name and single-flighted, so concurrent
// first sights compute once and the reuse counter stays deterministic.
// Past the capacity bound new patterns are ordered uncached.
func (c *PrepCache) orderingFor(ofz OrderedFactorizer, a *Sparse) OrderingChoice {
	name := ofz.OrderingName()
	c.mu.Lock()
	var e *ordEntry
	for _, cand := range c.ords[name] {
		if cand.a == a || cand.a.SameStructure(a) {
			e = cand
			break
		}
	}
	if e == nil {
		if pe := c.adoptableOrderLocked(name, a); pe != nil {
			if c.max <= 0 || len(c.ords[name]) < c.max {
				c.ords[name] = append(c.ords[name], pe)
			}
			c.stats.OrderingReuses++
			c.mu.Unlock()
			return pe.ch
		}
		if c.max > 0 && len(c.ords[name]) >= c.max {
			c.mu.Unlock()
			return ofz.Order(a)
		}
		e = &ordEntry{a: a, done: make(chan struct{})}
		c.ords[name] = append(c.ords[name], e)
		c.mu.Unlock()
		e.ch = ofz.Order(a)
		close(e.done)
		return e.ch
	}
	c.mu.Unlock()
	<-e.done
	c.mu.Lock()
	c.stats.OrderingReuses++
	c.mu.Unlock()
	return e.ch
}

// adoptableOrderLocked returns prev's completed ordering choice for a's
// pattern under the named ordering, or nil. Caller holds c.mu.
func (c *PrepCache) adoptableOrderLocked(name string, a *Sparse) *ordEntry {
	p := c.prev
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cand := range p.ords[name] {
		if (cand.a == a || cand.a.SameStructure(a)) && closed(cand.done) {
			return cand
		}
	}
	return nil
}

// recordOrderingLocked folds one physical preparation's ordering
// outcome into the per-ordering aggregates. Caller holds c.mu.
func (c *PrepCache) recordOrderingLocked(fact Factorization, ns int64) {
	fi, ok := fact.(interface{ FactorInfo() FactorInfo })
	if !ok {
		return
	}
	info := fi.FactorInfo()
	if info.Ordering == "" {
		return
	}
	if c.ordAggs == nil {
		c.ordAggs = map[string]*ordAgg{}
	}
	ag := c.ordAggs[info.Ordering]
	if ag == nil {
		ag = &ordAgg{}
		c.ordAggs[info.Ordering] = ag
	}
	ag.count++
	ag.fillSum += info.FillRatio
	ag.ns += ns
}

func (c *PrepCache) prepare(s Solver, tag string, a *Sparse, prior Factorization) (Factorization, Workspace, bool, error) {
	fz, ok := s.(Factorizer)
	if !ok {
		if c != nil {
			c.mu.Lock()
			c.stats.Factorizations++
			c.stats.Fallbacks++
			c.mu.Unlock()
		}
		ws, err := s.Prepare(a)
		return nil, ws, false, err
	}
	if c == nil {
		fact, _, err := factorWith(fz, a, prior)
		if err != nil {
			return nil, nil, false, err
		}
		return fact, fact.NewWorkspace(), false, nil
	}
	key := fz.FactorKey() + "|" + tag
	ck := a.Checksum()
	for {
		c.mu.Lock()
		var e *prepEntry
		for _, cand := range c.entries[key] {
			// Checksum first: a mismatch proves inequality without the
			// O(nnz) walk; a match is confirmed by full equality before
			// any reuse.
			if cand.a == a || (cand.ck == ck && cand.a.Equal(a)) {
				e = cand
				break
			}
		}
		if e == nil {
			if pe := c.adoptableLocked(key, a, ck); pe != nil {
				if c.max <= 0 || c.n < c.max {
					c.entries[key] = append(c.entries[key], pe)
					c.n++
				}
				c.stats.Shares++
				c.mu.Unlock()
				return pe.fact, pe.fact.NewWorkspace(), true, nil
			}
			if c.max > 0 && c.n >= c.max {
				// Full: prepare uncached rather than evict, so the stats
				// of a within-bound sweep stay deterministic.
				c.stats.Factorizations++
				c.stats.Overflows++
				c.mu.Unlock()
				fact, refact, ns, err := c.factorTimed(fz, a, prior)
				if err != nil {
					return nil, nil, false, err
				}
				c.mu.Lock()
				if refact {
					c.stats.Refactors++
				}
				c.recordOrderingLocked(fact, ns)
				c.mu.Unlock()
				return fact, fact.NewWorkspace(), false, nil
			}
			e = &prepEntry{a: a, ck: ck, done: make(chan struct{})}
			c.entries[key] = append(c.entries[key], e)
			c.n++
			c.mu.Unlock()

			var refact bool
			var ns int64
			e.fact, refact, ns, e.err = c.factorTimed(fz, a, prior)
			c.mu.Lock()
			if e.err != nil {
				// Drop the failed entry so later callers retry.
				bucket := c.entries[key]
				for i, cand := range bucket {
					if cand == e {
						c.entries[key] = append(bucket[:i], bucket[i+1:]...)
						break
					}
				}
				c.n--
			} else {
				c.stats.Factorizations++
				if refact {
					c.stats.Refactors++
				}
				c.recordOrderingLocked(e.fact, ns)
			}
			c.mu.Unlock()
			close(e.done)
			if e.err != nil {
				return nil, nil, false, e.err
			}
			return e.fact, e.fact.NewWorkspace(), false, nil
		}
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			continue // the originating factorisation failed; retry as originator
		}
		c.mu.Lock()
		c.stats.Shares++
		c.mu.Unlock()
		return e.fact, e.fact.NewWorkspace(), true, nil
	}
}
