package thermal

import (
	"sync"

	"repro/internal/mat"
)

// AssemblyCache shares deterministic matrix assemblies — the conductance
// matrix, its boundary right-hand side, the capacitance vector and the
// per-dt backward-Euler left-hand sides derived from them — across the
// structurally identical thermal models of a sweep group. Assembly is
// deterministic, so a model adopting a cached assembly holds
// bit-identical matrices to one that built its own; only the Builder
// work is saved. Combined with mat.PrepCache the whole group pays for
// each distinct (flows, dt) system once: one assembly, one
// factorisation, N cheap workspaces.
//
// Contract: every model plugged into one cache must be built from the
// same configuration — same stack, grid, boundary, coolant and solver
// tolerance — so that entries are fully keyed by the run-time knobs
// (cavity flows, dt). The batch sweep engine guarantees this by handing
// one cache to each structural scenario group. Adopted slices and
// matrices are shared read-only; models never mutate them (reassembly
// always produces fresh storage).
//
// Consecutive sweeps of one group hand their assemblies on (see
// NewAssemblyCacheFrom): on a miss, a cache adopts the previous
// generation's completed product for the same (flows, dt) key. The
// contract above then spans the generations: the sweep engine chains
// only the caches of one lockstep key, which fixes the configuration.
// Adoptions count as Shares, so Stats keeps counting the assemblies
// this generation built.
//
// An AssemblyCache is safe for concurrent use; concurrent requests for
// the same key single-flight the build.
type AssemblyCache struct {
	mu      sync.Mutex
	max     int
	prev    *AssemblyCache // generation adopted from on a miss; nil once dropped
	entries map[string]*asmEntry
	stats   AsmStats
}

// asmEntry is one cached product: either a full assembly (g, rhs, cap)
// or a derived matrix (lhs only), single-flighted.
type asmEntry struct {
	done     chan struct{}
	g        *mat.Sparse
	rhs, cap []float64
}

// AsmStats counts the physical assembly work of a cache.
type AsmStats struct {
	// Assemblies counts matrix products actually built (cache misses and
	// overflow builds).
	Assemblies int `json:"assemblies"`
	// Shares counts adoptions of an existing assembly, including
	// single-flight joins.
	Shares int `json:"shares"`
	// Overflows counts builds performed uncached past the capacity bound
	// (also included in Assemblies).
	Overflows int `json:"overflows,omitempty"`
}

// Accumulate folds o's counters into s.
func (s *AsmStats) Accumulate(o AsmStats) {
	s.Assemblies += o.Assemblies
	s.Shares += o.Shares
	s.Overflows += o.Overflows
}

// NewAssemblyCache returns a cache holding at most maxEntries products;
// maxEntries <= 0 means unbounded. Past the bound new keys are built
// uncached (no eviction — a sweep group's hot entries are its quantised
// flow levels, which arrive first).
func NewAssemblyCache(maxEntries int) *AssemblyCache {
	return NewAssemblyCacheFrom(nil, maxEntries)
}

// NewAssemblyCacheFrom is NewAssemblyCache for the next generation of a
// group whose previous generation was prev (nil: none): on a miss the
// new cache adopts prev's completed product for the key before building
// one. Adopted products count toward maxEntries like built ones, and
// past the bound an adoption is served uncached. Call DropPrevious when
// the generation ends, so that handing caches on never chains
// generations.
func NewAssemblyCacheFrom(prev *AssemblyCache, maxEntries int) *AssemblyCache {
	return &AssemblyCache{max: maxEntries, prev: prev, entries: map[string]*asmEntry{}}
}

// DropPrevious ends adoption from the previous generation and releases
// it.
func (c *AssemblyCache) DropPrevious() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.prev = nil
	c.mu.Unlock()
}

// adoptableLocked returns prev's completed product for key, or nil.
// Caller holds c.mu; prev never locks c, so the order is safe.
func (c *AssemblyCache) adoptableLocked(key string) *asmEntry {
	p := c.prev
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key]; ok {
		select {
		case <-e.done:
			return e
		default:
		}
	}
	return nil
}

// Len reports the number of cached products.
func (c *AssemblyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the physical-work counters.
func (c *AssemblyCache) Stats() AsmStats {
	if c == nil {
		return AsmStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// get returns the cached product for key, building it with build on a
// miss (single-flighted; uncached past the capacity bound).
func (c *AssemblyCache) get(key string, build func() (*mat.Sparse, []float64, []float64)) (*mat.Sparse, []float64, []float64) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		c.mu.Lock()
		c.stats.Shares++
		c.mu.Unlock()
		return e.g, e.rhs, e.cap
	}
	if e := c.adoptableLocked(key); e != nil {
		if c.max <= 0 || len(c.entries) < c.max {
			c.entries[key] = e
		}
		c.stats.Shares++
		c.mu.Unlock()
		return e.g, e.rhs, e.cap
	}
	if c.max > 0 && len(c.entries) >= c.max {
		c.stats.Assemblies++
		c.stats.Overflows++
		c.mu.Unlock()
		return build()
	}
	e := &asmEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Assemblies++
	c.mu.Unlock()
	e.g, e.rhs, e.cap = build()
	close(e.done)
	return e.g, e.rhs, e.cap
}

// assembly returns the shared full assembly for key.
func (c *AssemblyCache) assembly(key string, build func() (*mat.Sparse, []float64, []float64)) (*mat.Sparse, []float64, []float64) {
	if c == nil {
		return build()
	}
	return c.get(key, build)
}

// derived returns a shared matrix derived from an assembly (e.g. the
// backward-Euler left-hand side C/dt + G of one time step).
func (c *AssemblyCache) derived(key string, build func() *mat.Sparse) *mat.Sparse {
	if c == nil {
		return build()
	}
	g, _, _ := c.get(key, func() (*mat.Sparse, []float64, []float64) {
		return build(), nil, nil
	})
	return g
}
