package mat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// rebuildGridSystem returns a matrix bit-identical to testGridSystem(n)
// but a distinct object, as two scenarios of one sweep group would
// assemble it independently.
func rebuildGridSystem(n int) *Sparse {
	a, _ := testGridSystem(n)
	return a
}

func TestSparseEqual(t *testing.T) {
	a, _ := testGridSystem(6)
	b := rebuildGridSystem(6)
	if !a.Equal(a) || !a.Equal(b) {
		t.Fatal("identical matrices compare unequal")
	}
	c := a.Scale(1.0000001)
	if a.Equal(c) {
		t.Fatal("scaled matrix compares equal")
	}
	d, _ := testGridSystem(5)
	if a.Equal(d) || a.Equal(nil) {
		t.Fatal("mismatched matrices compare equal")
	}
}

func TestPrepCacheSharesFactorization(t *testing.T) {
	for _, backend := range []string{BackendBiCGSTAB, BackendGMRES, BackendDirect} {
		t.Run(backend, func(t *testing.T) {
			a, rhs := testGridSystem(8)
			want := denseReference(t, a, rhs)
			s, err := NewSolver(backend, SolverOptions{Tol: 1e-11})
			if err != nil {
				t.Fatal(err)
			}
			cache := NewPrepCache(0)
			ws1, shared, err := cache.Prepare(s, "tag", a)
			if err != nil {
				t.Fatal(err)
			}
			if shared {
				t.Fatal("first Prepare reported a share")
			}
			// A bit-identical rebuild (different pointer) must share.
			ws2, shared, err := cache.Prepare(s, "tag", rebuildGridSystem(8))
			if err != nil {
				t.Fatal(err)
			}
			if !shared {
				t.Fatal("identical matrix did not share the factorization")
			}
			st := cache.Stats()
			if st.Factorizations != 1 || st.Shares != 1 {
				t.Fatalf("stats = %+v, want 1 factorization + 1 share", st)
			}
			// Both workspaces solve correctly and report the same logical
			// counters as standalone preparation would.
			for _, ws := range []Workspace{ws1, ws2} {
				x := make([]float64, a.N())
				if err := ws.Solve(x, rhs, nil); err != nil {
					t.Fatal(err)
				}
				for i := range x {
					if d := x[i] - want[i]; d > 1e-7 || d < -1e-7 {
						t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
					}
				}
				if got := ws.Stats().Factorizations; got != 1 {
					t.Fatalf("workspace reports %d logical factorizations, want 1", got)
				}
			}
		})
	}
}

func TestPrepCacheVerifiesMatrixOnTagCollision(t *testing.T) {
	a, rhsA := testGridSystem(7)
	b := a.Scale(2) // same tag, different matrix
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	cache := NewPrepCache(0)
	wsA, _, err := cache.Prepare(s, "same-tag", a)
	if err != nil {
		t.Fatal(err)
	}
	wsB, shared, err := cache.Prepare(s, "same-tag", b)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("different matrix reused a factorization under a colliding tag")
	}
	if st := cache.Stats(); st.Factorizations != 2 {
		t.Fatalf("factorizations = %d, want 2", st.Factorizations)
	}
	wantA := denseReference(t, a, rhsA)
	xA := make([]float64, a.N())
	xB := make([]float64, b.N())
	if err := wsA.Solve(xA, rhsA, nil); err != nil {
		t.Fatal(err)
	}
	if err := wsB.Solve(xB, rhsA, nil); err != nil {
		t.Fatal(err)
	}
	for i := range xA {
		if d := xA[i] - wantA[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("A solve off at %d", i)
		}
		// b = 2a, so x_B must be x_A / 2 — proof the right factors served
		// each matrix.
		if d := xB[i] - wantA[i]/2; d > 1e-8 || d < -1e-8 {
			t.Fatalf("B solve off at %d: got %g want %g", i, xB[i], wantA[i]/2)
		}
	}
}

func TestPrepCacheConcurrentSingleFlight(t *testing.T) {
	a, rhs := testGridSystem(10)
	want := denseReference(t, a, rhs)
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	cache := NewPrepCache(0)
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ws, _, err := cache.Prepare(s, "t", rebuildGridSystem(10))
			if err != nil {
				errs[w] = err
				return
			}
			x := make([]float64, a.N())
			for rep := 0; rep < 4; rep++ {
				if err := ws.Solve(x, rhs, nil); err != nil {
					errs[w] = err
					return
				}
			}
			for i := range x {
				if d := x[i] - want[i]; d > 1e-8 || d < -1e-8 {
					errs[w] = fmt.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := cache.Stats()
	if st.Factorizations != 1 {
		t.Fatalf("concurrent preparation factored %d times, want 1 (single-flight)", st.Factorizations)
	}
	if st.Shares != workers-1 {
		t.Fatalf("shares = %d, want %d", st.Shares, workers-1)
	}
}

func TestPrepCacheCapacityOverflow(t *testing.T) {
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	cache := NewPrepCache(1)
	a, _ := testGridSystem(5)
	if _, _, err := cache.Prepare(s, "a", a); err != nil {
		t.Fatal(err)
	}
	// Second distinct matrix exceeds the bound: prepared uncached.
	if _, shared, err := cache.Prepare(s, "b", a.Scale(3)); err != nil || shared {
		t.Fatalf("overflow prepare: shared=%v err=%v", shared, err)
	}
	if _, shared, err := cache.Prepare(s, "b", a.Scale(3)); err != nil || shared {
		t.Fatalf("overflow matrices must not be cached: shared=%v err=%v", shared, err)
	}
	// The cached entry still shares.
	if _, shared, err := cache.Prepare(s, "a", rebuildGridSystem(5)); err != nil || !shared {
		t.Fatalf("cached entry lost: shared=%v err=%v", shared, err)
	}
	st := cache.Stats()
	if st.Overflows != 2 || st.Factorizations != 3 || st.Shares != 1 || cache.Len() != 1 {
		t.Fatalf("stats = %+v len=%d, want 2 overflows, 3 factorizations, 1 share, len 1", st, cache.Len())
	}
}

func TestPrepCacheNilAndNonFactorizer(t *testing.T) {
	a, rhs := testGridSystem(5)
	s, _ := NewSolver(BackendBiCGSTAB, SolverOptions{})
	var nilCache *PrepCache
	ws, shared, err := nilCache.Prepare(s, "t", a)
	if err != nil || shared {
		t.Fatalf("nil cache: shared=%v err=%v", shared, err)
	}
	x := make([]float64, a.N())
	if err := ws.Solve(x, rhs, nil); err != nil {
		t.Fatal(err)
	}
	// A backend outside the Factorizer seam degrades to plain Prepare.
	cache := NewPrepCache(0)
	ws2, shared, err := cache.Prepare(plainSolver{s}, "t", a)
	if err != nil || shared {
		t.Fatalf("non-factorizer: shared=%v err=%v", shared, err)
	}
	if err := ws2.Solve(x, rhs, nil); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Fallbacks != 1 || st.Factorizations != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", st)
	}
}

// plainSolver hides the Factorizer methods of a backend.
type plainSolver struct{ s Solver }

func (p plainSolver) Name() string                         { return p.s.Name() }
func (p plainSolver) Prepare(a *Sparse) (Workspace, error) { return p.s.Prepare(a) }

// luOf unwraps the sparse LU factor behind a direct-backend
// factorization.
func luOf(t *testing.T, fact Factorization) *SparseLU {
	t.Helper()
	df, ok := fact.(*directFact)
	if !ok {
		t.Fatalf("factorization %T is not the direct backend's", fact)
	}
	return df.f
}

// coldFactor is the reference for every handoff test: a cold factor of
// a under the default ordering, as a fresh cache would compute it.
func coldFactor(t *testing.T, a *Sparse) *SparseLU {
	t.Helper()
	f, err := NewSparseLUOrdered(a, OrderMatrix(DefaultOrdering, a))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPrepCacheHandoffAdopts pins the handoff's sharing: a cache built
// from the previous generation serves an equal matrix (a distinct
// object) from that generation's factorization, as a share, keeps it
// for its own callers, and factors a new matrix of the same pattern
// under the adopted ordering, bit-identically to a cold factor.
func TestPrepCacheHandoffAdopts(t *testing.T) {
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	gen1 := NewPrepCache(0)
	f1, _, err := gen1.PrepareFact(s, "T", gridSystem(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	gen1.DropPrevious()

	gen2 := NewPrepCacheFrom(gen1, 0)
	for i := 0; i < 2; i++ {
		f2, _, err := gen2.PrepareFact(s, "T", gridSystem(7, 0))
		if err != nil {
			t.Fatal(err)
		}
		if f2 != f1 {
			t.Fatalf("prepare %d: the equal matrix was not served from the previous generation", i)
		}
	}
	if st := gen2.Stats(); st.Factorizations != 0 || st.Shares != 2 || gen2.Len() != 1 {
		t.Fatalf("after adoption: %+v len %d, want 0 factorizations, 2 shares, len 1", st, gen2.Len())
	}

	b := gridSystem(7, 0.3)
	fb, _, err := gen2.PrepareFact(s, "T", b)
	if err != nil {
		t.Fatal(err)
	}
	if st := gen2.Stats(); st.Factorizations != 1 || st.OrderingReuses != 1 {
		t.Fatalf("new matrix on the adopted pattern: %+v, want 1 factorization and 1 ordering reuse", st)
	}
	if err := sameFactorBits(luOf(t, fb), coldFactor(t, b)); err != nil {
		t.Fatal(err)
	}

	// A full generation still adopts, but serves the adoption uncached:
	// the bound holds for what it hands on.
	full := NewPrepCacheFrom(gen1, 1)
	if _, _, err := full.PrepareFact(s, "other", gridSystem(7, 0.6)); err != nil {
		t.Fatal(err)
	}
	if f, _, err := full.PrepareFact(s, "T", gridSystem(7, 0)); err != nil || f != f1 {
		t.Fatalf("full generation: adoption %v, err %v", f == f1, err)
	}
	if st := full.Stats(); st.Factorizations != 1 || st.Shares != 1 || full.Len() != 1 {
		t.Fatalf("full generation: %+v len %d, want 1 factorization, 1 share, len 1", st, full.Len())
	}
}

// TestPrepCacheHandoffNeverAdoptsAnotherMatrix pins the handoff's
// safety: A is prepared under tag T, then B ≠ A under T in the next
// generation — B with A's pattern but other values, or B with another
// pattern of the same size. B is factored (never served A's factor,
// nor A's ordering when the pattern differs), and both its factor and
// its solves are bit-identical to a cold factor of B.
func TestPrepCacheHandoffNeverAdoptsAnotherMatrix(t *testing.T) {
	a := gridSystem(7, 0)
	for _, tc := range []struct {
		name        string
		b           *Sparse
		ordReuses   int
		samePattern bool
	}{
		{"values", gridSystem(7, 0.3), 1, true},
		{"pattern", randomPatternSystem(rand.New(rand.NewSource(3)), a.N(), 0.08, true), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if a.SameStructure(tc.b) != tc.samePattern || a.Equal(tc.b) {
				t.Fatal("test fixture: wrong relation between A and B")
			}
			s, _ := NewSolver(BackendDirect, SolverOptions{})
			gen1 := NewPrepCache(0)
			fa, _, err := gen1.PrepareFact(s, "T", a)
			if err != nil {
				t.Fatal(err)
			}
			gen1.DropPrevious()
			gen2 := NewPrepCacheFrom(gen1, 0)
			fb, ws, err := gen2.PrepareFact(s, "T", tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if fb == fa {
				t.Fatal("B was served A's factorization")
			}
			if st := gen2.Stats(); st.Factorizations != 1 || st.Shares != 0 || st.OrderingReuses != tc.ordReuses {
				t.Fatalf("stats %+v, want 1 factorization, 0 shares, %d ordering reuses", st, tc.ordReuses)
			}
			cold := coldFactor(t, tc.b)
			if err := sameFactorBits(luOf(t, fb), cold); err != nil {
				t.Fatal(err)
			}
			rhs := randomVec(rand.New(rand.NewSource(5)), tc.b.N())
			got, want := make([]float64, tc.b.N()), make([]float64, tc.b.N())
			if err := ws.Solve(got, rhs, nil); err != nil {
				t.Fatal(err)
			}
			cold.SolveWith(want, rhs, make([]float64, tc.b.N()))
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("solve differs from the cold factor's at %d: %v vs %v", i, got[i], want[i])
			}
		})
	}
}

// TestPrepCacheHandoffOneGeneration pins the bound: a generation adopts
// only from the one before it. A is prepared in generation 1,
// generation 2 prepares only B, and generation 3 must factor A again.
// Entries of the previous generation that never completed, or failed,
// are never adopted either: the lookup neither blocks on them nor
// serves them.
func TestPrepCacheHandoffOneGeneration(t *testing.T) {
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	a, b := gridSystem(6, 0), gridSystem(6, 0.2)
	gen1 := NewPrepCache(0)
	if _, _, err := gen1.PrepareFact(s, "A", a); err != nil {
		t.Fatal(err)
	}
	gen1.DropPrevious()
	gen2 := NewPrepCacheFrom(gen1, 0)
	if _, _, err := gen2.PrepareFact(s, "B", b); err != nil {
		t.Fatal(err)
	}
	gen2.DropPrevious()
	gen3 := NewPrepCacheFrom(gen2, 0)
	if _, _, err := gen3.PrepareFact(s, "A", a); err != nil {
		t.Fatal(err)
	}
	if st := gen3.Stats(); st.Factorizations != 1 || st.Shares != 0 {
		t.Fatalf("generation 3: %+v, want A factored again", st)
	}

	// A previous generation holding an unfinished entry for a and a
	// failed one for b.
	key := s.(Factorizer).FactorKey() + "|T"
	failed := &prepEntry{a: b, ck: b.Checksum(), done: make(chan struct{}), err: ErrSingular}
	close(failed.done)
	stale := NewPrepCache(0)
	stale.entries[key] = []*prepEntry{{a: a, ck: a.Checksum(), done: make(chan struct{})}, failed}
	next := NewPrepCacheFrom(stale, 0)
	for _, m := range []*Sparse{a, b} {
		fact, _, err := next.PrepareFact(s, "T", m)
		if err != nil || fact == nil {
			t.Fatalf("prepare beside an unusable previous entry: %v", err)
		}
	}
	if st := next.Stats(); st.Factorizations != 2 || st.Shares != 0 {
		t.Fatalf("stats %+v, want both matrices factored", st)
	}
}

// TestPrepCacheHandoffRace hammers adoption from many goroutines (run
// under -race in CI): two generations built from one previous
// generation, as two concurrent sweeps start from the engine's last
// one, each visit every matrix from eight goroutines. Each generation
// adopts the two inherited matrices, factors the two new ones once
// each, and every factor is bit-identical to a cold one.
func TestPrepCacheHandoffRace(t *testing.T) {
	s, _ := NewSolver(BackendDirect, SolverOptions{})
	vary := []float64{0, 0.1, 0.2, 0.3}
	refs := make([]*SparseLU, len(vary))
	for i, v := range vary {
		refs[i] = coldFactor(t, gridSystem(8, v))
	}
	prev := NewPrepCache(0)
	for i := 0; i < 2; i++ {
		if _, _, err := prev.PrepareFact(s, fmt.Sprintf("v%d", i), gridSystem(8, vary[i])); err != nil {
			t.Fatal(err)
		}
	}
	prev.DropPrevious()

	gens := []*PrepCache{NewPrepCacheFrom(prev, 0), NewPrepCacheFrom(prev, 0)}
	const goroutines = 8
	errs := make(chan error, len(gens)*goroutines)
	var wg sync.WaitGroup
	for _, gen := range gens {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(gen *PrepCache, g int) {
				defer wg.Done()
				for k := range vary {
					i := (g + k) % len(vary)
					fact, _, err := gen.PrepareFact(s, fmt.Sprintf("v%d", i), gridSystem(8, vary[i]))
					if err == nil {
						err = sameFactorBits(fact.(*directFact).f, refs[i])
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d matrix %d: %w", g, i, err)
						return
					}
				}
			}(gen, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k, gen := range gens {
		gen.DropPrevious()
		if st := gen.Stats(); st.Factorizations != 2 || st.Shares != goroutines*len(vary)-2 || gen.Len() != len(vary) {
			t.Fatalf("generation %d: %+v len %d, want 2 factorizations, %d shares, len %d",
				k, st, gen.Len(), goroutines*len(vary)-2, len(vary))
		}
	}
}
