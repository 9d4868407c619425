package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// concreteOrderings are the registry entries that produce an actual
// permutation policy (auto resolves to one of them).
var concreteOrderings = []string{OrderingNatural, OrderingRCM, OrderingAMD, OrderingND}

func checkPerm(t *testing.T, n int, perm []int, name string) {
	t.Helper()
	if perm == nil {
		if name != OrderingNatural {
			t.Fatalf("%s: nil perm for n=%d", name, n)
		}
		return
	}
	if len(perm) != n {
		t.Fatalf("%s: perm length %d, want %d", name, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("%s: perm %v is not a bijection of [0,%d)", name, perm, n)
		}
		seen[p] = true
	}
}

func TestOrderingPermsValidAndDeterministic(t *testing.T) {
	a := laplacian2D(17, 13, 0.4)
	for _, name := range Orderings() {
		ch := OrderMatrix(name, a)
		checkPerm(t, a.N(), ch.Perm, name)
		again := OrderMatrix(name, a)
		if fmt.Sprint(ch.Perm) != fmt.Sprint(again.Perm) || ch.Name != again.Name {
			t.Fatalf("%s: ordering is not deterministic", name)
		}
	}
}

func TestPredictFillMatchesFactorNNZ(t *testing.T) {
	a := laplacian2D(20, 15, 0.37)
	for _, name := range concreteOrderings {
		ch := OrderMatrix(name, a)
		pred := PredictFill(a, ch.Perm)
		f, err := NewSparseLU(a, ch.Perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pred != f.NNZ() {
			t.Errorf("%s: predicted fill %d, factor has %d nonzeros", name, pred, f.NNZ())
		}
	}
}

// TestSymmetricFillMatchesSymbolicLU pins the O(nnz(L)) elimination-tree
// fill count against the general heap-merge symbolic elimination on
// random symmetric patterns under every concrete ordering — the fast
// path must be exact, not an estimate, for the auto selection to stay
// deterministic across it.
func TestSymmetricFillMatchesSymbolicLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		data := make([]byte, 2+rng.Intn(60))
		rng.Read(data)
		a := fuzzPattern(data)
		for _, name := range concreteOrderings {
			ch := OrderMatrix(name, a)
			ptr, idx := a.rowPtr, a.colIdx
			if ch.Perm != nil {
				var err error
				ptr, idx, err = permutePattern(a, ch.Perm)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
			}
			if !patternSymmetric(a.N(), ptr, idx) {
				t.Fatalf("trial %d %s: fuzzPattern emitted an asymmetric pattern", trial, name)
			}
			lPtr, _, uPtr, _, err := symbolicLU(a.N(), ptr, idx)
			if err != nil {
				t.Fatalf("trial %d %s: symbolicLU: %v", trial, name, err)
			}
			want := lPtr[a.N()] + uPtr[a.N()] + a.N()
			if got := symmetricFill(a.N(), ptr, idx); got != want {
				t.Fatalf("trial %d %s: symmetricFill %d, symbolicLU says %d", trial, name, got, want)
			}
		}
	}
}

// TestPredictFillAsymmetricPattern routes a structurally asymmetric
// pattern through the general symbolic fallback and still matches the
// factor's nonzero count.
func TestPredictFillAsymmetricPattern(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.Add(i, i, 4)
	}
	b.Add(0, 3, -1) // no (3,0) mirror
	b.Add(1, 2, -1)
	b.Add(2, 1, -1)
	b.Add(4, 0, -1) // no (0,4) mirror
	a := b.Build()
	if patternSymmetric(a.N(), a.rowPtr, a.colIdx) {
		t.Fatal("pattern unexpectedly symmetric")
	}
	f, err := NewSparseLU(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pred := PredictFill(a, nil); pred != f.NNZ() {
		t.Fatalf("predicted fill %d, factor has %d nonzeros", pred, f.NNZ())
	}
}

func TestFillReducingOrderingsBeatNatural(t *testing.T) {
	a := laplacian2D(30, 30, 0.2)
	nat := PredictFill(a, nil)
	for _, name := range []string{OrderingAMD, OrderingND} {
		if fill := PredictFill(a, OrderMatrix(name, a).Perm); fill >= nat {
			t.Errorf("%s: fill %d does not beat natural %d", name, fill, nat)
		}
	}
}

func TestAutoPicksLeastPredictedFill(t *testing.T) {
	a := laplacian2D(23, 19, 0.3)
	ch := OrderMatrix(OrderingAuto, a)
	got := PredictFill(a, ch.Perm)
	best := math.MaxInt
	for _, name := range autoCandidates {
		if fill := PredictFill(a, OrderMatrix(name, a).Perm); fill >= 0 && fill < best {
			best = fill
		}
	}
	if got != best {
		t.Fatalf("auto picked %s with fill %d, best candidate fill is %d", ch.Name, got, best)
	}
	if !KnownOrdering(ch.Name) || ch.Name == OrderingAuto {
		t.Fatalf("auto must report the concrete winner, got %q", ch.Name)
	}
}

func TestOrderedSolvesAgree(t *testing.T) {
	a := laplacian2D(14, 11, 0.6)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(3*i + 1))
	}
	ref := make([]float64, n)
	fnat, err := NewSparseLU(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	fnat.Solve(ref, b)
	for _, name := range Orderings() {
		f, err := NewSparseLUOrdered(a, OrderMatrix(name, a))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := make([]float64, n)
		f.Solve(x, b)
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("%s: x[%d] = %g, natural order gives %g", name, i, x[i], ref[i])
			}
		}
	}
}

// checkScatterMapRoundTrip pins the scatter-map path to bit precision:
// factoring a under perm must reproduce, bit for bit, the natural-order
// factorisation of the explicitly permuted matrix, and the numeric
// replay (Refactor) must reproduce the cold factors.
func checkScatterMapRoundTrip(t *testing.T, a *Sparse, perm []int, name string) {
	t.Helper()
	f, err := NewSparseLU(a, perm)
	if err != nil {
		t.Fatalf("%s: factor: %v", name, err)
	}
	pa := a
	if perm != nil {
		if pa, err = Permute(a, perm); err != nil {
			t.Fatalf("%s: permute: %v", name, err)
		}
	}
	g, err := NewSparseLU(pa, nil)
	if err != nil {
		t.Fatalf("%s: factor permuted: %v", name, err)
	}
	if err := sameFactorBits(f, g); err != nil {
		t.Fatalf("%s vs natural-order factor of permuted matrix: %v", name, err)
	}

	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7+3)%13) - 6
	}
	x := make([]float64, n)
	f.Solve(x, b)
	pb, px := make([]float64, n), make([]float64, n)
	ux := make([]float64, n)
	if perm == nil {
		copy(pb, b)
	} else {
		PermuteVec(pb, b, perm)
	}
	g.Solve(px, pb)
	if perm == nil {
		copy(ux, px)
	} else {
		UnpermuteVec(ux, px, perm)
	}
	for i := range x {
		if x[i] != ux[i] {
			t.Fatalf("%s: solve differs at %d: %v vs %v", name, i, x[i], ux[i])
		}
	}

	if !f.CanRefactor() {
		return
	}
	rf, err := NewSparseLU(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Refactor(a); err != nil {
		t.Fatalf("%s: refactor: %v", name, err)
	}
	if err := sameFactorBits(f, rf); err != nil {
		t.Fatalf("%s refactor replay: %v", name, err)
	}
}

func TestScatterMapRoundTripAllOrderings(t *testing.T) {
	a := laplacian2D(13, 9, 0.45)
	for _, name := range concreteOrderings {
		checkScatterMapRoundTrip(t, a, OrderMatrix(name, a).Perm, name)
	}
}

// fuzzPattern decodes fuzz bytes into a connected-ish symmetric
// diagonally dominant M-matrix: each byte pair adds an undirected edge.
func fuzzPattern(data []byte) *Sparse {
	if len(data) < 1 {
		return nil
	}
	n := int(data[0])%40 + 1
	b := NewBuilder(n)
	deg := make([]float64, n)
	for k := 1; k+1 < len(data); k += 2 {
		i, j := int(data[k])%n, int(data[k+1])%n
		if i == j {
			continue
		}
		b.Add(i, j, -1)
		b.Add(j, i, -1)
		deg[i]++
		deg[j]++
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, deg[i]+1+float64(i%3))
	}
	return b.Build()
}

func FuzzOrderingPerm(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 4, 5, 0, 7})
	f.Add([]byte{31, 1, 2, 9, 30, 14, 3})
	f.Add([]byte{1})
	f.Add([]byte{20})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzPattern(data)
		if a == nil {
			return
		}
		n := a.N()
		for _, name := range Orderings() {
			ch := OrderMatrix(name, a)
			if ch.Name == OrderingNatural && ch.Perm == nil {
				continue
			}
			checkPerm(t, n, ch.Perm, name)
		}
		for _, name := range concreteOrderings {
			checkScatterMapRoundTrip(t, a, OrderMatrix(name, a).Perm, name)
		}
	})
}

// fuzzValued re-values fuzzPattern's matrix from vals, so the
// elimination meets exact cancellations: stored entry p (in CSR order)
// takes a small integer from vals[p], in −3…1 off the diagonal and in
// −1…4 on it, and entries past len(vals) keep fuzzPattern's value. A
// zero drops the entry, so the pattern can turn unsymmetric or lose a
// diagonal; when vals[p] has its high bit set, the zero is stored
// explicitly instead (Permute drops it, leaving the scatter map
// incomplete).
func fuzzValued(data, vals []byte) *Sparse {
	a := fuzzPattern(data)
	if a == nil {
		return nil
	}
	b := NewBuilder(a.N())
	for i := 0; i < a.N(); i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			j, v := a.colIdx[p], a.vals[p]
			switch {
			case p >= len(vals):
			case j == i:
				v = float64(int(vals[p])%6 - 1)
			default:
				v = float64(int(vals[p])%5 - 3)
			}
			if v == 0 && p < len(vals) && vals[p] >= 128 {
				b.Add(i, j, 1) // Build sums the pair to a stored zero
				v = -1
			}
			b.Add(i, j, v)
		}
	}
	return b.Build()
}

// zeroMultiplierSeed decodes through fuzzValued to zeroMultiplierMatrix:
// the pattern of a triangle, then values that drop (0,2), (1,0) and
// (1,2) and set every other entry to 1.
var zeroMultiplierSeed = [2][]byte{{2, 0, 1, 0, 2, 1, 2}, {2, 4, 3, 3, 2, 3, 4, 4, 2}}

// FuzzSparseLUOrdered checks the one cold factor against the merged
// elimination it must reproduce: under every concrete ordering,
// NewSparseLUOrdered and NewSparseLU(a, ch.Perm) fail together or
// agree bit for bit, CanRefactor included; and a refactorable factor
// refreshed onto a second value set of the same structure (a's values
// times −1, 1 or 2, chosen by scale) matches a cold NewSparseLU of those
// values, or declines exactly where that cold factor fails or drops a
// zero multiplier.
func FuzzSparseLUOrdered(f *testing.F) {
	f.Add(zeroMultiplierSeed[0], zeroMultiplierSeed[1], []byte{1})
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 4, 5, 0, 7}, []byte{}, []byte{2, 1, 0})
	f.Add([]byte{31, 1, 2, 9, 30, 14, 3}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2})
	f.Add([]byte{20, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, []byte{3, 0, 2, 1, 5, 4, 0, 3}, []byte{0})
	// A stored zero (entry 13) that Permute drops: the split must
	// decline the incomplete scatter map under rcm, amd and nd.
	f.Add([]byte(".1BY0B0YA2A120AACY22B"), []byte("0001011011100\x80"), []byte("0"))
	f.Fuzz(func(t *testing.T, data, vals, scale []byte) {
		a := fuzzValued(data, vals)
		if a == nil {
			return
		}
		v2 := append([]float64(nil), a.vals...)
		if len(scale) > 0 {
			for p := range v2 {
				v2[p] *= []float64{-1, 1, 2}[int(scale[p%len(scale)])%3]
			}
		}
		a2 := &Sparse{n: a.n, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: v2}
		for _, name := range concreteOrderings {
			ch := OrderMatrix(name, a)
			got, gotErr := NewSparseLUOrdered(a, ch)
			want, wantErr := NewSparseLU(a, ch.Perm)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: NewSparseLUOrdered err %v, NewSparseLU err %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if err := sameFactorBits(got, want); err != nil {
				t.Fatalf("%s: ordered vs merged: %v", name, err)
			}
			if got.CanRefactor() != want.CanRefactor() {
				t.Fatalf("%s: CanRefactor %v, merged %v", name, got.CanRefactor(), want.CanRefactor())
			}
			if !got.CanRefactor() {
				continue
			}
			re, reErr := got.Refactored(a2)
			cold, coldErr := NewSparseLU(a2, ch.Perm)
			if reErr != nil {
				if coldErr == nil && cold.CanRefactor() {
					t.Fatalf("%s: Refactored declined (%v) a matrix the cold factor handles exactly", name, reErr)
				}
				continue
			}
			if coldErr != nil {
				t.Fatalf("%s: Refactored succeeded, cold factor failed: %v", name, coldErr)
			}
			if err := sameFactorBits(re, cold); err != nil {
				t.Fatalf("%s: Refactored vs cold: %v", name, err)
			}
		}
	})
}

// bigTestMatrix is large enough (n = 1080, against ndLeafSize = 64)
// that nested dissection recurses several levels before its AMD leaves.
func bigTestMatrix() *Sparse {
	return laplacian2D(36, 30, 0.25) // n = 1080
}

// bigTestMatrixScaled is bigTestMatrix with different values on the
// identical structure, for refactorisation tests.
func bigTestMatrixScaled(advect float64) *Sparse {
	return laplacian2D(36, 30, advect)
}

func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestColdFactorSplitMatchesMerged pins the cold factor of
// NewSparseLUOrdered: under every concrete ordering the split
// (symbolic pattern, then the refactor kernel) succeeds and is
// bit-identical to the merged elimination of NewSparseLU.
func TestColdFactorSplitMatchesMerged(t *testing.T) {
	a := bigTestMatrix()
	for _, name := range concreteOrderings {
		ch := OrderMatrix(name, a)
		merged, err := NewSparseLU(a, ch.Perm)
		if err != nil {
			t.Fatalf("%s: merged: %v", name, err)
		}
		split, err := newSparseLUSplit(a, ch.Perm)
		if err != nil {
			t.Fatalf("%s: split declined a matrix without a zero multiplier: %v", name, err)
		}
		if err := sameFactorBits(split, merged); err != nil {
			t.Fatalf("%s: split vs merged: %v", name, err)
		}
	}
}

// zeroMultiplierMatrix is the 3×3 matrix, in natural order, whose row 2
// meets an exactly zero multiplier: eliminating column 0 cancels its
// (2,1) entry to 0, so the merged elimination drops that L entry.
func zeroMultiplierMatrix() *Sparse {
	b := NewBuilder(3)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 1}, {2, 2}} {
		b.Add(e[0], e[1], 1)
	}
	return b.Build()
}

// TestColdFactorZeroMultiplierFallsBack: the split declines a matrix
// with an exactly zero multiplier, and NewSparseLUOrdered then returns
// the merged elimination, which cannot be refactored.
func TestColdFactorZeroMultiplierFallsBack(t *testing.T) {
	a := zeroMultiplierMatrix()
	if !fuzzValued(zeroMultiplierSeed[0], zeroMultiplierSeed[1]).Equal(a) {
		t.Fatal("zeroMultiplierSeed no longer decodes to zeroMultiplierMatrix")
	}
	if _, err := newSparseLUSplit(a, nil); err == nil {
		t.Fatal("split accepted a matrix with an exactly zero multiplier")
	}
	merged, err := NewSparseLU(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSparseLUOrdered(a, OrderMatrix(OrderingNatural, a))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFactorBits(f, merged); err != nil {
		t.Fatalf("fallback vs merged: %v", err)
	}
	if f.CanRefactor() {
		t.Fatal("a factor that dropped a zero multiplier reports CanRefactor")
	}
}

// TestRefactorSharedPrepCacheRace hammers Refactored clones of one
// factorisation and one shared PrepCache from many goroutines (run
// under -race in CI), as the chunks of a sweep share one PrepCache:
// every goroutine cycles through structurally identical matrices,
// preparing through the cache and refreshing private clones, and
// asserts the factors are bit-identical to a cold reference.
func TestRefactorSharedPrepCacheRace(t *testing.T) {
	withGOMAXPROCS(t, 4)
	base := bigTestMatrix()
	variants := []*Sparse{
		bigTestMatrixScaled(0.4),
		bigTestMatrixScaled(0.55),
		bigTestMatrixScaled(0.7),
	}
	ch := OrderMatrix(OrderingND, base)

	refs := make([]*SparseLU, len(variants))
	for i, v := range variants {
		f, err := NewSparseLU(v, ch.Perm)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = f
	}
	seed, err := NewSparseLUOrdered(base, ch)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewPrepCache(0)
	solver, err := NewSolver(BackendDirect, SolverOptions{Ordering: OrderingND})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				i := rng.Intn(len(variants))
				v := variants[i]

				// Path 1: numeric refresh of a private clone.
				nf, err := seed.Refactored(v)
				if err != nil {
					errs <- err
					return
				}
				if err := sameFactorBits(nf, refs[i]); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (Refactored): %w", g, it, err)
					return
				}

				// Path 2: the shared cache (single-flighted ordering memo
				// and factorisation sharing).
				fact, _, err := cache.PrepareFact(solver, fmt.Sprintf("variant-%d", i), v)
				if err != nil {
					errs <- err
					return
				}
				df, ok := fact.(*directFact)
				if !ok {
					errs <- fmt.Errorf("unexpected factorization type %T", fact)
					return
				}
				if err := sameFactorBits(df.f, refs[i]); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (PrepCache): %w", g, it, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.Factorizations != len(variants) {
		t.Fatalf("cache paid %d factorizations for %d distinct matrices", st.Factorizations, len(variants))
	}
	if st.OrderingReuses != len(variants)-1 {
		t.Fatalf("ordering reuses = %d, want %d (one memo per pattern)", st.OrderingReuses, len(variants)-1)
	}
	ag, ok := st.Orderings[OrderingND]
	if !ok || ag.Factorizations != len(variants) || ag.MeanFillRatio <= 1 {
		t.Fatalf("per-ordering aggregate wrong: %+v", st.Orderings)
	}
}

func TestOrderingRegistryHelpers(t *testing.T) {
	for _, name := range Orderings() {
		if !KnownOrdering(name) {
			t.Errorf("registered ordering %q not known", name)
		}
	}
	if !KnownOrdering("") {
		t.Error("empty ordering (default) must be accepted")
	}
	if KnownOrdering("colamd") {
		t.Error("unregistered ordering accepted")
	}
	if _, err := NewOrdering("colamd"); err == nil {
		t.Error("NewOrdering accepted an unregistered name")
	}
	ord, err := NewOrdering("")
	if err != nil || ord.Name() != DefaultOrdering {
		t.Errorf("NewOrdering(\"\") = %v, %v; want the default ordering", ord, err)
	}
}
