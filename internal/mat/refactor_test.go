package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridSystem builds the non-symmetric advective grid pattern the cavity
// model produces, with values drawn from vals (indexed by entry order).
// The entry order is fixed, so two calls with different values yield
// structurally identical matrices — the flow-change shape.
func gridSystem(n int, vary float64) *Sparse {
	b := NewBuilder(n * n)
	idx := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			k := idx(i, j)
			b.Add(k, k, 4.8+vary)
			if i > 0 {
				b.Add(k, idx(i-1, j), -1.8-vary)
			}
			if i < n-1 {
				b.Add(k, idx(i+1, j), -1)
			}
			if j > 0 {
				b.Add(k, idx(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(k, idx(i, j+1), -1+vary/2)
			}
		}
	}
	return b.Build()
}

// sameFactorBits reports the first difference between two sparse LU
// factors: in the L/U patterns (lPtr, lIdx, uPtr, uIdx) or in the bits
// of any value, so −0 and +0 differ and equal NaNs match. It returns an
// error rather than failing a test, so goroutines can call it.
func sameFactorBits(got, want *SparseLU) error {
	for _, p := range []struct {
		name      string
		got, want []int
	}{
		{"lPtr", got.lPtr, want.lPtr},
		{"lIdx", got.lIdx, want.lIdx},
		{"uPtr", got.uPtr, want.uPtr},
		{"uIdx", got.uIdx, want.uIdx},
	} {
		if !sameIntSlice(p.got, p.want) {
			return fmt.Errorf("%s pattern differs (lengths %d vs %d)", p.name, len(p.got), len(p.want))
		}
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{
		{"lVal", got.lVal, want.lVal},
		{"uDiag", got.uDiag, want.uDiag},
		{"uVal", got.uVal, want.uVal},
	} {
		if len(v.got) != len(v.want) {
			return fmt.Errorf("%s length %d vs %d", v.name, len(v.got), len(v.want))
		}
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				return fmt.Errorf("%s[%d]: %v vs %v", v.name, i, v.got[i], v.want[i])
			}
		}
	}
	return nil
}

// TestSparseLURefactorBitIdentical pins the tentpole invariant: a
// numeric-only refactorisation performs the exact floating-point
// sequence of a cold factorisation of the same matrix — bit-identical
// L/U factors and bit-identical solves.
func TestSparseLURefactorBitIdentical(t *testing.T) {
	for _, usePerm := range []bool{false, true} {
		a1 := gridSystem(7, 0)
		a2 := gridSystem(7, 0.35)
		if !a1.SameStructure(a2) {
			t.Fatal("test fixture: structures must match")
		}
		var perm []int
		if usePerm {
			perm = RCM(a1)
		}
		f, err := NewSparseLU(a1, perm)
		if err != nil {
			t.Fatal(err)
		}
		if !f.CanRefactor() {
			t.Fatal("grid factorisation should be refactorable")
		}
		cold, err := NewSparseLU(a2, perm)
		if err != nil {
			t.Fatal(err)
		}

		// Shared-symbolic clone first (the factorization-cache path).
		shared, err := f.Refactored(a2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFactorBits(shared, cold); err != nil {
			t.Fatalf("perm=%v Refactored: %v", usePerm, err)
		}

		// Then the in-place form.
		if err := f.Refactor(a2); err != nil {
			t.Fatal(err)
		}
		if err := sameFactorBits(f, cold); err != nil {
			t.Fatalf("perm=%v Refactor: %v", usePerm, err)
		}

		n := a1.N()
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%13) - 6
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		cold.Solve(x1, b)
		f.Solve(x2, b)
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("perm=%v solve[%d]: %v vs %v", usePerm, i, x1[i], x2[i])
			}
		}
	}
}

func TestSparseLURefactorRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		b := NewBuilder(n)
		// Diagonally dominant random pattern: always factorable, never
		// an exact zero multiplier.
		for i := 0; i < n; i++ {
			b.Add(i, i, 4+rng.Float64())
			for k := 0; k < 2; k++ {
				j := rng.Intn(n)
				if j != i {
					b.Add(i, j, rng.Float64()-0.5)
				}
			}
		}
		a1 := b.Build()
		// Same structure, new values.
		vals := make([]float64, len(a1.vals))
		for p := range vals {
			vals[p] = a1.vals[p] * (1 + 0.3*rng.Float64())
		}
		a2 := &Sparse{n: n, rowPtr: a1.rowPtr, colIdx: a1.colIdx, vals: vals}

		perm := RCM(a1)
		f, err := NewSparseLU(a1, perm)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewSparseLU(a2, perm)
		if err != nil {
			t.Fatal(err)
		}
		if !f.CanRefactor() {
			continue // degenerate draw; the fallback path covers it
		}
		got, err := f.Refactored(a2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFactorBits(got, cold); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSparseLURefactorRejectsForeignStructure(t *testing.T) {
	a := gridSystem(4, 0)
	f, err := NewSparseLU(a, RCM(a))
	if err != nil {
		t.Fatal(err)
	}
	other := gridSystem(5, 0)
	if err := f.Refactor(other); err == nil {
		t.Fatal("foreign structure must be rejected")
	}
	if _, err := f.Refactored(other); err == nil {
		t.Fatal("foreign structure must be rejected by Refactored")
	}
}

func TestILURefactorBitIdentical(t *testing.T) {
	a1 := gridSystem(8, 0)
	a2 := gridSystem(8, 0.4)
	f1, err := NewILU(a1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewILU(a2)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := f1.Refactored(a2)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct {
		name      string
		got, want []float64
	}{
		{"lVal", shared.lVal, cold.lVal},
		{"uVal", shared.uVal, cold.uVal},
		{"dVal", shared.dVal, cold.dVal},
	} {
		if len(part.got) != len(part.want) {
			t.Fatalf("Refactored %s length %d vs %d", part.name, len(part.got), len(part.want))
		}
		for p := range part.want {
			if math.Float64bits(part.got[p]) != math.Float64bits(part.want[p]) {
				t.Fatalf("Refactored %s[%d]: %v vs %v", part.name, p, part.got[p], part.want[p])
			}
		}
	}
	if _, err := f1.Refactored(gridSystem(9, 0)); err == nil {
		t.Fatal("foreign pattern must be rejected")
	}
}

// TestRefactorFromBitIdenticalAcrossBackends pins, for every backend,
// that a factorization refreshed from a prior one solves bit-identically
// to a cold preparation of the same matrix — the mid-run flow-change
// equivalence of the incremental pipeline.
func TestRefactorFromBitIdenticalAcrossBackends(t *testing.T) {
	a1 := gridSystem(9, 0)
	a2 := gridSystem(9, 0.3)
	b := make([]float64, a1.N())
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	for _, name := range Backends() {
		s, err := NewSolver(name, SolverOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		rf, ok := s.(Refactorer)
		if !ok {
			t.Fatalf("backend %s must implement Refactorer", name)
		}
		prior, err := rf.Factor(a1)
		if err != nil {
			t.Fatal(err)
		}
		refreshed, err := rf.RefactorFrom(prior, a2)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := rf.Factor(a2)
		if err != nil {
			t.Fatal(err)
		}
		x1 := make([]float64, a1.N())
		x2 := make([]float64, a1.N())
		if err := cold.NewWorkspace().Solve(x1, b, nil); err != nil {
			t.Fatalf("%s cold solve: %v", name, err)
		}
		if err := refreshed.NewWorkspace().Solve(x2, b, nil); err != nil {
			t.Fatalf("%s refreshed solve: %v", name, err)
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("%s solve[%d]: %v vs %v", name, i, x1[i], x2[i])
			}
		}
		// A nil or foreign prior degrades to a cold factorisation.
		if _, err := rf.RefactorFrom(nil, a2); err != nil {
			t.Fatalf("%s nil prior: %v", name, err)
		}
		if _, err := rf.RefactorFrom(prior, gridSystem(5, 0)); err != nil {
			t.Fatalf("%s foreign prior: %v", name, err)
		}
	}
}

func TestPrepCachePriorRefactors(t *testing.T) {
	a1 := gridSystem(6, 0)
	a2 := gridSystem(6, 0.25)
	s, err := NewSolver(BackendDirect, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCache(0)
	f1, _, err := c.PrepareFactPrior(s, "q=1", a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Factorizations != 1 || got.Refactors != 0 {
		t.Fatalf("after cold prep: %+v", got)
	}
	// Miss with a prior: numeric-refresh path.
	f2, _, err := c.PrepareFactPrior(s, "q=2", a2, f1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Factorizations != 2 || got.Refactors != 1 {
		t.Fatalf("after refactor prep: %+v", got)
	}
	// Hit: the prior hint is irrelevant, the entry is shared.
	f3, _, err := c.PrepareFactPrior(s, "q=2", a2, f1)
	if err != nil {
		t.Fatal(err)
	}
	if f3 != f2 {
		t.Fatal("revisited matrix must share the cached factorization")
	}
	if got := c.Stats(); got.Shares != 1 || got.Refactors != 1 {
		t.Fatalf("after hit: %+v", got)
	}
}

// TestPrepCacheChecksumStillVerifies pins that the checksum fast path
// cannot produce a false hit: two distinct matrices under one tag stay
// distinct entries, and a re-presented equal matrix (a different object
// with identical content) still shares.
func TestPrepCacheChecksumStillVerifies(t *testing.T) {
	a1 := gridSystem(6, 0)
	a2 := gridSystem(6, 0.25) // same tag, different content
	clone := &Sparse{n: a1.n, rowPtr: a1.rowPtr, colIdx: a1.colIdx, vals: append([]float64(nil), a1.vals...)}
	s, err := NewSolver(BackendDirect, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCache(0)
	fa, _, err := c.PrepareFact(s, "tag", a1)
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := c.PrepareFact(s, "tag", a2)
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatal("distinct matrices must not share a factorization")
	}
	fc, _, err := c.PrepareFact(s, "tag", clone)
	if err != nil {
		t.Fatal(err)
	}
	if fc != fa {
		t.Fatal("an equal clone must share the cached factorization")
	}
	if got := c.Stats(); got.Factorizations != 2 || got.Shares != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

// TestRefactoredStoredZeroMatchesCold zeroes each stored entry of an
// AMD-ordered advective grid in turn, keeping the zero stored: a
// refresh of the grid's factor must decline the zeroed matrix or be
// bit-identical to its cold factor. The cold factor's Permute drops the
// stored zero from the pattern, so a refresh that kept its slot would
// hold a different factor; a refreshed factor handed from one sweep to
// the next must equal the cold one.
func TestRefactoredStoredZeroMatchesCold(t *testing.T) {
	a := gridSystem(6, 0.3)
	perm := OrderMatrix(OrderingAMD, a).Perm
	prior, err := NewSparseLU(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if !prior.CanRefactor() {
		t.Fatal("grid factorisation should be refactorable")
	}
	declined := 0
	for k := range a.vals {
		vals := append([]float64(nil), a.vals...)
		vals[k] = 0
		z := &Sparse{n: a.n, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: vals}
		got, err := prior.Refactored(z)
		if err != nil {
			declined++
			continue
		}
		cold, err := NewSparseLU(z, perm)
		if err != nil {
			t.Fatalf("entry %d: refreshed a matrix whose cold factor fails: %v", k, err)
		}
		if err := sameFactorBits(got, cold); err != nil {
			t.Fatalf("entry %d: refreshed factor differs from the cold one: %v", k, err)
		}
	}
	t.Logf("%d of %d zeroed matrices declined", declined, len(a.vals))
}
