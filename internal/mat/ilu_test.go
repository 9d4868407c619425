package mat

import (
	"math/rand"
	"strings"
	"testing"
)

func TestILUExactForTriangularCase(t *testing.T) {
	// For a matrix whose ILU(0) pattern suffers no fill-in loss (e.g. a
	// tridiagonal matrix), ILU equals LU and Apply solves exactly.
	n := 12
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -2)
		}
	}
	a := b.Build()
	f, err := NewILU(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%3) + 1
	}
	x := make([]float64, n)
	f.Apply(x, rhs)
	// Check A·x == rhs.
	chk := make([]float64, n)
	a.MulVec(chk, x)
	if MaxDiff(chk, rhs) > 1e-10 {
		t.Errorf("tridiagonal ILU not exact: residual %v", MaxDiff(chk, rhs))
	}
}

func TestILUPreconditionedBiCGSTAB(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(100)
		a, _ := randomDiagDominant(rng, n)
		f, err := NewILU(a)
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := BiCGSTAB(a, rhs, IterOptions{Precond: f})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := residual(a, x, rhs); r > 1e-8 {
			t.Errorf("trial %d: residual %v", trial, r)
		}
	}
}

func TestILUWithDenseLastRow(t *testing.T) {
	// The heat-sink node couples to every cell: a dense last row/column.
	n := 40
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i, 5)
		if i > 0 {
			b.AddConductance(i, i-1, 1)
		}
		b.AddConductance(i, n-1, 0.5)
	}
	b.Add(n-1, n-1, 3)
	a := b.Build()
	f, err := NewILU(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x, err := BiCGSTAB(a, rhs, IterOptions{Precond: f})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, rhs); r > 1e-8 {
		t.Errorf("residual %v", r)
	}
}

func TestILUFailsWithoutDiagonal(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := NewILU(b.Build()); err == nil {
		t.Error("missing diagonal must fail")
	}
}

// TestWrappersRejectMismatchedPrecond pins that an ILU built for another
// dimension is an error from both iterative wrappers, in the form of
// their rhs and guess length checks, not a panic inside ILU.Apply.
func TestWrappersRejectMismatchedPrecond(t *testing.T) {
	a := gridSystem(8, 0)
	foreign, err := NewILU(gridSystem(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N())
	rhs[0] = 1
	for _, w := range []struct {
		name  string
		solve func(*Sparse, []float64, IterOptions) ([]float64, error)
	}{{"BiCGSTAB", BiCGSTAB}, {"GMRES", GMRES}} {
		x, err := w.solve(a, rhs, IterOptions{Precond: foreign})
		if err == nil || !strings.Contains(err.Error(), w.name+" preconditioner dimension 81 != n 64") {
			t.Errorf("%s: error %v, want a preconditioner dimension error", w.name, err)
		}
		if x != nil {
			t.Errorf("%s: returned a solution with the error", w.name)
		}
	}
}
