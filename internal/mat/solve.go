package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("mat: iterative solver did not converge")

// ErrSingular is returned when a direct factorisation encounters a
// (numerically) singular pivot.
var ErrSingular = errors.New("mat: matrix is singular")

// IterOptions tunes the iterative solvers. The zero value requests the
// defaults noted on each field.
type IterOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖/‖b‖. Default 1e-10.
	Tol float64
	// MaxIter is the iteration budget. Default 4·n+40 (BiCGSTAB), 4·n
	// (GMRES) or 2·n+40 (CG).
	MaxIter int
	// X0 optionally supplies an initial guess (it is not modified).
	// A good guess — e.g. the previous time step's temperature field —
	// typically cuts iterations by an order of magnitude.
	X0 []float64
	// Precond optionally supplies an ILU(0) preconditioner (built once
	// per matrix with NewILU and reusable across solves); its dimension
	// must match the matrix. When nil the solver falls back to Jacobi
	// (diagonal) scaling. CG ignores it.
	Precond *ILU
}

func (o IterOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

func (o IterOptions) maxIter(def int) int {
	if o.MaxIter <= 0 {
		return def
	}
	return o.MaxIter
}

// BiCGSTAB solves A·x = b for a general (possibly non-symmetric) matrix
// using the stabilised bi-conjugate-gradient method, preconditioned with
// opt.Precond when given and with Jacobi (diagonal) scaling otherwise.
// Thermal RC systems with advective coupling are strongly diagonally
// dominant, so this converges in a few dozen iterations even on large
// grids.
//
// This is a convenience wrapper that builds a fresh workspace per call;
// repeated solves against one matrix should go through the Solver seam
// (NewSolver(BackendBiCGSTAB, …).Prepare), which reuses every buffer.
func BiCGSTAB(a *Sparse, b []float64, opt IterOptions) ([]float64, error) {
	n := a.N()
	if len(b) != n {
		return nil, fmt.Errorf("mat: BiCGSTAB rhs length %d != n %d", len(b), n)
	}
	if opt.Precond != nil && opt.Precond.n != n {
		return nil, fmt.Errorf("mat: BiCGSTAB preconditioner dimension %d != n %d", opt.Precond.n, n)
	}
	var prec func(dst, v []float64)
	if opt.Precond != nil {
		prec = opt.Precond.Apply
	} else {
		prec = jacobiPrecond(a)
	}
	var ws bicgstabWS
	ws.init(a, opt.tol(), opt.maxIter(4*n+40), prec)
	x := make([]float64, n)
	err := ws.Solve(x, b, opt.X0)
	return x, err
}

// CG solves A·x = b for a symmetric positive-definite matrix using the
// Jacobi-preconditioned conjugate-gradient method. Pure-conduction thermal
// networks (no fluid advection) are SPD after grounding, so CG applies.
func CG(a *Sparse, b []float64, opt IterOptions) ([]float64, error) {
	n := a.N()
	if len(b) != n {
		return nil, fmt.Errorf("mat: CG rhs length %d != n %d", len(b), n)
	}
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
	x := make([]float64, n)
	if opt.X0 != nil {
		copy(x, opt.X0)
	}
	r := make([]float64, n)
	a.MulVec(r, x)
	Sub(r, b, r)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return make([]float64, n), nil
	}
	tol := opt.tol()
	z := make([]float64, n)
	for i := range z {
		z[i] = r[i] / d[i]
	}
	p := append([]float64(nil), z...)
	rz := Dot(r, z)
	ap := make([]float64, n)
	maxIter := opt.maxIter(2*n + 40)
	for it := 0; it < maxIter; it++ {
		if Norm2(r)/bnorm <= tol {
			return x, nil
		}
		a.MulVec(ap, p)
		den := Dot(p, ap)
		if den <= 0 {
			return x, ErrNoConvergence
		}
		alpha := rz / den
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		for i := range z {
			z[i] = r[i] / d[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if Norm2(r)/bnorm <= tol {
		return x, nil
	}
	return x, ErrNoConvergence
}

// DenseLU holds an LU factorisation with partial pivoting of a dense
// square matrix, for small validation problems and tests.
type DenseLU struct {
	n    int
	lu   [][]float64
	perm []int
}

// NewDenseLU factorises the dense matrix a (which is copied).
func NewDenseLU(a [][]float64) (*DenseLU, error) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mat: NewDenseLU row %d has length %d, want %d", i, len(a[i]), n)
		}
		lu[i] = append([]float64(nil), a[i]...)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pm := k, math.Abs(lu[k][k])
		for i := k + 1; i < n; i++ {
			if m := math.Abs(lu[i][k]); m > pm {
				p, pm = i, m
			}
		}
		if pm < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			lu[p], lu[k] = lu[k], lu[p]
			perm[p], perm[k] = perm[k], perm[p]
		}
		piv := lu[k][k]
		for i := k + 1; i < n; i++ {
			f := lu[i][k] / piv
			lu[i][k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i][j] -= f * lu[k][j]
			}
		}
	}
	return &DenseLU{n: n, lu: lu, perm: perm}, nil
}

// Solve returns x such that A·x = b.
func (f *DenseLU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("mat: DenseLU.Solve rhs length %d != n %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	for i := range x {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < f.n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i][j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.lu[i][j] * x[j]
		}
		x[i] = s / f.lu[i][i]
	}
	return x, nil
}

// SolveTridiag solves a tridiagonal system in place using the Thomas
// algorithm. lower[0] and upper[n-1] are ignored. diag and rhs are
// overwritten; the solution is returned in rhs's storage.
func SolveTridiag(lower, diag, upper, rhs []float64) ([]float64, error) {
	n := len(diag)
	if len(lower) != n || len(upper) != n || len(rhs) != n {
		return nil, fmt.Errorf("mat: SolveTridiag length mismatch")
	}
	for i := 1; i < n; i++ {
		if diag[i-1] == 0 {
			return nil, ErrSingular
		}
		w := lower[i] / diag[i-1]
		diag[i] -= w * upper[i-1]
		rhs[i] -= w * rhs[i-1]
	}
	if diag[n-1] == 0 {
		return nil, ErrSingular
	}
	rhs[n-1] /= diag[n-1]
	for i := n - 2; i >= 0; i-- {
		rhs[i] = (rhs[i] - upper[i]*rhs[i+1]) / diag[i]
	}
	return rhs, nil
}
