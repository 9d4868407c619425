package mat

import (
	"fmt"
)

// GMRES solves A·x = b for a general matrix with the restarted
// generalised-minimal-residual method GMRES(m). It is the classical
// alternative to BiCGSTAB for the non-symmetric advective systems the
// cavity model assembles; the solver-choice ablation bench
// (BenchmarkSolverAblation) compares the two on the same stack matrix.
//
// opt.Precond (ILU(0)) or Jacobi scaling is applied from the left, as in
// BiCGSTAB. Restart length is fixed at 30 Krylov vectors — deep enough
// for diagonally dominant RC systems, small enough to keep the dense
// Hessenberg work negligible.
// GMRES is a convenience wrapper that builds a fresh workspace per call;
// repeated solves against one matrix should go through the Solver seam
// (NewSolver(BackendGMRES, …).Prepare), which additionally applies the
// RCM ordering and reuses every buffer.
func GMRES(a *Sparse, b []float64, opt IterOptions) ([]float64, error) {
	n := a.N()
	if len(b) != n {
		return nil, fmt.Errorf("mat: GMRES rhs length %d != n %d", len(b), n)
	}
	if opt.X0 != nil && len(opt.X0) != n {
		return nil, fmt.Errorf("mat: GMRES guess length %d != n %d", len(opt.X0), n)
	}
	if opt.Precond != nil && opt.Precond.n != n {
		return nil, fmt.Errorf("mat: GMRES preconditioner dimension %d != n %d", opt.Precond.n, n)
	}
	var prec func(dst, v []float64)
	if opt.Precond != nil {
		prec = opt.Precond.Apply
	} else {
		prec = jacobiPrecond(a)
	}
	var ws gmresWS
	ws.init(a, opt.tol(), opt.maxIter(4*n), prec)
	x := make([]float64, n)
	if opt.X0 != nil {
		copy(x, opt.X0)
	}
	if err := ws.solve(x, b); err != nil {
		return nil, err
	}
	return x, nil
}
