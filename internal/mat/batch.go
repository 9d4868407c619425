package mat

import (
	"fmt"
	"math"
)

// This file is the multi-RHS seam of the solver layer: a BatchWorkspace
// solves several right-hand sides against one shared Factorization in a
// single lockstep pass, so a batched transient sweep pays for each
// factor/preconditioner traversal once per *step* instead of once per
// *scenario*. The payoff is cache locality and instruction-level
// parallelism: the blocked triangular sweeps stream the factor entries
// once for the whole column block, and the per-entry inner loop over
// columns is a dense, dependency-free update (the single-column sweep is
// a serial chain on one accumulator).
//
// Column arithmetic is bit-identical to Workspace.Solve on the same
// inputs: every kernel performs the same floating-point operations in
// the same order per column, only the storage changes (a blocked
// accumulator instead of a register). That invariant is what lets the
// sweep engine advance fifty scenarios in lockstep and still return
// byte-identical reports to per-scenario stepping; batch_test.go pins it
// for every backend.

// ColumnResult is the outcome of one column of a SolveBatch call. The
// counters are logical per-column counters — exactly what a standalone
// Workspace.Solve of that column would have added to its SolveStats —
// so callers can keep per-scenario metrics batch-invariant.
type ColumnResult struct {
	// Iterations counts iterative-solver iterations spent on the column
	// (0 for the direct backend's triangular sweeps).
	Iterations int
	// EarlyExit reports that the warm-start guess (or a zero rhs)
	// already satisfied the tolerance and the column skipped all solver
	// work.
	EarlyExit bool
	// Err carries the column's failure; other columns are unaffected.
	Err error
}

// BatchWorkspace solves lockstep multi-RHS systems against one prepared
// matrix. Like Workspace, a BatchWorkspace owns its scratch buffers
// (grown on demand to the widest batch seen) and is not safe for
// concurrent use; the shared Factorization behind it is.
type BatchWorkspace interface {
	// SolveBatch solves A·dst[j] = b[j] for every column j, warm-started
	// from x0[j] (x0 may be nil, as may individual columns). res must
	// have len(dst) entries; res[j] reports column j's outcome. Column
	// results are bit-identical to Workspace.Solve on the same inputs,
	// whatever the batch composition.
	SolveBatch(dst, b, x0 [][]float64, res []ColumnResult)
}

// checkColumn validates one column's slices, recording a per-column
// error. It mirrors the length checks of the solo Solve paths.
func checkColumn(backend string, n int, dst, b, x0 []float64) error {
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("mat: %s SolveBatch column length dst=%d b=%d != n %d", backend, len(dst), len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("mat: %s SolveBatch guess length %d != n %d", backend, len(x0), n)
	}
	return nil
}

// column returns x0's j-th column, tolerating a nil x0 batch.
func column(x0 [][]float64, j int) []float64 {
	if x0 == nil {
		return nil
	}
	return x0[j]
}

// grow returns buf resized to length n (reusing capacity).
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// --- blocked kernels -------------------------------------------------
//
// Blocked vectors store column j of logical row i at X[i*w+j]: the
// per-row column slice is contiguous, so a sparse-matrix entry loaded
// once updates the whole block with unit-stride reads and writes.

// mulVecLanes computes y = A·x on the given lanes of a blocked vector
// pair: for every row i and lane l, y[i*w+l] accumulates the row's
// products in storage order — the same order Sparse.MulVec uses, so
// each lane is bit-identical to a solo mat-vec.
func mulVecLanes(a *Sparse, y, x []float64, w int, lanes []int) {
	for i := 0; i < a.n; i++ {
		yi := y[i*w : i*w+w]
		for _, l := range lanes {
			yi[l] = 0
		}
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			v := a.vals[p]
			xk := x[a.colIdx[p]*w : a.colIdx[p]*w+w]
			for _, l := range lanes {
				yi[l] += v * xk[l]
			}
		}
	}
}

// applyLanes computes dst = (LU)⁻¹·v on the given lanes, mirroring
// ILU.Apply sweep-for-sweep over the same schedule.
func (f *ILU) applyLanes(dst, v []float64, w int, lanes []int) {
	fw := &f.sched.fwd
	lo := 0
	for k, i := range fw.rows {
		hi := fw.end[k]
		di := dst[i*w : i*w+w]
		vi := v[i*w : i*w+w]
		for _, l := range lanes {
			di[l] = vi[l]
		}
		for q := lo; q < hi; q++ {
			lv := f.lVal[q]
			dk := dst[fw.idx[q]*w : fw.idx[q]*w+w]
			for _, l := range lanes {
				di[l] -= lv * dk[l]
			}
		}
		lo = hi
	}
	bw := &f.sched.bwd
	lo = 0
	for k, i := range bw.rows {
		hi := bw.end[k]
		di := dst[i*w : i*w+w]
		for q := lo; q < hi; q++ {
			uv := f.uVal[q]
			dk := dst[bw.idx[q]*w : bw.idx[q]*w+w]
			for _, l := range lanes {
				di[l] -= uv * dk[l]
			}
		}
		d := f.dVal[k]
		for _, l := range lanes {
			di[l] /= d
		}
		lo = hi
	}
}

// dotLanes computes acc[l] = Σ_i a[i*w+l]·b[i*w+l] per lane, row order
// ascending — the accumulation order of Dot.
func dotLanes(acc, a, b []float64, n, w int, lanes []int) {
	for _, l := range lanes {
		acc[l] = 0
	}
	for i := 0; i < n; i++ {
		ai := a[i*w : i*w+w]
		bi := b[i*w : i*w+w]
		for _, l := range lanes {
			acc[l] += ai[l] * bi[l]
		}
	}
}

// xi returns row i of a blocked vector.
func xi(xb []float64, i, w int) []float64 { return xb[i*w : i*w+w] }

// sweepRow applies one triangular-sweep row update to every column of
// the block: row[j] -= Σ_p vals[p]·X[idx[p]][j], factor entries consumed
// in storage order. The entry loop is unrolled eight-way with the
// per-column partial kept in a register — each column still sees the
// exact per-entry subtraction sequence of the solo sweep
// (((x−v₁a)−v₂b)−…), so the unroll is bit-invisible; it exists to break
// the per-entry store/load round trip of the naive blocked loop.
func sweepRow(xb, row []float64, vals []float64, idx []int, p, end, w int) {
	for ; p+7 < end; p += 8 {
		v1, v2, v3, v4 := vals[p], vals[p+1], vals[p+2], vals[p+3]
		v5, v6, v7, v8 := vals[p+4], vals[p+5], vals[p+6], vals[p+7]
		x1 := xb[idx[p]*w:][:w]
		x2 := xb[idx[p+1]*w:][:w]
		x3 := xb[idx[p+2]*w:][:w]
		x4 := xb[idx[p+3]*w:][:w]
		x5 := xb[idx[p+4]*w:][:w]
		x6 := xb[idx[p+5]*w:][:w]
		x7 := xb[idx[p+6]*w:][:w]
		x8 := xb[idx[p+7]*w:][:w]
		for j := range row {
			t := row[j] - v1*x1[j]
			t -= v2 * x2[j]
			t -= v3 * x3[j]
			t -= v4 * x4[j]
			t -= v5 * x5[j]
			t -= v6 * x6[j]
			t -= v7 * x7[j]
			row[j] = t - v8*x8[j]
		}
	}
	for ; p+3 < end; p += 4 {
		v1, v2, v3, v4 := vals[p], vals[p+1], vals[p+2], vals[p+3]
		x1 := xb[idx[p]*w:][:w]
		x2 := xb[idx[p+1]*w:][:w]
		x3 := xb[idx[p+2]*w:][:w]
		x4 := xb[idx[p+3]*w:][:w]
		for j := range row {
			t := row[j] - v1*x1[j]
			t -= v2 * x2[j]
			t -= v3 * x3[j]
			row[j] = t - v4*x4[j]
		}
	}
	for ; p < end; p++ {
		v := vals[p]
		xk := xb[idx[p]*w:][:w]
		for j := range row {
			row[j] -= v * xk[j]
		}
	}
}

// SolveBlock performs the factored triangular sweeps for the listed
// columns of dst/b in one blocked pass over the factors. xb is caller
// scratch of length ≥ n·len(cols); each column's arithmetic is
// bit-identical to SolveWith.
func (f *SparseLU) SolveBlock(dst, b [][]float64, cols []int, xb []float64) {
	w := len(cols)
	if w == 0 {
		return
	}
	// Gather the right-hand sides in permuted order.
	for i := 0; i < f.n; i++ {
		src := i
		if f.perm != nil {
			src = f.perm[i]
		}
		xi := xb[i*w : i*w+w]
		for j, c := range cols {
			xi[j] = b[c][src]
		}
	}
	// Forward: L has unit diagonal; sweepRow documents the unrolled
	// bit-identical update.
	for i := 0; i < f.n; i++ {
		sweepRow(xb, xi(xb, i, w), f.lVal, f.lIdx, f.lPtr[i], f.lPtr[i+1], w)
	}
	// Backward with U, same unroll, then the diagonal scaling.
	for i := f.n - 1; i >= 0; i-- {
		row := xi(xb, i, w)
		sweepRow(xb, row, f.uVal, f.uIdx, f.uPtr[i], f.uPtr[i+1], w)
		d := f.uDiag[i]
		for j := range row {
			row[j] /= d
		}
	}
	// Scatter back in original order.
	for i := 0; i < f.n; i++ {
		at := i
		if f.perm != nil {
			at = f.perm[i]
		}
		xi := xb[i*w : i*w+w]
		for j, c := range cols {
			dst[c][at] = xi[j]
		}
	}
}

// --- direct backend --------------------------------------------------

// directBatchWS is the blocked multi-RHS workspace of the direct
// backend: per-column warm-start checks, then one blocked
// back-substitution over the shared LU factors for the columns that
// still need solving.
type directBatchWS struct {
	f          *directFact
	xb, rb     []float64 // blocked buffers (guesses/residuals, then sweep)
	bnorm, acc []float64
	cols, cand []int
}

// NewBatchWorkspace implements Factorization.
func (f *directFact) NewBatchWorkspace() BatchWorkspace {
	return &directBatchWS{f: f}
}

// SolveBatch implements BatchWorkspace. The warm-start residual screen
// — dead cheap per solve, but a full matrix traversal per column when
// done solo — is blocked across all warm-started columns: the matrix
// streams once, and each column's residual accumulates in the exact
// row order of the solo MulVec/Sub/Norm2 sequence.
func (w *directBatchWS) SolveBatch(dst, b, x0 [][]float64, res []ColumnResult) {
	n := w.f.a.N()
	width := len(dst)
	w.cols = w.cols[:0]
	w.cand = w.cand[:0]
	for j := range dst {
		res[j] = ColumnResult{}
		x0j := column(x0, j)
		if err := checkColumn(BackendDirect, n, dst[j], b[j], x0j); err != nil {
			res[j].Err = err
			continue
		}
		if x0j == nil {
			w.cols = append(w.cols, j)
			continue
		}
		bnorm := Norm2(b[j])
		if bnorm == 0 {
			Fill(dst[j], 0)
			res[j].EarlyExit = true
			continue
		}
		w.bnorm = grow(w.bnorm, width)
		w.bnorm[j] = bnorm
		w.cand = append(w.cand, j)
	}
	if len(w.cand) > 0 {
		w.xb = grow(w.xb, n*width)
		w.rb = grow(w.rb, n*width)
		w.acc = grow(w.acc, width)
		for i := 0; i < n; i++ {
			base := i * width
			for _, j := range w.cand {
				w.xb[base+j] = x0[j][i]
			}
		}
		mulVecLanes(w.f.a, w.rb, w.xb, width, w.cand)
		for _, j := range w.cand {
			w.acc[j] = 0
		}
		for i := 0; i < n; i++ {
			base := i * width
			for _, j := range w.cand {
				d := b[j][i] - w.rb[base+j]
				w.acc[j] += d * d
			}
		}
		for _, j := range w.cand {
			if math.Sqrt(w.acc[j])/w.bnorm[j] <= w.f.tol {
				copy(dst[j], x0[j])
				res[j].EarlyExit = true
				continue
			}
			w.cols = append(w.cols, j)
		}
	}
	if len(w.cols) == 0 {
		return
	}
	w.xb = grow(w.xb, n*len(w.cols))
	w.f.f.SolveBlock(dst, b, w.cols, w.xb)
}

// --- bicgstab backend ------------------------------------------------

// bicgstabBatchWS runs the preconditioned BiCGSTAB iteration on every
// column in lockstep: the preconditioner application and the mat-vecs
// are blocked across the active columns (the factor/matrix entries are
// streamed once per iteration for the whole block), while the scalar
// recurrences, convergence tests and breakdown restarts stay
// per-column, so each column walks exactly the iteration trajectory a
// solo Solve would.
type bicgstabBatchWS struct {
	f *bicgstabFact
	n int

	// Blocked iteration state (n·w each).
	x, r, rhat, v, p, phat, s, shat, t []float64
	// Per-column scalars.
	rho, alpha, omega, bnorm, acc, acc2 []float64
	lanes, keep                         []int
}

// NewBatchWorkspace implements Factorization.
func (f *bicgstabFact) NewBatchWorkspace() BatchWorkspace {
	return &bicgstabBatchWS{f: f, n: f.a.N()}
}

func (w *bicgstabBatchWS) alloc(width int) {
	nw := w.n * width
	w.x = grow(w.x, nw)
	w.r = grow(w.r, nw)
	w.rhat = grow(w.rhat, nw)
	w.v = grow(w.v, nw)
	w.p = grow(w.p, nw)
	w.phat = grow(w.phat, nw)
	w.s = grow(w.s, nw)
	w.shat = grow(w.shat, nw)
	w.t = grow(w.t, nw)
	w.rho = grow(w.rho, width)
	w.alpha = grow(w.alpha, width)
	w.omega = grow(w.omega, width)
	w.bnorm = grow(w.bnorm, width)
	w.acc = grow(w.acc, width)
	w.acc2 = grow(w.acc2, width)
}

// scatter writes lane l of the blocked solution back into dst.
func (w *bicgstabBatchWS) scatter(dst []float64, width, l int) {
	for i := 0; i < w.n; i++ {
		dst[i] = w.x[i*width+l]
	}
}

// SolveBatch implements BatchWorkspace.
func (w *bicgstabBatchWS) SolveBatch(dst, b, x0 [][]float64, res []ColumnResult) {
	n := w.n
	width := len(dst)
	w.alloc(width)
	w.lanes = w.lanes[:0]
	for j := range dst {
		res[j] = ColumnResult{}
		x0j := column(x0, j)
		if err := checkColumn(BackendBiCGSTAB, n, dst[j], b[j], x0j); err != nil {
			res[j].Err = err
			continue
		}
		// x = x0 (or 0), exactly as the solo path seeds dst.
		if x0j != nil {
			for i := 0; i < n; i++ {
				w.x[i*width+j] = x0j[i]
			}
		} else {
			for i := 0; i < n; i++ {
				w.x[i*width+j] = 0
			}
		}
		w.lanes = append(w.lanes, j)
	}
	if len(w.lanes) == 0 {
		return
	}

	// r = b − A·x, blocked; per-lane norms in solo order.
	mulVecLanes(w.f.a, w.r, w.x, width, w.lanes)
	for i := 0; i < n; i++ {
		ri := w.r[i*width : i*width+width]
		for _, l := range w.lanes {
			ri[l] = b[l][i] - ri[l]
		}
	}
	w.keep = w.keep[:0]
	for _, l := range w.lanes {
		w.bnorm[l] = Norm2(b[l])
		if w.bnorm[l] == 0 {
			Fill(dst[l], 0)
			res[l].EarlyExit = true
			continue
		}
		dotLanes(w.acc, w.r, w.r, n, width, []int{l})
		if math.Sqrt(w.acc[l])/w.bnorm[l] <= w.f.tol {
			w.scatter(dst[l], width, l)
			res[l].EarlyExit = true
			continue
		}
		w.keep = append(w.keep, l)
	}
	w.lanes, w.keep = w.keep, w.lanes
	if len(w.lanes) == 0 {
		return
	}

	for i := 0; i < n; i++ {
		base := i * width
		for _, l := range w.lanes {
			w.rhat[base+l] = w.r[base+l]
			w.v[base+l] = 0
			w.p[base+l] = 0
		}
	}
	for _, l := range w.lanes {
		w.rho[l], w.alpha[l], w.omega[l] = 1, 1, 1
	}

	maxIter := w.f.maxIter
	for it := 0; it < maxIter && len(w.lanes) > 0; it++ {
		for _, l := range w.lanes {
			res[l].Iterations++
		}
		// rhoNew per lane, with the solo breakdown/restart handling.
		dotLanes(w.acc, w.rhat, w.r, n, width, w.lanes)
		w.keep = w.keep[:0]
		for _, l := range w.lanes {
			rhoNew := w.acc[l]
			if math.Abs(rhoNew) < 1e-300 {
				// Breakdown: restart with the current residual.
				for i := 0; i < n; i++ {
					w.rhat[i*width+l] = w.r[i*width+l]
				}
				dotLanes(w.acc2, w.rhat, w.r, n, width, []int{l})
				rhoNew = w.acc2[l]
				if math.Abs(rhoNew) < 1e-300 {
					w.scatter(dst[l], width, l)
					res[l].Err = ErrNoConvergence
					continue
				}
				for i := 0; i < n; i++ {
					w.p[i*width+l] = 0
				}
				w.rho[l], w.alpha[l], w.omega[l] = 1, 1, 1
			}
			beta := (rhoNew / w.rho[l]) * (w.alpha[l] / w.omega[l])
			w.rho[l] = rhoNew
			// p = r + beta·(p − omega·v), lane-local scalars.
			for i := 0; i < n; i++ {
				base := i * width
				w.p[base+l] = w.r[base+l] + beta*(w.p[base+l]-w.omega[l]*w.v[base+l])
			}
			w.keep = append(w.keep, l)
		}
		w.lanes, w.keep = w.keep, w.lanes
		if len(w.lanes) == 0 {
			break
		}

		w.f.applyBlocked(w.phat, w.p, width, w.lanes)
		mulVecLanes(w.f.a, w.v, w.phat, width, w.lanes)
		dotLanes(w.acc, w.rhat, w.v, n, width, w.lanes)
		w.keep = w.keep[:0]
		for _, l := range w.lanes {
			den := w.acc[l]
			if den == 0 {
				w.scatter(dst[l], width, l)
				res[l].Err = ErrNoConvergence
				continue
			}
			w.alpha[l] = w.rho[l] / den
			for i := 0; i < n; i++ {
				base := i * width
				w.s[base+l] = w.r[base+l] - w.alpha[l]*w.v[base+l]
			}
			dotLanes(w.acc2, w.s, w.s, n, width, []int{l})
			if math.Sqrt(w.acc2[l])/w.bnorm[l] <= w.f.tol {
				// Converged mid-iteration: x += alpha·phat and finish.
				for i := 0; i < n; i++ {
					base := i * width
					w.x[base+l] += w.alpha[l] * w.phat[base+l]
				}
				w.scatter(dst[l], width, l)
				continue
			}
			w.keep = append(w.keep, l)
		}
		w.lanes, w.keep = w.keep, w.lanes
		if len(w.lanes) == 0 {
			break
		}

		w.f.applyBlocked(w.shat, w.s, width, w.lanes)
		mulVecLanes(w.f.a, w.t, w.shat, width, w.lanes)
		dotLanes(w.acc, w.t, w.t, n, width, w.lanes)
		dotLanes(w.acc2, w.t, w.s, n, width, w.lanes)
		w.keep = w.keep[:0]
		for _, l := range w.lanes {
			tt := w.acc[l]
			if tt == 0 {
				w.scatter(dst[l], width, l)
				res[l].Err = ErrNoConvergence
				continue
			}
			w.omega[l] = w.acc2[l] / tt
			for i := 0; i < n; i++ {
				base := i * width
				w.x[base+l] += w.alpha[l]*w.phat[base+l] + w.omega[l]*w.shat[base+l]
			}
			for i := 0; i < n; i++ {
				base := i * width
				w.r[base+l] = w.s[base+l] - w.omega[l]*w.t[base+l]
			}
			dotLanes(w.acc2, w.r, w.r, n, width, []int{l})
			rres := math.Sqrt(w.acc2[l]) / w.bnorm[l]
			if rres <= w.f.tol {
				w.scatter(dst[l], width, l)
				continue
			}
			if w.omega[l] == 0 || math.IsNaN(rres) || math.IsInf(rres, 0) {
				w.scatter(dst[l], width, l)
				res[l].Err = ErrNoConvergence
				continue
			}
			w.keep = append(w.keep, l)
		}
		w.lanes, w.keep = w.keep, w.lanes
	}
	for _, l := range w.lanes {
		w.scatter(dst[l], width, l)
		res[l].Err = ErrNoConvergence
	}
}

// applyBlocked applies the factorization's preconditioner (ILU(0) or the
// Jacobi fallback) to the given lanes of a blocked vector.
func (f *bicgstabFact) applyBlocked(dst, v []float64, w int, lanes []int) {
	if f.ilu != nil {
		f.ilu.applyLanes(dst, v, w, lanes)
		return
	}
	// Jacobi fallback: the scaling is element-wise, so the blocked form
	// divides each lane by the same divisors in the same row order.
	n := f.a.N()
	d := f.jacobi
	for i := 0; i < n; i++ {
		di := dst[i*w : i*w+w]
		vi := v[i*w : i*w+w]
		for _, l := range lanes {
			di[l] = vi[l] / d[i]
		}
	}
}

// --- gmres backend ---------------------------------------------------

// gmresBatchWS advances columns sequentially through one reused
// workspace: GMRES restart trajectories are data-dependent per column,
// so the Krylov iteration itself does not lockstep; the batch seam still
// shares the RCM ordering, the permuted matrix and the ILU
// preconditioner across every column of the sweep, and reports the
// per-column logical counters the batch engine needs.
type gmresBatchWS struct {
	f  *gmresFact
	ws *gmresBackendWS
}

// NewBatchWorkspace implements Factorization.
func (f *gmresFact) NewBatchWorkspace() BatchWorkspace {
	return &gmresBatchWS{f: f, ws: f.NewWorkspace().(*gmresBackendWS)}
}

// SolveBatch implements BatchWorkspace.
func (w *gmresBatchWS) SolveBatch(dst, b, x0 [][]float64, res []ColumnResult) {
	n := w.f.pa.N()
	for j := range dst {
		res[j] = ColumnResult{}
		x0j := column(x0, j)
		if err := checkColumn(BackendGMRES, n, dst[j], b[j], x0j); err != nil {
			res[j].Err = err
			continue
		}
		iters, exits := w.ws.core.iterations, w.ws.core.earlyExits
		err := w.ws.Solve(dst[j], b[j], x0j)
		res[j] = ColumnResult{
			Iterations: w.ws.core.iterations - iters,
			EarlyExit:  w.ws.core.earlyExits > exits,
			Err:        err,
		}
	}
}
