package mat

import "fmt"

// This file is the multi-RHS seam of the solver layer: a BatchWorkspace
// solves several right-hand sides against one shared direct
// factorization in a single lockstep pass, so a batched transient sweep
// pays for each factor traversal once per *step* instead of once per
// *scenario*. The payoff is cache locality and instruction-level
// parallelism: the blocked triangular sweeps stream the factor entries
// once for the whole column block, and the per-entry inner loop over
// columns is a dense, dependency-free update (the single-column sweep is
// a serial chain on one accumulator).
//
// Only the direct backend blocks (BatchFactorization). The iterative
// backends' solves are dominated by data-dependent Krylov iterations,
// not one fixed factor traversal, so their columns take the solo
// kernels (see thermal.BatchStepper).
//
// Column arithmetic is bit-identical to Workspace.Solve on the same
// inputs: every kernel performs the same floating-point operations in
// the same order per column, only the storage changes (a blocked
// accumulator instead of a register). That invariant is what lets the
// sweep engine advance fifty scenarios in lockstep and still return
// byte-identical reports to per-scenario stepping; batch_test.go pins it.

// ColumnResult is the outcome of one column of a SolveBatch call. The
// counters are logical per-column counters — exactly what a standalone
// Workspace.Solve of that column would have added to its SolveStats —
// so callers can keep per-scenario metrics batch-invariant.
type ColumnResult struct {
	// EarlyExit reports that the warm-start guess (or a zero rhs)
	// already satisfied the tolerance and the column skipped all solver
	// work.
	EarlyExit bool
	// Err carries the column's failure; other columns are unaffected.
	Err error
}

// BatchFactorization is implemented by factorizations whose solves
// block across right-hand sides: only the direct backend's LU factors.
type BatchFactorization interface {
	Factorization
	// NewBatchWorkspace returns a fresh lockstep multi-RHS workspace
	// backed by this shared factorization: column results are
	// bit-identical to NewWorkspace().Solve on the same inputs.
	NewBatchWorkspace() *BatchWorkspace
}

// checkColumn validates one column's slices, recording a per-column
// error. It mirrors the length checks of the solo Solve path.
func checkColumn(n int, dst, b, x0 []float64) error {
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("mat: direct SolveBatch column length dst=%d b=%d != n %d", len(dst), len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("mat: direct SolveBatch guess length %d != n %d", len(x0), n)
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

// BatchWorkspace solves lockstep multi-RHS systems against one shared
// direct factorization: a per-column warm-start screen (warmStart),
// then one blocked back-substitution over the LU factors for the
// columns that still need solving. Like Workspace, a BatchWorkspace
// owns its scratch buffer (grown on demand to the widest batch seen)
// and is not safe for concurrent use; the shared factorization behind
// it is.
type BatchWorkspace struct {
	f    *directFact
	xb   []float64 // blocked sweep buffer
	cols []int
}

// NewBatchWorkspace implements BatchFactorization.
func (f *directFact) NewBatchWorkspace() *BatchWorkspace {
	return &BatchWorkspace{f: f}
}

// SolveBatch solves A·dst[j] = b[j] for every column j, warm-started
// from x0[j] (x0 may be nil, as may individual columns). res must have
// len(dst) entries; res[j] reports column j's outcome. Column results
// are bit-identical to Workspace.Solve on the same inputs, whatever the
// batch composition: each warm-started column runs the solo path's
// screen (warmStart), which stops at the first row checkpoint where its
// partial residual already fails, and only the columns it does not
// settle take the blocked triangular sweeps.
func (w *BatchWorkspace) SolveBatch(dst, b, x0 [][]float64, res []ColumnResult) {
	n := w.f.a.N()
	w.cols = w.cols[:0]
	for j := range dst {
		res[j] = ColumnResult{}
		x0j := column(x0, j)
		if err := checkColumn(n, dst[j], b[j], x0j); err != nil {
			res[j].Err = err
			continue
		}
		if x0j != nil && warmStart(w.f.a, w.f.tol, dst[j], b[j], x0j) {
			res[j].EarlyExit = true
			continue
		}
		w.cols = append(w.cols, j)
	}
	if len(w.cols) == 0 {
		return
	}
	w.xb = grow(w.xb, n*len(w.cols))
	w.f.f.SolveBlock(dst, b, w.cols, w.xb)
}
