package mat

import (
	"errors"
	"fmt"
)

// ILU is an incomplete LU factorisation with zero fill-in (ILU(0)), used
// as a preconditioner for BiCGSTAB and GMRES. For the diagonally
// dominant M-matrices produced by thermal RC networks the factorisation
// exists and is stable without pivoting, and it accelerates convergence
// by an order of magnitude over Jacobi scaling.
//
// The factor values are stored once, in the order the triangular sweeps
// of Apply consume them (see iluSched): the strict-L and strict-U
// entries each sit contiguously in sweep order and the diagonal of U in
// its own slice. The elimination itself runs on a CSR scratch copy.
type ILU struct {
	n int
	// The pattern is borrowed from the (immutable) matrix: only the
	// values are factor-private. Sharing keeps the structure-identity
	// check of Refactored on the pointer fast path for matrices
	// restamped onto one frozen pattern.
	rowPtr []int
	colIdx []int
	diag   []int     // CSR position of the diagonal entry in each row
	sched  *iluSched // sweep order, shared by every refactorisation

	lVal []float64 // strict-L entries, forward-sweep order
	uVal []float64 // strict-U entries, backward-sweep order
	dVal []float64 // diagonal of U, backward-sweep order
}

// iluSched is the order of the two ILU(0) triangular sweeps, a pure
// function of the sparsity pattern. The sweeps are serial dependency
// chains: in natural order most rows first read the row finished just
// before, so no two rows overlap in the CPU. Each sweep therefore lists
// its rows by level — a row's level is one more than the highest level
// among the rows it reads in that sweep, so rows of one level never read
// each other and their chains overlap — and, within a level, by entry
// count, which keeps the inner loop's exit branch predictable. A row
// still consumes its entries in CSR storage order, so every row performs
// exactly the floating-point operations of the natural-order sweep and
// the result is bit-identical to it.
type iluSched struct {
	fwd, bwd iluSweep
}

// iluSweep is one scheduled triangular sweep: the k-th row rows[k]
// consumes the contiguous entries end[k-1]..end[k] (from 0 for k = 0)
// of idx, the entries' columns, and of the factor's value slice.
type iluSweep struct {
	rows, end, idx []int
}

// newILUSweep schedules the strict-L (lower) or strict-U part of the
// pattern.
func newILUSweep(rowPtr, colIdx, diag []int, lower bool) iluSweep {
	n := len(diag)
	span := func(i int) (int, int) {
		if lower {
			return rowPtr[i], diag[i]
		}
		return diag[i] + 1, rowPtr[i+1]
	}
	// Levels in natural sweep order, so a row's dependencies (columns
	// below it for L, above it for U) are leveled before the row.
	level, count := make([]int, n), make([]int, n)
	maxLevel, maxCount, nnz := 0, 0, 0
	for k := range n {
		i := k
		if !lower {
			i = n - 1 - k
		}
		lo, hi := span(i)
		lv := 0
		for _, c := range colIdx[lo:hi] {
			lv = max(lv, level[c]+1)
		}
		level[i], count[i] = lv, hi-lo
		maxLevel, maxCount, nnz = max(maxLevel, lv), max(maxCount, hi-lo), nnz+hi-lo
	}
	// Order by (level, entry count, row) with two stable counting
	// passes over the rows in index order.
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	rows = bucketRows(bucketRows(rows, count, maxCount), level, maxLevel)
	sw := iluSweep{rows: rows, end: make([]int, n), idx: make([]int, 0, nnz)}
	for k, i := range rows {
		lo, hi := span(i)
		sw.idx = append(sw.idx, colIdx[lo:hi]...)
		sw.end[k] = len(sw.idx)
	}
	return sw
}

// bucketRows returns rows stably reordered by ascending key[row], each
// key in [0, maxKey].
func bucketRows(rows, key []int, maxKey int) []int {
	start := make([]int, maxKey+2)
	for _, i := range rows {
		start[key[i]+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	out := make([]int, len(rows))
	for _, i := range rows {
		out[start[key[i]]] = i
		start[key[i]]++
	}
	return out
}

// NewILU factors the matrix. The input must have an explicitly stored
// non-zero diagonal in every row (true for any grounded thermal system).
func NewILU(a *Sparse) (*ILU, error) {
	n := a.N()
	f := &ILU{n: n, rowPtr: a.rowPtr, colIdx: a.colIdx, diag: make([]int, n)}
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			if f.colIdx[p] == i {
				f.diag[i] = p
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, fmt.Errorf("mat: ILU row %d has no diagonal entry", i)
		}
	}
	f.sched = &iluSched{
		fwd: newILUSweep(f.rowPtr, f.colIdx, f.diag, true),
		bwd: newILUSweep(f.rowPtr, f.colIdx, f.diag, false),
	}
	if err := f.factor(a.vals); err != nil {
		return nil, err
	}
	return f, nil
}

// factor runs the IKJ pattern-restricted elimination of vals on a CSR
// scratch copy, then gathers the factors into the sweep schedule — the
// shared numeric phase of NewILU and Refactored.
func (f *ILU) factor(vals []float64) error {
	lu := append([]float64(nil), vals...)
	colPos := make([]int, f.n)
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < f.n; i++ {
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			colPos[f.colIdx[p]] = p
		}
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			k := f.colIdx[p]
			if k >= i {
				break // columns are sorted; L part exhausted
			}
			piv := lu[f.diag[k]]
			if piv == 0 {
				return errors.New("mat: ILU zero pivot")
			}
			lik := lu[p] / piv
			lu[p] = lik
			// Update row i against row k's upper part.
			for q := f.diag[k] + 1; q < f.rowPtr[k+1]; q++ {
				j := f.colIdx[q]
				if pos := colPos[j]; pos >= 0 {
					lu[pos] -= lik * lu[q]
				}
			}
		}
		if lu[f.diag[i]] == 0 {
			return errors.New("mat: ILU produced zero diagonal")
		}
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			colPos[f.colIdx[p]] = -1
		}
	}
	// One allocation holds the strict-L, strict-U and diagonal slices.
	fw, bw := &f.sched.fwd, &f.sched.bwd
	nl, nu := len(fw.idx), len(bw.idx)
	out := make([]float64, 0, len(lu))
	for _, i := range fw.rows {
		out = append(out, lu[f.rowPtr[i]:f.diag[i]]...)
	}
	for _, i := range bw.rows {
		out = append(out, lu[f.diag[i]+1:f.rowPtr[i+1]]...)
	}
	for _, i := range bw.rows {
		out = append(out, lu[f.diag[i]])
	}
	f.lVal, f.uVal, f.dVal = out[:nl:nl], out[nl:nl+nu:nl+nu], out[nl+nu:]
	return nil
}

// Refactored returns a fresh factorisation of a sharing this one's
// immutable structure (pattern, diagonal index and sweep schedule) with
// new numeric content, leaving the receiver untouched — the form shared
// preconditioners are refreshed through. Bit-identical to NewILU(a).
func (f *ILU) Refactored(a *Sparse) (*ILU, error) {
	if a.n != f.n || !sameIntSlice(a.rowPtr, f.rowPtr) || !sameIntSlice(a.colIdx, f.colIdx) {
		return nil, errors.New("mat: ILU.Refactored: matrix pattern differs from the factored one")
	}
	nf := &ILU{n: f.n, rowPtr: f.rowPtr, colIdx: f.colIdx, diag: f.diag, sched: f.sched}
	if err := nf.factor(a.vals); err != nil {
		return nil, err
	}
	return nf, nil
}

// Apply computes dst = (LU)⁻¹·v (one forward + one backward sweep, each
// in schedule order). dst and v may alias.
func (f *ILU) Apply(dst, v []float64) {
	if len(dst) != f.n || len(v) != f.n {
		panic("mat: ILU.Apply dimension mismatch")
	}
	// Forward: L has unit diagonal.
	fw := &f.sched.fwd
	end := fw.end[:len(fw.rows)]
	lo := 0
	for k, i := range fw.rows {
		hi := end[k]
		cols := fw.idx[lo:hi]
		vals := f.lVal[lo:hi]
		vals = vals[:len(cols)]
		s := v[i]
		for q, c := range cols {
			s -= vals[q] * dst[c]
		}
		dst[i] = s
		lo = hi
	}
	// Backward with U.
	bw := &f.sched.bwd
	end = bw.end[:len(bw.rows)]
	dVal := f.dVal[:len(bw.rows)]
	lo = 0
	for k, i := range bw.rows {
		hi := end[k]
		cols := bw.idx[lo:hi]
		vals := f.uVal[lo:hi]
		vals = vals[:len(cols)]
		s := dst[i]
		for q, c := range cols {
			s -= vals[q] * dst[c]
		}
		dst[i] = s / dVal[k]
		lo = hi
	}
}
