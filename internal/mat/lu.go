package mat

import (
	"fmt"
	"sort"
)

// SparseLU is a sparse direct LU factorisation P·A·Pᵀ = L·U with a
// caller-supplied symmetric ordering P (typically RCM, which keeps the
// fill of the banded thermal-stack systems low). The factorisation is
// computed without pivoting: the grounded thermal RC systems this
// package targets are (nearly) diagonally dominant M-matrices, for which
// elimination in any symmetric ordering is stable. For the symmetric
// conduction-only systems the elimination is numerically identical to an
// LDLᵀ/Cholesky factorisation (computed here without exploiting the
// symmetry); the same code handles the non-symmetric upwind-advection
// systems of the liquid-cooled cavities.
//
// Factor once per matrix, then Solve per right-hand side: two triangular
// sweeps over the fill-in pattern, no iteration and no convergence
// failure modes. Solve reuses an internal scratch vector, so a SparseLU
// is not safe for concurrent use.
type SparseLU struct {
	n    int
	perm []int // perm[new] = old; nil means natural order

	// L is unit-lower-triangular, stored strictly below the diagonal in
	// CSR with ascending column indices per row.
	lPtr []int
	lIdx []int
	lVal []float64

	// U is upper-triangular: the diagonal lives in uDiag, the strict
	// upper part in CSR with ascending column indices per row.
	uDiag []float64
	uPtr  []int
	uIdx  []int
	uVal  []float64

	work []float64 // permuted rhs/solution scratch

	// Symbolic replay state for Refactor: the matrix the factorisation
	// was computed from, the permuted pattern and the scatter map from
	// permuted slots back to source entries. All immutable after
	// construction (shared by Refactored clones).
	src   *Sparse
	paPtr []int
	paIdx []int
	paSrc []int
	// safe reports that the elimination never dropped a zero multiplier:
	// the L pattern then covers every value the numeric replay can
	// produce, making Refactor exact. The degenerate alternative (an
	// exact zero met during elimination) forces a cold refactorisation.
	safe bool

	wbuf []float64 // dense accumulator reused across Refactor calls

	// ordering names the fill-reducing ordering perm came from;
	// immutable, shared by clones.
	ordering string
}

// NewSparseLU factors a under the symmetric ordering perm (perm[new] =
// old; nil keeps the natural order). Every row must carry a structural
// diagonal — true for any grounded thermal system — and elimination must
// not produce an exactly zero pivot, else ErrSingular is returned. It
// discovers the fill and computes the values in one merged pass; it is
// the fallback of NewSparseLUOrdered's split cold factor, which must
// match it bit for bit.
func NewSparseLU(a *Sparse, perm []int) (*SparseLU, error) {
	pa := a
	if perm != nil {
		var err error
		pa, err = Permute(a, perm)
		if err != nil {
			return nil, err
		}
		perm = append([]int(nil), perm...)
	}
	n := pa.N()
	f := &SparseLU{
		n:     n,
		perm:  perm,
		lPtr:  make([]int, n+1),
		uDiag: make([]float64, n),
		uPtr:  make([]int, n+1),
		work:  make([]float64, n),
		src:   a,
		paPtr: pa.rowPtr,
		paIdx: pa.colIdx,
		safe:  true,
	}

	f.buildScatterMap(a, pa)

	// Row-wise elimination with a sparse accumulator: scatter row i of
	// P·A·Pᵀ into w, consume the lower-triangular columns in ascending
	// order (a binary min-heap orders the worklist, since eliminating
	// column k can fill new columns between k and i), gather the
	// surviving upper part as row i of U.
	w := make([]float64, n)     // dense accumulator
	inPat := make([]bool, n)    // pattern membership for w
	heap := make([]int, 0, 64)  // pending lower columns, min-heap
	upper := make([]int, 0, 64) // pattern indices >= i of the current row
	push := func(j int) {
		heap = append(heap, j)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			m := c
			if l < len(heap) && heap[l] < heap[m] {
				m = l
			}
			if r < len(heap) && heap[r] < heap[m] {
				m = r
			}
			if m == c {
				break
			}
			heap[c], heap[m] = heap[m], heap[c]
			c = m
		}
		return top
	}

	for i := 0; i < n; i++ {
		upper = upper[:0]
		for p := pa.rowPtr[i]; p < pa.rowPtr[i+1]; p++ {
			j := pa.colIdx[p]
			w[j] = pa.vals[p]
			inPat[j] = true
			if j < i {
				push(j)
			} else {
				upper = append(upper, j)
			}
		}
		for len(heap) > 0 {
			k := pop()
			lik := w[k] / f.uDiag[k]
			w[k] = 0
			inPat[k] = false
			if lik == 0 {
				f.safe = false
				continue
			}
			f.lIdx = append(f.lIdx, k)
			f.lVal = append(f.lVal, lik)
			// Update against row k of U: fill may appear anywhere right
			// of k, both in the pending lower part and in the upper part.
			for q := f.uPtr[k]; q < f.uPtr[k+1]; q++ {
				j := f.uIdx[q]
				if !inPat[j] {
					inPat[j] = true
					w[j] = 0
					if j < i {
						push(j)
					} else {
						upper = append(upper, j)
					}
				}
				w[j] -= lik * f.uVal[q]
			}
		}
		f.lPtr[i+1] = len(f.lIdx)
		if !inPat[i] {
			clearPattern(w, inPat, upper)
			return nil, fmt.Errorf("mat: SparseLU row %d has no diagonal entry: %w", i, ErrSingular)
		}
		if w[i] == 0 {
			clearPattern(w, inPat, upper)
			return nil, fmt.Errorf("mat: SparseLU zero pivot at row %d: %w", i, ErrSingular)
		}
		f.uDiag[i] = w[i]
		w[i] = 0
		inPat[i] = false
		sort.Ints(upper)
		for _, j := range upper {
			if j == i {
				continue
			}
			f.uIdx = append(f.uIdx, j)
			f.uVal = append(f.uVal, w[j])
			w[j] = 0
			inPat[j] = false
		}
		f.uPtr[i+1] = len(f.uIdx)
	}
	return f, nil
}

func clearPattern(w []float64, inPat []bool, pattern []int) {
	for _, j := range pattern {
		w[j] = 0
		inPat[j] = false
	}
}

// N returns the matrix dimension.
func (f *SparseLU) N() int { return f.n }

// NNZ returns the number of stored factor entries (L strictly below the
// diagonal, U on and above it) — the quantity a fill-reducing ordering
// keeps small.
func (f *SparseLU) NNZ() int { return len(f.lVal) + len(f.uVal) + f.n }

// Ordering names the fill-reducing ordering this factorisation was
// built under ("" when constructed directly from a permutation).
func (f *SparseLU) Ordering() string { return f.ordering }

// FillRatio returns nnz(L+U)/nnz(A) — the fill the ordering admitted.
func (f *SparseLU) FillRatio() float64 {
	if f.src == nil || f.src.NNZ() == 0 {
		return 0
	}
	return float64(f.NNZ()) / float64(f.src.NNZ())
}

// Solve writes the solution of A·x = b into dst, performing one forward
// and one backward sweep over the factors. dst must not alias b. No
// allocations; not safe for concurrent use (shared scratch) — concurrent
// callers must use SolveWith with per-caller scratch.
func (f *SparseLU) Solve(dst, b []float64) {
	f.SolveWith(dst, b, f.work)
}

// SolveWith is Solve with caller-supplied scratch of length N. The
// factors themselves are immutable after construction, so any number of
// goroutines may call SolveWith concurrently on one SparseLU as long as
// each brings its own scratch — the mechanism that lets a sweep group
// share one factorisation across scenario workers.
func (f *SparseLU) SolveWith(dst, b, work []float64) {
	if len(dst) != f.n || len(b) != f.n || len(work) != f.n {
		panic(fmt.Sprintf("mat: SparseLU.Solve dimension mismatch: n=%d len(dst)=%d len(b)=%d len(work)=%d", f.n, len(dst), len(b), len(work)))
	}
	x := work
	if f.perm != nil {
		PermuteVec(x, b, f.perm)
	} else {
		copy(x, b)
	}
	// Forward: L has unit diagonal.
	for i := 0; i < f.n; i++ {
		s := x[i]
		for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
			s -= f.lVal[p] * x[f.lIdx[p]]
		}
		x[i] = s
	}
	// Backward with U.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for p := f.uPtr[i]; p < f.uPtr[i+1]; p++ {
			s -= f.uVal[p] * x[f.uIdx[p]]
		}
		x[i] = s / f.uDiag[i]
	}
	if f.perm != nil {
		UnpermuteVec(dst, x, f.perm)
	} else {
		copy(dst, x)
	}
}

// buildScatterMap precomputes the map from permuted-pattern slots back
// to source entries, so Refactor scatters new values without rebuilding
// the permuted matrix. An unmappable entry (possible only when the
// Builder behind Permute dropped an explicitly stored zero) disables
// numeric refactorisation instead of risking a wrong scatter.
func (f *SparseLU) buildScatterMap(a, pa *Sparse) {
	if f.perm == nil {
		return // pa is a itself: the scatter is the identity
	}
	f.paSrc = permEntryMap(a, pa, f.perm)
	if f.paSrc == nil {
		f.safe = false
	}
}

// CanRefactor reports whether the factorisation supports numeric-only
// refactorisation: the symbolic analysis covered every multiplier the
// replay can produce and the permuted scatter map is complete.
func (f *SparseLU) CanRefactor() bool { return f.safe }

// Refactor recomputes the numeric factors in place for a matrix with
// the same sparsity structure as the one this factorisation was built
// from, skipping every symbolic step — no ordering, no fill discovery,
// no sorting, no factor-array allocation. The elimination performs the
// exact floating-point sequence of a cold factorisation of the same
// matrix, so the refreshed L/U (and every solve through them) are
// bit-identical to NewSparseLU(a, perm) with the original ordering.
//
// Refactor returns an error — leaving the factors unusable — when the
// structure differs, when CanRefactor is false, when a stores an exact
// zero, or when the elimination meets an exactly zero pivot or
// multiplier (the caller then falls back to a cold factorisation). On
// error the factorisation must be discarded. A stored zero is declined
// because a cold factor under a permutation drops it from the pattern
// (Permute builds through Builder.Add) while the replay over the
// prior's pattern would keep it, and the two factors would differ.
func (f *SparseLU) Refactor(a *Sparse) error {
	if !f.safe {
		return fmt.Errorf("mat: SparseLU.Refactor: factorisation not refactorable: %w", ErrSingular)
	}
	if a.n != f.n || !sameIntSlice(a.rowPtr, f.src.rowPtr) || !sameIntSlice(a.colIdx, f.src.colIdx) {
		return fmt.Errorf("mat: SparseLU.Refactor: matrix structure differs from the factored one: %w", ErrSingular)
	}
	for p, v := range a.vals {
		if v == 0 {
			return fmt.Errorf("mat: SparseLU.Refactor: stored zero at entry %d: %w", p, ErrSingular)
		}
	}
	if f.wbuf == nil {
		f.wbuf = make([]float64, f.n)
	}
	if err := f.refactorRows(a, f.wbuf); err != nil {
		f.clearAccumulator()
		f.safe = false
		return err
	}
	return nil
}

// refactorRows runs the numeric elimination of every permuted row over
// the fixed L/U pattern, against the dense accumulator w (length n, all
// zero; clean again on success). Both the split cold factor (over the
// symbolic pattern) and Refactor (over a prior factor's pattern) run
// it. Each row performs the floating-point sequence of the merged
// elimination in NewSparseLU, so the factors are bit-identical to it
// unless a multiplier is exactly zero: the merged elimination drops
// that entry, shrinking the pattern, so the row returns an error.
func (f *SparseLU) refactorRows(a *Sparse, w []float64) error {
	// Hoist the factor arrays into locals: inside the elimination loops
	// the compiler cannot otherwise prove the slice headers stable (w
	// stores could alias the struct), and reloading them per entry costs
	// ~20% of the replay. Sub-slicing each U row before its saxpy also
	// lets the range loop elide bounds checks. The floating-point
	// sequence is untouched, so bit-identity with the cold factorisation
	// is preserved.
	lPtr, lIdx, lVal := f.lPtr, f.lIdx, f.lVal
	uPtr, uIdx, uVal := f.uPtr, f.uIdx, f.uVal
	uDiag := f.uDiag
	for i := 0; i < f.n; i++ {
		// Scatter row i of P·A·Pᵀ; fill slots start from the zeros the
		// previous row's gather left behind.
		if f.paSrc != nil {
			for q := f.paPtr[i]; q < f.paPtr[i+1]; q++ {
				w[f.paIdx[q]] = a.vals[f.paSrc[q]]
			}
		} else {
			for q := a.rowPtr[i]; q < a.rowPtr[i+1]; q++ {
				w[a.colIdx[q]] = a.vals[q]
			}
		}
		// Consume the recorded lower pattern in its (ascending) order —
		// the order the cold elimination's heap produced.
		for p := lPtr[i]; p < lPtr[i+1]; p++ {
			k := lIdx[p]
			lik := w[k] / uDiag[k]
			w[k] = 0
			lVal[p] = lik
			if lik == 0 {
				// The cold factorisation would have dropped this entry,
				// shrinking the pattern: the replay no longer matches.
				return fmt.Errorf("mat: SparseLU: zero multiplier at row %d: %w", i, ErrSingular)
			}
			cols, vals := uIdx[uPtr[k]:uPtr[k+1]], uVal[uPtr[k]:uPtr[k+1]]
			for q, j := range cols {
				w[j] -= lik * vals[q]
			}
		}
		if w[i] == 0 {
			return fmt.Errorf("mat: SparseLU: zero pivot at row %d: %w", i, ErrSingular)
		}
		uDiag[i] = w[i]
		w[i] = 0
		cols, vals := uIdx[uPtr[i]:uPtr[i+1]], uVal[uPtr[i]:uPtr[i+1]]
		for q, j := range cols {
			vals[q] = w[j]
			w[j] = 0
		}
	}
	return nil
}

// clearAccumulator zeroes the whole dense accumulator after a failed
// Refactor row (fill from eliminated rows may extend anywhere right of
// the pattern), so the buffer is clean for a later attempt.
func (f *SparseLU) clearAccumulator() {
	for j := range f.wbuf {
		f.wbuf[j] = 0
	}
}

// Refactored returns a new factorisation of a that shares this one's
// immutable symbolic analysis (ordering, fill pattern, scatter maps)
// with fresh numeric arrays, leaving the receiver untouched — the form
// shared-factorization caches use, where the prior factorisation may
// still be serving other callers. The result is bit-identical to a cold
// NewSparseLU(a, perm) under the same ordering.
func (f *SparseLU) Refactored(a *Sparse) (*SparseLU, error) {
	if !f.safe {
		return nil, fmt.Errorf("mat: SparseLU.Refactored: factorisation not refactorable: %w", ErrSingular)
	}
	if a.n != f.n || !sameIntSlice(a.rowPtr, f.src.rowPtr) || !sameIntSlice(a.colIdx, f.src.colIdx) {
		return nil, fmt.Errorf("mat: SparseLU.Refactored: matrix structure differs from the factored one: %w", ErrSingular)
	}
	nf := &SparseLU{
		n:        f.n,
		perm:     f.perm,
		lPtr:     f.lPtr,
		lIdx:     f.lIdx,
		lVal:     make([]float64, len(f.lVal)),
		uDiag:    make([]float64, f.n),
		uPtr:     f.uPtr,
		uIdx:     f.uIdx,
		uVal:     make([]float64, len(f.uVal)),
		work:     make([]float64, f.n),
		src:      a,
		paPtr:    f.paPtr,
		paIdx:    f.paIdx,
		paSrc:    f.paSrc,
		safe:     true,
		ordering: f.ordering,
	}
	if err := nf.Refactor(a); err != nil {
		return nil, err
	}
	return nf, nil
}

// NewSparseLUOrdered factors a under an ordering choice. It splits the
// work NewSparseLU fuses: a pattern-only symbolic elimination sizes the
// L/U fill exactly, then one pass of Refactor's numeric kernel fills in
// the values, so the cold factor and every later refresh run the same
// elimination code. Where the split cannot reproduce the merged
// elimination (an exactly zero multiplier or pivot, an incomplete
// scatter map), NewSparseLU(a, ch.Perm) runs instead. Either way the
// result is bit-identical to NewSparseLU(a, ch.Perm).
func NewSparseLUOrdered(a *Sparse, ch OrderingChoice) (*SparseLU, error) {
	f, err := newSparseLUSplit(a, ch.Perm)
	if err != nil {
		if f, err = NewSparseLU(a, ch.Perm); err != nil {
			return nil, err
		}
	}
	f.ordering = ch.Name
	return f, nil
}

// newSparseLUSplit is the split cold factor behind NewSparseLUOrdered:
// Permute, symbolicLU, buildScatterMap, then one refactorRows pass.
// With no exactly zero multiplier the symbolic pattern equals the one
// the merged elimination discovers and every row runs the same
// floating-point sequence, so the factors are bit-identical to
// NewSparseLU(a, perm). It returns an error, and the caller falls back
// to NewSparseLU, wherever that may not hold. The accumulator becomes
// wbuf, so the first Refactor allocates nothing.
func newSparseLUSplit(a *Sparse, perm []int) (*SparseLU, error) {
	pa := a
	if perm != nil {
		var err error
		pa, err = Permute(a, perm)
		if err != nil {
			return nil, err
		}
		perm = append([]int(nil), perm...)
	}
	n := pa.N()
	lPtr, lIdx, uPtr, uIdx, err := symbolicLU(n, pa.rowPtr, pa.colIdx)
	if err != nil {
		return nil, err
	}
	f := &SparseLU{
		n:     n,
		perm:  perm,
		lPtr:  lPtr,
		lIdx:  lIdx,
		lVal:  make([]float64, len(lIdx)),
		uDiag: make([]float64, n),
		uPtr:  uPtr,
		uIdx:  uIdx,
		uVal:  make([]float64, len(uIdx)),
		work:  make([]float64, n),
		src:   a,
		paPtr: pa.rowPtr,
		paIdx: pa.colIdx,
		safe:  true,
	}
	f.buildScatterMap(a, pa)
	if !f.safe {
		// The kernel reads a's values through the scatter map; without a
		// complete one the merged elimination reads the permuted matrix.
		return nil, fmt.Errorf("mat: SparseLU split factor: incomplete scatter map: %w", ErrSingular)
	}
	w := make([]float64, n)
	if err := f.refactorRows(a, w); err != nil {
		return nil, err
	}
	f.wbuf = w
	return f, nil
}
