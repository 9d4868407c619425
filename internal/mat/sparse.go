// Package mat provides the linear-algebra substrate used by the thermal
// solvers: compressed sparse row (CSR) matrices assembled through a
// coordinate builder, an ILU(0)/Jacobi-preconditioned BiCGSTAB iterative
// solver for the non-symmetric systems produced by advective micro-channel
// cells, a conjugate-gradient solver for symmetric systems, a dense LU
// factorisation for small reference problems, and a Thomas tridiagonal
// solver for 1-D marching models.
//
// The package is deliberately self-contained (standard library only): the
// reproduction target environment has no scientific-computing dependencies.
package mat

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Sparse is an immutable square sparse matrix in compressed sparse row
// form. Construct one with a Builder.
type Sparse struct {
	n      int
	rowPtr []int
	colIdx []int
	vals   []float64

	// ck caches the content checksum (0 = not yet computed). The matrix
	// is immutable, so every racer computes the same value and the
	// atomic store is idempotent.
	ck atomic.Uint64
}

// N returns the dimension of the (square) matrix.
func (m *Sparse) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Sparse) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j); absent entries are zero. It is intended
// for tests and diagnostics, not inner loops.
func (m *Sparse) At(i, j int) float64 {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		if m.colIdx[p] == j {
			return m.vals[p]
		}
	}
	return 0
}

// MulVec computes dst = M·x. dst must have length N and must not alias x.
func (m *Sparse) MulVec(dst, x []float64) {
	if len(dst) != m.n || len(x) != m.n {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: n=%d len(dst)=%d len(x)=%d", m.n, len(dst), len(x)))
	}
	for i := range dst {
		dst[i] = m.rowDot(i, x)
	}
}

// rowDot returns row i's inner product with x, summed in storage order.
// The row's values are resliced to its column count, so a range over
// the columns indexes them without bounds checks.
func (m *Sparse) rowDot(i int, x []float64) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	vals := m.vals[lo:hi][:len(cols)]
	s := 0.0
	for k, c := range cols {
		s += vals[k] * x[c]
	}
	return s
}

// The fused kernels below serve the BiCGSTAB iteration: each computes a
// mat-vec exactly as MulVec does and, in the same pass, the inner
// products the iteration needs next, every sum accumulated in ascending
// row order as Dot accumulates it. All slices must have length N.

// residual computes r = b − M·x and returns b·b and r·r.
func (m *Sparse) residual(r, b, x []float64) (bb, rr float64) {
	b = b[:len(r)]
	for i := range r {
		s := m.rowDot(i, x)
		bi := b[i]
		ri := bi - s
		r[i] = ri
		bb += bi * bi
		rr += ri * ri
	}
	return bb, rr
}

// mulVecDot computes dst = M·x and returns y·dst.
func (m *Sparse) mulVecDot(dst, x, y []float64) (yd float64) {
	y = y[:len(dst)]
	for i := range dst {
		s := m.rowDot(i, x)
		dst[i] = s
		yd += y[i] * s
	}
	return yd
}

// mulVecDot2 computes dst = M·x and returns dst·dst and dst·y.
func (m *Sparse) mulVecDot2(dst, x, y []float64) (dd, dy float64) {
	y = y[:len(dst)]
	for i := range dst {
		s := m.rowDot(i, x)
		dst[i] = s
		dd += s * s
		dy += s * y[i]
	}
	return dd, dy
}

// Diagonal extracts the main diagonal into a new slice. Missing diagonal
// entries are returned as zero.
func (m *Sparse) Diagonal() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if m.colIdx[p] == i {
				d[i] = m.vals[p]
				break
			}
		}
	}
	return d
}

// Equal reports whether two matrices are identical: same dimension, same
// stored pattern and bit-identical values. It is the verification step
// behind shared-factorization reuse (see PrepCache), where a false
// positive would silently solve against the wrong system.
func (m *Sparse) Equal(o *Sparse) bool {
	if m == o {
		return true
	}
	if m == nil || o == nil || m.n != o.n || len(m.vals) != len(o.vals) {
		return false
	}
	for i, p := range m.rowPtr {
		if o.rowPtr[i] != p {
			return false
		}
	}
	for i, j := range m.colIdx {
		if o.colIdx[i] != j {
			return false
		}
	}
	for i, v := range m.vals {
		if o.vals[i] != v {
			return false
		}
	}
	return true
}

// Checksum returns a content fingerprint over the dimension, pattern
// and values (FNV-1a). It is computed once and cached — the matrix is
// immutable — so repeated calls are a single atomic load. Equal
// checksums do not prove equality (Equal remains the confirming check);
// unequal checksums prove inequality, which is the common-miss
// short-circuit shared-factorization caches rely on.
func (m *Sparse) Checksum() uint64 {
	if ck := m.ck.Load(); ck != 0 {
		return ck
	}
	// One multiply-xor-rotate round per 64-bit word (splitmix64-style):
	// the hash runs on the flow-change hot path, once per restamped
	// matrix, so it must stream the arrays at memory speed rather than
	// byte-at-a-time.
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	mix(uint64(m.n))
	for _, p := range m.rowPtr {
		mix(uint64(p))
	}
	for _, j := range m.colIdx {
		mix(uint64(j))
	}
	for _, v := range m.vals {
		mix(math.Float64bits(v))
	}
	if h == 0 {
		h = 1 // reserve 0 for "not computed"
	}
	m.ck.Store(h)
	return h
}

// SameStructure reports whether two matrices share an identical
// sparsity pattern — by backing-array identity when both were built
// from one frozen Pattern (the fast path), element-wise otherwise.
func (m *Sparse) SameStructure(o *Sparse) bool {
	if m == nil || o == nil {
		return m == o
	}
	return m.n == o.n && sameIntSlice(m.rowPtr, o.rowPtr) && sameIntSlice(m.colIdx, o.colIdx)
}

// Dense expands the matrix into a row-major dense representation; intended
// for tests on small systems.
func (m *Sparse) Dense() [][]float64 {
	d := make([][]float64, m.n)
	for i := range d {
		d[i] = make([]float64, m.n)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			d[i][m.colIdx[p]] = m.vals[p]
		}
	}
	return d
}

// Scale returns a new matrix equal to s·M.
func (m *Sparse) Scale(s float64) *Sparse {
	out := &Sparse{
		n:      m.n,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		vals:   make([]float64, len(m.vals)),
	}
	for i, v := range m.vals {
		out.vals[i] = s * v
	}
	return out
}

// AddDiagonal returns a new matrix equal to M + diag(d). Entries of d for
// rows that already store a diagonal element are merged in place; rows
// lacking a stored diagonal gain one.
func (m *Sparse) AddDiagonal(d []float64) *Sparse {
	if len(d) != m.n {
		panic("mat: AddDiagonal dimension mismatch")
	}
	b := NewBuilder(m.n)
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			b.Add(i, m.colIdx[p], m.vals[p])
		}
		if d[i] != 0 {
			b.Add(i, i, d[i])
		}
	}
	return b.Build()
}

// Builder accumulates coordinate-format entries and compiles them to CSR.
// Duplicate (i, j) entries are summed, matching the needs of finite-volume
// conductance assembly where each face contributes to several cells.
type Builder struct {
	n       int
	entries []coo
}

type coo struct {
	i, j int
	v    float64
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("mat: NewBuilder requires n > 0")
	}
	return &Builder{n: n}
}

// N returns the matrix dimension the builder was created with.
func (b *Builder) N() int { return b.n }

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("mat: Builder.Add index (%d,%d) out of range n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, coo{i, j, v})
}

// AddConductance wires a symmetric conductance g between nodes i and j:
// +g on both diagonals, −g on both off-diagonals. This is the fundamental
// stamp of a thermal RC network.
func (b *Builder) AddConductance(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// AddToGround wires a conductance g from node i to an implicit fixed
// (ambient) node: only the diagonal entry is stamped; the fixed-node term
// belongs on the right-hand side.
func (b *Builder) AddToGround(i int, g float64) {
	b.Add(i, i, g)
}

// Build compiles the accumulated entries into an immutable CSR matrix.
// The builder remains usable afterwards (e.g. to build a modified copy).
func (b *Builder) Build() *Sparse {
	es := append([]coo(nil), b.entries...)
	sort.Slice(es, func(a, c int) bool {
		if es[a].i != es[c].i {
			return es[a].i < es[c].i
		}
		return es[a].j < es[c].j
	})
	m := &Sparse{n: b.n, rowPtr: make([]int, b.n+1)}
	for k := 0; k < len(es); {
		i, j, v := es[k].i, es[k].j, es[k].v
		k++
		for k < len(es) && es[k].i == i && es[k].j == j {
			v += es[k].v
			k++
		}
		m.colIdx = append(m.colIdx, j)
		m.vals = append(m.vals, v)
		m.rowPtr[i+1] = len(m.vals)
	}
	for i := 1; i <= b.n; i++ {
		if m.rowPtr[i] < m.rowPtr[i-1] {
			m.rowPtr[i] = m.rowPtr[i-1]
		}
	}
	return m
}
