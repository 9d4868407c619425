package mat

import (
	"fmt"
	"sort"
)

// This file defines the fill-reducing-ordering seam of the direct
// sparse-LU backend. An Ordering maps a sparsity pattern to a symmetric
// permutation (perm[new] = old) that keeps the LU fill small; the
// registry holds:
//
//	natural — identity (no reordering)
//	rcm     — reverse Cuthill–McKee (bandwidth-oriented; see rcm.go)
//	amd     — approximate minimum degree (see amd.go)
//	nd      — nested dissection by recursive BFS bisection (see nd.go)
//	auto    — tries amd, nd and rcm at symbolic-factorisation time and
//	          keeps the candidate with the least predicted fill
//
// Orderings are pure functions of the sparsity pattern, so a choice can
// be memoised per pattern (see PrepCache) and every reuse is exactly
// what a cold computation would have produced — refactorisation under a
// memoised ordering stays bit-identical to a cold factorisation.

// Registered ordering names.
const (
	// OrderingNatural keeps the assembly order (no reordering).
	OrderingNatural = "natural"
	// OrderingRCM is reverse Cuthill–McKee.
	OrderingRCM = "rcm"
	// OrderingAMD is approximate minimum degree.
	OrderingAMD = "amd"
	// OrderingND is nested dissection with AMD-ordered leaves.
	OrderingND = "nd"
	// OrderingAuto picks the candidate with the least predicted fill.
	OrderingAuto = "auto"
	// DefaultOrdering is used when no ordering is named.
	DefaultOrdering = OrderingAuto
)

// OrderingChoice is the outcome of ordering one sparsity pattern.
type OrderingChoice struct {
	// Name is the concrete ordering that produced Perm — for "auto" the
	// winning candidate, so stats report what actually ran.
	Name string
	// Perm is the permutation, perm[new] = old; nil keeps natural order.
	Perm []int
}

// Ordering computes fill-reducing permutations for sparsity patterns.
// Implementations must be pure functions of the pattern (deterministic,
// value-independent), so choices can be memoised per pattern.
type Ordering interface {
	// Name returns the registry name.
	Name() string
	// Order computes the permutation for a's pattern.
	Order(a *Sparse) OrderingChoice
}

type naturalOrdering struct{}

func (naturalOrdering) Name() string                   { return OrderingNatural }
func (naturalOrdering) Order(a *Sparse) OrderingChoice { return OrderingChoice{Name: OrderingNatural} }

type rcmOrdering struct{}

func (rcmOrdering) Name() string { return OrderingRCM }
func (rcmOrdering) Order(a *Sparse) OrderingChoice {
	return OrderingChoice{Name: OrderingRCM, Perm: RCM(a)}
}

type amdOrdering struct{}

func (amdOrdering) Name() string { return OrderingAMD }
func (amdOrdering) Order(a *Sparse) OrderingChoice {
	return OrderingChoice{Name: OrderingAMD, Perm: AMD(a)}
}

type ndOrdering struct{}

func (ndOrdering) Name() string { return OrderingND }
func (ndOrdering) Order(a *Sparse) OrderingChoice {
	return OrderingChoice{Name: OrderingND, Perm: NDOrder(a)}
}

type autoOrdering struct{}

func (autoOrdering) Name() string { return OrderingAuto }

// autoCandidates are tried in order; the least predicted fill wins and
// the first candidate wins ties, so the choice is deterministic.
var autoCandidates = []string{OrderingAMD, OrderingND, OrderingRCM}

// Order implements Ordering: it scores every candidate by the Cholesky
// fill of the symmetrised pattern — an upper bound on (and for the
// structurally symmetric case, exactly) the LU fill, which the
// elimination tree counts in O(nnz(A) + nnz(L)). The paper's cavity
// matrices carry one-sided upwind-advection entries, so scoring the
// exact unsymmetric fill would need the O(flops) heap merge on every
// candidate — measured at ~10× the cost of the orderings themselves —
// on each cold prep.
func (autoOrdering) Order(a *Sparse) OrderingChoice {
	n := a.N()
	symPtr, symIdx := symmetrizePattern(n, a.rowPtr, a.colIdx)
	best := OrderingChoice{Name: OrderingNatural}
	bestFill := -1
	for _, name := range autoCandidates {
		ch := orderingRegistry[name].Order(a)
		ptr, idx := symPtr, symIdx
		if ch.Perm != nil {
			var err error
			ptr, idx, err = permutePatternRaw(n, symPtr, symIdx, ch.Perm)
			if err != nil {
				continue
			}
		}
		fill := symmetricFill(n, ptr, idx)
		if fill < 0 {
			continue
		}
		if bestFill < 0 || fill < bestFill {
			best, bestFill = ch, fill
		}
	}
	return best
}

var orderingRegistry = map[string]Ordering{
	OrderingNatural: naturalOrdering{},
	OrderingRCM:     rcmOrdering{},
	OrderingAMD:     amdOrdering{},
	OrderingND:      ndOrdering{},
	OrderingAuto:    autoOrdering{},
}

// Orderings returns the registered ordering names, sorted.
func Orderings() []string {
	out := make([]string, 0, len(orderingRegistry))
	for name := range orderingRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// KnownOrdering reports whether name is registered ("" selects the
// default and is always known).
func KnownOrdering(name string) bool {
	if name == "" {
		return true
	}
	_, ok := orderingRegistry[name]
	return ok
}

// NewOrdering returns the registered ordering; an empty name selects
// DefaultOrdering.
func NewOrdering(name string) (Ordering, error) {
	if name == "" {
		name = DefaultOrdering
	}
	o, ok := orderingRegistry[name]
	if !ok {
		return nil, fmt.Errorf("mat: unknown ordering %q (want one of %v)", name, Orderings())
	}
	return o, nil
}

// OrderMatrix orders a's pattern under the named ordering; an empty or
// unknown name degrades to DefaultOrdering (callers validate names at
// the configuration boundary with KnownOrdering).
func OrderMatrix(name string, a *Sparse) OrderingChoice {
	o, err := NewOrdering(name)
	if err != nil {
		o = orderingRegistry[DefaultOrdering]
	}
	return o.Order(a)
}

// PredictFill returns the factor size nnz(L)+nnz(U) (diagonal included)
// a factorisation of a under perm would produce — the quantity the auto
// ordering minimises — by running the pattern-only symbolic elimination.
// It returns -1 when the permuted pattern lacks a structural diagonal
// (the factorisation would fail).
func PredictFill(a *Sparse, perm []int) int {
	ptr, idx := a.rowPtr, a.colIdx
	if perm != nil {
		var err error
		ptr, idx, err = permutePattern(a, perm)
		if err != nil {
			return -1
		}
	}
	n := a.N()
	if patternSymmetric(n, ptr, idx) {
		return symmetricFill(n, ptr, idx)
	}
	lPtr, _, uPtr, _, err := symbolicLU(n, ptr, idx)
	if err != nil {
		return -1
	}
	return lPtr[n] + uPtr[n] + n
}

// patternSymmetric reports whether the pattern has an entry (j, i) for
// every entry (i, j). Rows must hold ascending column indices — both
// Builder.Build and permutePattern emit them sorted.
func patternSymmetric(n int, ptr, idx []int) bool {
	for i := 0; i < n; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			j := idx[p]
			if j == i {
				continue
			}
			row := idx[ptr[j]:ptr[j+1]]
			lo, hi := 0, len(row)
			for lo < hi {
				m := (lo + hi) / 2
				if row[m] < i {
					lo = m + 1
				} else {
					hi = m
				}
			}
			if lo == len(row) || row[lo] != i {
				return false
			}
		}
	}
	return true
}

// symmetricFill returns the exact factor size nnz(L)+nnz(U) (diagonal
// included) of a structurally symmetric pattern without materialising
// the fill: for a symmetric pattern with a structural diagonal the LU
// fill equals the Cholesky fill, row i of L being exactly the i-th row
// subtree of the elimination tree. The tree comes from Liu's
// path-compressed ancestor walk and every row subtree is traversed
// once, so the whole count is O(nnz(A) + nnz(L)) — against the O(flops)
// heap merge of symbolicLU, this is what keeps the auto ordering's
// candidate comparison off the cold-prep critical path. Returns -1 when
// a structural diagonal is missing (the factorisation would fail).
func symmetricFill(n int, ptr, idx []int) int {
	parent := make([]int, n)
	anc := make([]int, n)
	for i := range parent {
		parent[i], anc[i] = -1, -1
	}
	for i := 0; i < n; i++ {
		hasDiag := false
		hasLower := false
		for p := ptr[i]; p < ptr[i+1]; p++ {
			k := idx[p]
			if k == i {
				hasDiag = true
			}
			if k >= i {
				continue
			}
			hasLower = true
			for k != -1 && k != i {
				next := anc[k]
				anc[k] = i
				if next == -1 {
					parent[k] = i
				}
				k = next
			}
		}
		// A missing structural diagonal is fine when elimination fills
		// it: any strictly-lower entry k brings (i, i) in via U row k's
		// symmetric (k, i) entry — exactly when symbolicLU succeeds.
		if !hasDiag && !hasLower {
			return -1
		}
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	nnzL := 0
	for i := 0; i < n; i++ {
		mark[i] = i
		for p := ptr[i]; p < ptr[i+1]; p++ {
			k := idx[p]
			if k >= i {
				continue
			}
			// Walk toward the root; i is an ancestor of k (a symmetric
			// entry (i,k) with k < i forces it), so the walk always
			// terminates at mark[i] == i.
			for k != -1 && mark[k] != i {
				mark[k] = i
				nnzL++
				k = parent[k]
			}
		}
	}
	return 2*nnzL + n
}

// permutePattern returns the CSR pattern of P·A·Pᵀ without touching the
// values — the cheap form the symbolic analyses consume.
func permutePattern(a *Sparse, perm []int) (ptr, idx []int, err error) {
	return permutePatternRaw(a.N(), a.rowPtr, a.colIdx, perm)
}

// permutePatternRaw is permutePattern on a bare CSR pattern.
func permutePatternRaw(n int, aPtr, aIdx, perm []int) (ptr, idx []int, err error) {
	if len(perm) != n {
		return nil, nil, fmt.Errorf("mat: permutation length %d != n %d", len(perm), n)
	}
	inv := make([]int, n)
	seen := make([]bool, n)
	for newI, oldI := range perm {
		if oldI < 0 || oldI >= n || seen[oldI] {
			return nil, nil, fmt.Errorf("mat: invalid permutation entry %d", oldI)
		}
		seen[oldI] = true
		inv[oldI] = newI
	}
	ptr = make([]int, n+1)
	for oldI := 0; oldI < n; oldI++ {
		ptr[inv[oldI]+1] = aPtr[oldI+1] - aPtr[oldI]
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	idx = make([]int, ptr[n])
	for oldI := 0; oldI < n; oldI++ {
		q := ptr[inv[oldI]]
		for p := aPtr[oldI]; p < aPtr[oldI+1]; p++ {
			idx[q] = inv[aIdx[p]]
			q++
		}
	}
	for i := 0; i < n; i++ {
		sort.Ints(idx[ptr[i]:ptr[i+1]])
	}
	return ptr, idx, nil
}

// symmetrizePattern returns the CSR pattern of A ∪ Aᵀ with sorted rows
// (values ignored) — the form symmetricFill consumes for patterns that
// carry one-sided entries.
func symmetrizePattern(n int, aPtr, aIdx []int) (ptr, idx []int) {
	counts := make([]int, n+1)
	for i := 0; i < n; i++ {
		for p := aPtr[i]; p < aPtr[i+1]; p++ {
			counts[i+1]++
			if aIdx[p] != i {
				counts[aIdx[p]+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	ptr = make([]int, n+1)
	copy(ptr, counts)
	idx = make([]int, counts[n])
	fillAt := make([]int, n)
	for i := 0; i < n; i++ {
		fillAt[i] = ptr[i]
	}
	for i := 0; i < n; i++ {
		for p := aPtr[i]; p < aPtr[i+1]; p++ {
			j := aIdx[p]
			idx[fillAt[i]] = j
			fillAt[i]++
			if j != i {
				idx[fillAt[j]] = i
				fillAt[j]++
			}
		}
	}
	// Sort and dedup each row: mirrored entries of already-two-sided
	// pairs arrive twice.
	w := 0
	ptrOut := make([]int, n+1)
	for i := 0; i < n; i++ {
		row := idx[ptr[i]:fillAt[i]]
		sort.Ints(row)
		for q, j := range row {
			if q > 0 && j == row[q-1] {
				continue
			}
			idx[w] = j
			w++
		}
		ptrOut[i+1] = w
	}
	return ptrOut, idx[:w]
}

// symbolicLU eliminates the pattern (ptr, idx) symbolically — the exact
// heap-merge walk of NewSparseLU minus the arithmetic — returning the L
// and U fill patterns (L strictly lower, U strictly upper, both with
// ascending column indices per row; the diagonal is implicit). When no
// exactly zero multiplier occurs in the numeric elimination, these
// patterns equal the ones NewSparseLU stores, which is what lets
// NewSparseLUOrdered split a cold factorisation into this analysis and
// one pass of Refactor's numeric kernel, bit-identical to the merged
// elimination.
func symbolicLU(n int, ptr, idx []int) (lPtr, lIdx, uPtr, uIdx []int, err error) {
	lPtr = make([]int, n+1)
	uPtr = make([]int, n+1)
	inPat := make([]bool, n)
	heap := make([]int, 0, 64)
	upper := make([]int, 0, 64)
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
		for p := ptr[i]; p < ptr[i+1]; p++ {
			j := idx[p]
			if inPat[j] {
				continue
			}
			inPat[j] = true
			if j < i {
				push(j)
			} else {
				upper = append(upper, j)
			}
		}
		for len(heap) > 0 {
			k := pop()
			inPat[k] = false
			lIdx = append(lIdx, k)
			for q := uPtr[k]; q < uPtr[k+1]; q++ {
				j := uIdx[q]
				if !inPat[j] {
					inPat[j] = true
					if j < i {
						push(j)
					} else {
						upper = append(upper, j)
					}
				}
			}
		}
		lPtr[i+1] = len(lIdx)
		if !inPat[i] {
			clearBools(inPat, upper)
			return nil, nil, nil, nil, fmt.Errorf("mat: symbolic LU: row %d has no diagonal entry: %w", i, ErrSingular)
		}
		inPat[i] = false
		sort.Ints(upper)
		for _, j := range upper {
			if j == i {
				continue
			}
			uIdx = append(uIdx, j)
			inPat[j] = false
		}
		uPtr[i+1] = len(uIdx)
	}
	return lPtr, lIdx, uPtr, uIdx, nil
}

func clearBools(inPat []bool, pattern []int) {
	for _, j := range pattern {
		inPat[j] = false
	}
}
