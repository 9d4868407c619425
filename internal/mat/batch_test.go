package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchTestSystem builds the advective-diffusive grid system the solver
// ablation benchmarks use — the same structure the cavity model
// produces — at n×n cells.
func batchTestSystem(n int) *Sparse {
	b := NewBuilder(n * n)
	idx := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			k := idx(i, j)
			b.Add(k, k, 4.8)
			if i > 0 {
				b.Add(k, idx(i-1, j), -1.8)
			}
			if i < n-1 {
				b.Add(k, idx(i+1, j), -1)
			}
			if j > 0 {
				b.Add(k, idx(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(k, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

// batchRHS synthesises width deterministic right-hand sides and guesses:
// a mix of cold starts (nil guess), warm starts near the solution, an
// exact warm start (early exit) and a zero rhs.
func batchRHS(a *Sparse, width int, seed int64) (b, x0 [][]float64) {
	n := a.N()
	rng := rand.New(rand.NewSource(seed))
	b = make([][]float64, width)
	x0 = make([][]float64, width)
	for j := 0; j < width; j++ {
		b[j] = make([]float64, n)
		for i := range b[j] {
			b[j][i] = rng.NormFloat64()
		}
		switch j % 4 {
		case 0: // cold start
			x0[j] = nil
		case 1: // warm start near nothing in particular
			x0[j] = make([]float64, n)
			for i := range x0[j] {
				x0[j][i] = 0.1 * rng.NormFloat64()
			}
		case 2: // exact warm start: solve first, then hand the solution in
			s, err := NewSolver(BackendDirect, SolverOptions{})
			if err != nil {
				panic(err)
			}
			ws, err := s.Prepare(a)
			if err != nil {
				panic(err)
			}
			x0[j] = make([]float64, n)
			if err := ws.Solve(x0[j], b[j], nil); err != nil {
				panic(err)
			}
		case 3: // zero rhs with a warm guess: the bnorm==0 early path
			Fill(b[j], 0)
			x0[j] = make([]float64, n)
			for i := range x0[j] {
				x0[j][i] = rng.NormFloat64()
			}
		}
	}
	return b, x0
}

// sharedFactors factors a with every backend, keyed by backend name.
// Only the direct backend's factorization blocks across columns; the
// iterative backends' columns take their solo kernels, so their
// factorizations must not offer a batch workspace.
func sharedFactors(t *testing.T, a *Sparse, opt SolverOptions) map[string]Factorization {
	t.Helper()
	out := map[string]Factorization{}
	for _, backend := range Backends() {
		s, err := NewSolver(backend, opt)
		if err != nil {
			t.Fatal(err)
		}
		fact, err := s.(Factorizer).Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fact.(BatchFactorization); ok != (backend == BackendDirect) {
			t.Fatalf("%s factorization blocks = %v, want only direct to block", backend, ok)
		}
		out[backend] = fact
	}
	return out
}

// columnSolver solves a chunk of columns against one shared
// factorization the way a lockstep step routes them
// (thermal.BatchStepper): in one blocked pass when the factorization
// blocks, otherwise column by column through one reused solo workspace,
// as a transient stepper reuses its workspace step after step. iters
// receives each column's iteration count.
type columnSolver func(dst, b, x0 [][]float64, res []ColumnResult, iters []int)

func newColumnSolver(fact Factorization) columnSolver {
	if bf, ok := fact.(BatchFactorization); ok {
		bw := bf.NewBatchWorkspace()
		return func(dst, b, x0 [][]float64, res []ColumnResult, iters []int) {
			bw.SolveBatch(dst, b, x0, res)
			for j := range iters {
				iters[j] = 0 // direct back-substitutions do not iterate
			}
		}
	}
	ws := fact.NewWorkspace()
	return func(dst, b, x0 [][]float64, res []ColumnResult, iters []int) {
		for j := range dst {
			before := ws.Stats()
			err := ws.Solve(dst[j], b[j], column(x0, j))
			after := ws.Stats()
			res[j] = ColumnResult{EarlyExit: after.EarlyExits > before.EarlyExits, Err: err}
			iters[j] = after.Iterations - before.Iterations
		}
	}
}

// TestSolveBatchBitIdentical pins the core multi-RHS contract: for every
// backend, the column results of a lockstep chunk — solutions, iteration
// counts, early exits and errors — are bit-identical to a standalone
// Workspace.Solve of the same column, whatever the batch width or
// composition. Direct columns solve blocked (SolveBatch); iterative
// columns solve solo on a workspace shared across the chunk.
func TestSolveBatchBitIdentical(t *testing.T) {
	a := batchTestSystem(24)
	n := a.N()
	const width = 9
	for backend, fact := range sharedFactors(t, a, SolverOptions{Tol: 1e-10}) {
		t.Run(backend, func(t *testing.T) {
			b, x0 := batchRHS(a, width, 42)

			// Solo reference: a fresh workspace per column, like one
			// transient stepper per scenario.
			ref := make([][]float64, width)
			refRes := make([]ColumnResult, width)
			refIters := make([]int, width)
			for j := 0; j < width; j++ {
				ws := fact.NewWorkspace()
				before := ws.Stats()
				ref[j] = make([]float64, n)
				err := ws.Solve(ref[j], b[j], x0[j])
				after := ws.Stats()
				refRes[j] = ColumnResult{
					EarlyExit: after.EarlyExits > before.EarlyExits,
					Err:       err,
				}
				refIters[j] = after.Iterations - before.Iterations
			}

			for _, split := range [][]int{{width}, {1, width - 1}, {3, 3, 3}, {width - 2, 2}} {
				solve := newColumnSolver(fact)
				got := make([][]float64, width)
				for j := range got {
					got[j] = make([]float64, n)
				}
				res := make([]ColumnResult, width)
				iters := make([]int, width)
				at := 0
				for _, sz := range split {
					solve(got[at:at+sz], b[at:at+sz], x0[at:at+sz], res[at:at+sz], iters[at:at+sz])
					at += sz
				}
				for j := 0; j < width; j++ {
					if (res[j].Err == nil) != (refRes[j].Err == nil) {
						t.Fatalf("split %v col %d: err %v, solo %v", split, j, res[j].Err, refRes[j].Err)
					}
					if res[j].EarlyExit != refRes[j].EarlyExit || iters[j] != refIters[j] {
						t.Fatalf("split %v col %d: counters %+v iters %d, solo %+v iters %d",
							split, j, res[j], iters[j], refRes[j], refIters[j])
					}
					for i := 0; i < n; i++ {
						if got[j][i] != ref[j][i] {
							t.Fatalf("split %v col %d row %d: %v != solo %v", split, j, i, got[j][i], ref[j][i])
						}
					}
				}
			}
		})
	}
}

// TestSolveBatchColumnErrors checks that a malformed column fails alone:
// its neighbours in the chunk still solve bit-identically, on every
// backend.
func TestSolveBatchColumnErrors(t *testing.T) {
	a := batchTestSystem(8)
	n := a.N()
	for backend, fact := range sharedFactors(t, a, SolverOptions{}) {
		t.Run(backend, func(t *testing.T) {
			b, x0 := batchRHS(a, 3, 7)
			b[1] = b[1][:n-1] // malformed
			dst := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
			res := make([]ColumnResult, 3)
			newColumnSolver(fact)(dst, b, x0, res, make([]int, 3))
			if res[1].Err == nil {
				t.Fatal("malformed column did not error")
			}
			for _, j := range []int{0, 2} {
				if res[j].Err != nil {
					t.Fatalf("column %d: %v", j, res[j].Err)
				}
				ws := fact.NewWorkspace()
				want := make([]float64, n)
				if err := ws.Solve(want, b[j], x0[j]); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if dst[j][i] != want[i] {
						t.Fatalf("column %d drifted at %d", j, i)
					}
				}
			}
		})
	}
}

// TestSolveBlockMatchesSolveWith pins the blocked triangular kernel
// directly against SolveWith on the raw factorisation.
func TestSolveBlockMatchesSolveWith(t *testing.T) {
	a := batchTestSystem(16)
	n := a.N()
	for _, perm := range [][]int{nil, RCM(a)} {
		f, err := NewSparseLU(a, perm)
		if err != nil {
			t.Fatal(err)
		}
		const width = 5
		b, _ := batchRHS(a, width, 3)
		dst := make([][]float64, width)
		cols := make([]int, width)
		for j := range dst {
			dst[j] = make([]float64, n)
			cols[j] = j
		}
		f.SolveBlock(dst, b, cols, make([]float64, n*width))
		want := make([]float64, n)
		work := make([]float64, n)
		for j := 0; j < width; j++ {
			f.SolveWith(want, b[j], work)
			for i := range want {
				if dst[j][i] != want[i] {
					t.Fatalf("perm=%v col %d row %d: %v != %v", perm != nil, j, i, dst[j][i], want[i])
				}
			}
		}
	}
}

// BenchmarkSolveBlock measures the blocked multi-RHS back-substitution
// against per-column SolveWith at the transient sweep's working size
// (a 53×53 advective grid ≈ the 2-tier stack's node count). The ns/op
// ratio per column is the kernel-level batching speedup.
func BenchmarkSolveBlock(b *testing.B) {
	a := batchTestSystem(53)
	n := a.N()
	f, err := NewSparseLU(a, RCM(a))
	if err != nil {
		b.Fatal(err)
	}
	const width = 50
	rhs, _ := batchRHS(a, width, 1)
	for j := range rhs {
		if Norm2(rhs[j]) == 0 {
			rhs[j][0] = 1
		}
	}
	dst := make([][]float64, width)
	cols := make([]int, width)
	for j := range dst {
		dst[j] = make([]float64, n)
		cols[j] = j
	}
	b.Run("solo50", func(b *testing.B) {
		work := make([]float64, n)
		for i := 0; i < b.N; i++ {
			for j := 0; j < width; j++ {
				f.SolveWith(dst[j], rhs[j], work)
			}
		}
	})
	b.Run(fmt.Sprintf("blocked%d", width), func(b *testing.B) {
		xb := make([]float64, n*width)
		for i := 0; i < b.N; i++ {
			f.SolveBlock(dst, rhs, cols, xb)
		}
	})
}

// BenchmarkSolveBlockStrips explores the strip width trade-off: narrow
// strips keep the blocked solution window cache-resident but re-stream
// the factors once per strip.
func BenchmarkSolveBlockStrips(b *testing.B) {
	a := batchTestSystem(53)
	n := a.N()
	f, err := NewSparseLU(a, RCM(a))
	if err != nil {
		b.Fatal(err)
	}
	const width = 50
	rhs, _ := batchRHS(a, width, 1)
	dst := make([][]float64, width)
	cols := make([]int, width)
	for j := range dst {
		dst[j] = make([]float64, n)
		cols[j] = j
	}
	for _, strip := range []int{4, 8, 12, 16, 25, 50} {
		b.Run(fmt.Sprintf("strip%d", strip), func(b *testing.B) {
			xb := make([]float64, n*width)
			for i := 0; i < b.N; i++ {
				for at := 0; at < width; at += strip {
					end := at + strip
					if end > width {
						end = width
					}
					f.SolveBlock(dst[at:end], rhs[at:end], cols[:end-at], xb)
				}
			}
		})
	}
}
