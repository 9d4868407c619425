package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the natural-order CSR forms of the bicgstab backend's
// solo kernels as test oracles: ILU(0) factored and swept over CSR
// values, the plain indexed mat-vec, and the unfused BiCGSTAB iteration.
// The production kernels (ILU.Apply, Sparse.MulVec and bicgstabWS.Solve)
// reorder rows and fuse vector passes, but they must perform the same
// floating-point operations in the same order, so their results match
// these oracles bit for bit on every input.

// csrILU is ILU(0) over a CSR copy of the matrix values.
type csrILU struct {
	n                    int
	rowPtr, colIdx, diag []int
	vals                 []float64
}

// newCSRILU factors a by IKJ elimination restricted to its pattern.
func newCSRILU(a *Sparse) (*csrILU, error) {
	f := &csrILU{
		n:      a.n,
		rowPtr: a.rowPtr,
		colIdx: a.colIdx,
		vals:   append([]float64(nil), a.vals...),
		diag:   make([]int, a.n),
	}
	for i := 0; i < f.n; i++ {
		f.diag[i] = -1
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			if f.colIdx[p] == i {
				f.diag[i] = p
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, errors.New("no diagonal")
		}
	}
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
				break
			}
			piv := f.vals[f.diag[k]]
			if piv == 0 {
				return nil, errors.New("zero pivot")
			}
			lik := f.vals[p] / piv
			f.vals[p] = lik
			for q := f.diag[k] + 1; q < f.rowPtr[k+1]; q++ {
				if pos := colPos[f.colIdx[q]]; pos >= 0 {
					f.vals[pos] -= lik * f.vals[q]
				}
			}
		}
		if f.vals[f.diag[i]] == 0 {
			return nil, errors.New("zero diagonal")
		}
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			colPos[f.colIdx[p]] = -1
		}
	}
	return f, nil
}

// apply computes dst = (LU)⁻¹·v with natural-order sweeps; dst and v
// may alias.
func (f *csrILU) apply(dst, v []float64) {
	for i := 0; i < f.n; i++ {
		s := v[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			s -= f.vals[p] * dst[f.colIdx[p]]
		}
		dst[i] = s
	}
	for i := f.n - 1; i >= 0; i-- {
		s := dst[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			s -= f.vals[p] * dst[f.colIdx[p]]
		}
		dst[i] = s / f.vals[f.diag[i]]
	}
}

// oracleMulVec computes dst = a·x row by row in storage order.
func oracleMulVec(a *Sparse, dst, x []float64) {
	for i := 0; i < a.n; i++ {
		s := 0.0
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			s += a.vals[p] * x[a.colIdx[p]]
		}
		dst[i] = s
	}
}

// oracleBiCGSTAB is the unfused preconditioned BiCGSTAB iteration: one
// vector pass per operation. exit and restarts record the path the last
// solve took, so generated cases can show which branches they covered.
type oracleBiCGSTAB struct {
	a       *Sparse
	prec    func(dst, v []float64)
	tol     float64
	maxIter int
	stats   SolveStats

	exit     string
	restarts int
}

func (o *oracleBiCGSTAB) solve(dst, b, x0 []float64) error {
	n := o.a.n
	r, rhat, v, p := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	phat, s, shat, t := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	o.stats.Solves++
	o.restarts = 0
	x := dst
	if x0 != nil {
		copy(x, x0)
	} else {
		Fill(x, 0)
	}
	oracleMulVec(o.a, r, x)
	Sub(r, b, r)
	bnorm := Norm2(b)
	if bnorm == 0 {
		Fill(x, 0)
		o.stats.EarlyExits++
		o.exit = "zero rhs"
		return nil
	}
	if Norm2(r)/bnorm <= o.tol {
		o.stats.EarlyExits++
		o.exit = "warm start"
		return nil
	}
	copy(rhat, r)
	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 0; it < o.maxIter; it++ {
		o.stats.Iterations++
		rhoNew := Dot(rhat, r)
		if math.Abs(rhoNew) < 1e-300 {
			o.restarts++
			copy(rhat, r)
			rhoNew = Dot(rhat, r)
			if math.Abs(rhoNew) < 1e-300 {
				o.exit = "breakdown"
				return ErrNoConvergence
			}
			Fill(p, 0)
			rho, alpha, omega = 1, 1, 1
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		o.prec(phat, p)
		oracleMulVec(o.a, v, phat)
		den := Dot(rhat, v)
		if den == 0 {
			o.exit = "zero r̂·v"
			return ErrNoConvergence
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if Norm2(s)/bnorm <= o.tol {
			AXPY(alpha, phat, x)
			o.exit = "‖s‖ converged"
			return nil
		}
		o.prec(shat, s)
		oracleMulVec(o.a, t, shat)
		tt := Dot(t, t)
		if tt == 0 {
			o.exit = "zero t·t"
			return ErrNoConvergence
		}
		omega = Dot(t, s) / tt
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		res := Norm2(r) / bnorm
		if res <= o.tol {
			o.exit = "‖r‖ converged"
			return nil
		}
		if omega == 0 || math.IsNaN(res) || math.IsInf(res, 0) {
			o.exit = "stagnated"
			return ErrNoConvergence
		}
	}
	o.exit = "maxIter"
	return ErrNoConvergence
}

// sameBits reports bit equality, treating any two NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// firstBitDiff returns the first index where got and want differ in
// bits, or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// randomPatternSystem returns an n×n matrix whose off-diagonal entries
// are each present with probability density; about one row in five
// keeps only its diagonal, so rows without strict-L or strict-U entries
// occur throughout. A dominant matrix has a diagonal larger than its
// row's off-diagonal magnitudes; otherwise the diagonal is an arbitrary
// normal draw and, one row in forty, missing.
func randomPatternSystem(rng *rand.Rand, n int, density float64, dominant bool) *Sparse {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		sum := 0.0
		if rng.Float64() >= 0.2 {
			for j := 0; j < n; j++ {
				if j != i && rng.Float64() < density {
					v := rng.Float64()*2 - 1
					b.Add(i, j, v)
					sum += math.Abs(v)
				}
			}
		}
		switch {
		case dominant:
			b.Add(i, i, sum+0.5+rng.Float64())
		case rng.Intn(40) > 0:
			b.Add(i, i, rng.NormFloat64())
		}
	}
	return b.Build()
}

// denseLastRowSystem is the heat-sink shape: a chain of cells all
// coupled to the last node, whose row and column are dense.
func denseLastRowSystem(n int) *Sparse {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i, 5)
		if i > 0 {
			b.AddConductance(i, i-1, 1)
		}
		b.AddConductance(i, n-1, 0.5)
	}
	b.Add(n-1, n-1, 3)
	return b.Build()
}

// withValues returns a matrix on a's pattern whose values are a's
// scaled entry by entry, as a flow change restamps a frozen pattern.
func withValues(rng *rand.Rand, a *Sparse) *Sparse {
	vals := make([]float64, len(a.vals))
	for p, v := range a.vals {
		vals[p] = v * (0.8 + 0.4*rng.Float64())
	}
	return &Sparse{n: a.n, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: vals}
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// checkILUAgainstOracle factors a both ways and compares Apply with the
// CSR sweep; it then refactors a restamped copy of a and checks that the
// refreshed factor shares the sweep schedule and still matches.
func checkILUAgainstOracle(t *testing.T, rng *rand.Rand, name string, a *Sparse) {
	t.Helper()
	f, err := NewILU(a)
	o, oerr := newCSRILU(a)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s: NewILU error %v, oracle %v", name, err, oerr)
	}
	if err != nil {
		return
	}
	checkApply(t, rng, name, f, o)
	a2 := withValues(rng, a)
	f2, err := f.Refactored(a2)
	o2, oerr := newCSRILU(a2)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s: Refactored error %v, oracle %v", name, err, oerr)
	}
	if err != nil {
		return
	}
	if f2.sched != f.sched {
		t.Fatalf("%s: Refactored built its own sweep schedule", name)
	}
	checkApply(t, rng, name+" refactored", f2, o2)
}

// checkApply compares f.Apply, out of place and in place, with the CSR
// sweep bit for bit on a random vector.
func checkApply(t *testing.T, rng *rand.Rand, name string, f *ILU, o *csrILU) {
	t.Helper()
	v := randomVec(rng, f.n)
	want := make([]float64, f.n)
	o.apply(want, v)
	got := make([]float64, f.n)
	f.Apply(got, v)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: Apply row %d = %v, CSR sweep %v", name, i, got[i], want[i])
	}
	copy(got, v)
	f.Apply(got, got)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: in-place Apply row %d = %v, CSR sweep %v", name, i, got[i], want[i])
	}
}

// TestILUApplyMatchesCSRSweep pins the scheduled sweeps to the
// natural-order CSR sweep on generated and hand-shaped systems.
func TestILUApplyMatchesCSRSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	one := NewBuilder(1)
	one.Add(0, 0, 2.5)
	grid := gridSystem(9, 0.3)
	rcmGrid, err := Permute(grid, RCM(grid))
	if err != nil {
		t.Fatal(err)
	}
	checkILUAgainstOracle(t, rng, "n=1", one.Build())
	checkILUAgainstOracle(t, rng, "dense last row", denseLastRowSystem(40))
	checkILUAgainstOracle(t, rng, "grid", grid)
	checkILUAgainstOracle(t, rng, "rcm grid", rcmGrid)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(80)
		a := randomPatternSystem(rng, n, 0.02+0.3*rng.Float64(), trial%4 != 3)
		checkILUAgainstOracle(t, rng, "random", a)
		// gmres factors the RCM-permuted matrix.
		pa, err := Permute(a, RCM(a))
		if err != nil {
			t.Fatal(err)
		}
		checkILUAgainstOracle(t, rng, "random rcm", pa)

		x := randomVec(rng, n)
		got, want := make([]float64, n), make([]float64, n)
		a.MulVec(got, x)
		oracleMulVec(a, want, x)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("MulVec row %d = %v, indexed loop %v", i, got[i], want[i])
		}
	}
}

// solveCase is one generated BiCGSTAB input.
type solveCase struct {
	kind  string
	a     *Sparse
	b, x0 []float64
	opt   SolverOptions
}

// genSolveCase draws a case of the given kind. Each kind aims at one
// path of the iteration; the test checks the paths were reached.
func genSolveCase(rng *rand.Rand, kind int) solveCase {
	n := 2 + rng.Intn(40)
	a := randomPatternSystem(rng, n, 0.05+0.25*rng.Float64(), true)
	c := solveCase{a: a, b: randomVec(rng, n)}
	switch kind {
	case 0:
		c.kind = "cold"
	case 1:
		c.kind = "loose tolerance"
		c.opt.Tol = 1e-4
	case 2:
		c.kind = "exact warm start"
		lu, err := NewDenseLU(a.Dense())
		if err == nil {
			c.x0, err = lu.Solve(c.b)
		}
		if err != nil {
			panic(err)
		}
	case 3:
		c.kind = "zero rhs"
		Fill(c.b, 0)
		if rng.Intn(2) == 0 {
			c.x0 = randomVec(rng, n)
		}
	case 4:
		c.kind = "iteration budget"
		c.opt = SolverOptions{Tol: 1e-15, MaxIter: 1 + rng.Intn(2)}
	case 5:
		// Non-dominant systems at a residual scale just above the
		// 1e-300 breakdown threshold on r̂·r: the iteration restarts.
		c.kind = "tiny scale"
		bld := NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.5 {
					bld.Add(i, j, rng.NormFloat64())
				}
			}
		}
		c.a = bld.Build()
		scale := math.Sqrt(1.5e-300 / Dot(c.b, c.b))
		for i := range c.b {
			c.b[i] *= scale
		}
		c.opt.Tol = 1e-9
	case 6:
		c.kind = "jacobi fallback"
		bld := NewBuilder(n)
		for i := 0; i < n; i++ {
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				if i == n/2 && a.colIdx[p] == i {
					continue // a missing diagonal fails ILU(0)
				}
				bld.Add(i, a.colIdx[p], a.vals[p])
			}
		}
		c.a = bld.Build()
		c.x0 = randomVec(rng, n)
	}
	return c
}

// TestBiCGSTABSolveMatchesUnfusedOracle pins the fused iteration to the
// unfused one on generated systems: the same solution bits, the same
// error and the same counters, over two consecutive solves on one
// workspace (the second warm-started from the first), on every exit path.
func TestBiCGSTABSolveMatchesUnfusedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	exits := map[string]int{}
	restarted, fallbacks := 0, 0
	for trial := 0; trial < 280; trial++ {
		c := genSolveCase(rng, trial%7)
		n := c.a.n
		fact, err := bicgstabSolver{c.opt}.Factor(c.a)
		if err != nil {
			t.Fatal(err)
		}
		ws := fact.NewWorkspace()
		o := &oracleBiCGSTAB{a: c.a, tol: c.opt.tol(), maxIter: c.opt.maxIter(4*n + 40)}
		if ilu, err := newCSRILU(c.a); err == nil {
			o.prec = ilu.apply
		} else {
			o.prec = jacobiPrecond(c.a)
			fallbacks++
			if ws.Stats().FallbackReason == "" {
				t.Fatalf("trial %d (%s): ILU failure not recorded", trial, c.kind)
			}
		}
		b2 := randomVec(rng, n)
		for i := range b2 {
			b2[i] = 0.5*c.b[i] + 1e-3*b2[i]
		}
		got, want := make([]float64, n), make([]float64, n)
		for solve, in := range []struct{ b, x0 []float64 }{{c.b, c.x0}, {b2, nil}} {
			x0 := in.x0
			if solve == 1 {
				x0 = append([]float64(nil), want...)
			}
			gerr := ws.Solve(got, in.b, x0)
			oerr := o.solve(want, in.b, x0)
			if !errors.Is(gerr, oerr) {
				t.Fatalf("trial %d (%s) solve %d: error %v, oracle %v (%s)", trial, c.kind, solve, gerr, oerr, o.exit)
			}
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (%s) solve %d: x[%d] = %v, oracle %v (%s)", trial, c.kind, solve, i, got[i], want[i], o.exit)
			}
			st := ws.Stats()
			if st.Solves != o.stats.Solves || st.Iterations != o.stats.Iterations || st.EarlyExits != o.stats.EarlyExits {
				t.Fatalf("trial %d (%s) solve %d: stats %+v, oracle %+v", trial, c.kind, solve, st, o.stats)
			}
			exits[o.exit]++
			if o.restarts > 0 && o.exit != "breakdown" {
				restarted++
			}
		}
	}
	for _, want := range []string{"‖s‖ converged", "‖r‖ converged", "warm start", "zero rhs", "maxIter"} {
		if exits[want] == 0 {
			t.Errorf("no generated case exited through %q (exits %v)", want, exits)
		}
	}
	if restarted == 0 {
		t.Errorf("no generated case restarted after a breakdown and went on (exits %v)", exits)
	}
	if fallbacks == 0 {
		t.Error("no generated case fell back to Jacobi scaling")
	}
	t.Logf("exits %v, restarted %d, fallbacks %d", exits, restarted, fallbacks)
}

// FuzzILUSweep compares the scheduled ILU(0) sweeps with the CSR sweep
// on random patterns and values, including non-dominant matrices whose
// factorisation fails or overflows.
func FuzzILUSweep(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), true)
	f.Add(int64(2), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(47), uint8(200), false)
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8, dominant bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%64
		a := randomPatternSystem(rng, n, float64(density)/255, dominant)
		checkILUAgainstOracle(t, rng, "fuzz", a)
	})
}

// oracleDirectScreen is the direct backend's warm-start screen as full
// passes — MulVec, Sub, Norm2, then the comparison — which warmStart
// replaced with one early-stopping pass. It reports whether the column
// is settled without the triangular sweeps: a zero b, or a guess
// meeting tol.
func oracleDirectScreen(a *Sparse, b, x0 []float64, tol float64) bool {
	bnorm := Norm2(b)
	if bnorm == 0 {
		return true
	}
	r := make([]float64, a.N())
	a.MulVec(r, x0)
	Sub(r, b, r)
	return Norm2(r)/bnorm <= tol
}

// FuzzDirectScreen checks warmStart against the full screen: the same
// decision on every input, dst holding x0 (or zeros for a zero b) when
// the column is settled and untouched otherwise. SolveBatch and
// directWS.Solve both call warmStart, so the batch equivalence tests
// cannot catch a wrong early stop; this target can. The kinds cover
// failing guesses, exact solutions that pass, a residual confined to
// the last rows at tol, NaN and ±Inf entries, overflowing norms, tol
// at the computed ratio or one ulp below it, and a zero b.
func FuzzDirectScreen(f *testing.F) {
	for kind := uint8(0); kind < 8; kind++ {
		f.Add(int64(kind)+1, uint8(70+23*kind), kind, uint8(kind*37))
		f.Add(int64(kind)+100, uint8(5*kind), kind, uint8(255-kind))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, kind, pos uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)
		a := randomPatternSystem(rng, n, 0.02+0.1*rng.Float64(), true)
		x0 := randomVec(rng, n)
		b := make([]float64, n)
		a.MulVec(b, x0) // an exact solution unless the kind changes it
		tol := 1e-9
		last := n - 1 - int(pos)%min(n, 8) // a row near the end
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[int(pos)%3]
		switch kind % 8 {
		case 0: // a random guess: fails, normally at the first checkpoint
			b = randomVec(rng, n)
		case 1: // the exact solution passes with a zero residual
		case 2: // a residual in the last rows only, just under or over tol
			scale := 0.5
			if pos&1 == 1 {
				scale = 2
			}
			b[last] += scale * tol * Norm2(b)
		case 3: // NaN or ±Inf in the guess, the rhs or the matrix
			switch int(pos/3) % 3 {
			case 0:
				x0[last] = special
			case 1:
				b[last] = special
			default:
				vals := append([]float64(nil), a.vals...)
				vals[a.rowPtr[last]] = special
				a = &Sparse{n: a.n, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: vals}
			}
		case 4: // squares that overflow: of the residual, or of b too
			for i := range x0 {
				x0[i] *= 1e160
			}
			if pos&1 == 0 {
				for i := range b {
					b[i] *= 1e160
				}
			}
		case 5: // a huge rhs: ‖b‖ overflows to +Inf
			for i := range b {
				b[i] = 1e300 * rng.NormFloat64()
			}
		case 6: // tol exactly at the ratio (passes) or one ulp below (fails)
			b[last] += 3e-7 * Norm2(b)
			r := make([]float64, n)
			a.MulVec(r, x0)
			Sub(r, b, r)
			tol = Norm2(r) / Norm2(b)
			if pos&1 == 1 {
				tol = math.Nextafter(tol, 0)
			}
		case 7: // a zero rhs is settled by the zero solution
			Fill(b, 0)
		}
		want := oracleDirectScreen(a, b, x0, tol)
		dst := randomVec(rng, n)
		before := append([]float64(nil), dst...)
		if got := warmStart(a, tol, dst, b, x0); got != want {
			t.Fatalf("kind %d n %d: warmStart settled=%v, full screen %v", kind%8, n, got, want)
		}
		wantDst := before
		switch {
		case want && Norm2(b) == 0:
			wantDst = make([]float64, n)
		case want:
			wantDst = x0
		}
		if i := firstBitDiff(dst, wantDst); i >= 0 {
			t.Fatalf("kind %d n %d: dst[%d] = %v, want %v", kind%8, n, i, dst[i], wantDst[i])
		}
	})
}
