package mat

import (
	"fmt"
	"math"
	"sort"
)

// This file defines the pluggable linear-solver seam. A Solver is a
// backend factory: Prepare analyses/factors one matrix and returns a
// Workspace that owns every buffer the repeated solves need, so the hot
// transient-stepping path can run allocation-free. Three backends are
// registered:
//
//	bicgstab — ILU(0)-preconditioned BiCGSTAB (the historical default)
//	gmres    — restarted GMRES(30) on the RCM-permuted matrix with ILU(0)
//	direct   — sparse direct LU with a configurable fill-reducing
//	           ordering (SolverOptions.Ordering; "auto" by default):
//	           factor once per matrix, two triangular sweeps per solve
//
// All backends honour a warm-start guess: if the guess already satisfies
// the residual tolerance the solve returns immediately (recorded in
// SolveStats.EarlyExits). That makes the direct backend strictly cheaper
// than an iterative solve on the backward-Euler steady path, where the
// left-hand side is constant between flow-rate changes and the state has
// converged to the interval's fixed point.

// SolverOptions tunes a backend instance. The zero value requests the
// defaults noted on each field.
type SolverOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖/‖b‖. Default 1e-10.
	Tol float64
	// MaxIter is the iteration budget of iterative backends (ignored by
	// the direct backend). Default: 4·n + 40.
	MaxIter int
	// Ordering names the fill-reducing ordering of the direct backend
	// (see Orderings: "natural", "rcm", "amd", "nd", "auto"); empty
	// selects DefaultOrdering. The iterative backends keep their fixed
	// orderings — gmres permutes with RCM for ILU(0) locality, bicgstab
	// runs unpermuted — and ignore this field.
	Ordering string
}

func (o SolverOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

func (o SolverOptions) maxIter(def int) int {
	if o.MaxIter <= 0 {
		return def
	}
	return o.MaxIter
}

func (o SolverOptions) ordering() string {
	if o.Ordering == "" {
		return DefaultOrdering
	}
	return o.Ordering
}

// Solver is a linear-solver backend: Prepare performs the per-matrix
// work (preconditioner construction or full factorisation) and returns a
// reusable Workspace bound to that matrix.
type Solver interface {
	// Name returns the registry name of the backend.
	Name() string
	// Prepare analyses/factors a and returns a workspace for repeated
	// solves against it. The workspace references a; it must not be
	// used after the matrix is superseded.
	Prepare(a *Sparse) (Workspace, error)
}

// Factorization is the immutable, shareable product of one backend's
// per-matrix preparation: the ILU preconditioner or the full LU factors,
// plus the (read-only) matrix they were built from. A Factorization is
// safe for concurrent use; NewWorkspace stamps out independent
// workspaces — each owning its scratch buffers — so many goroutines can
// solve against one factorisation simultaneously (see PrepCache).
type Factorization interface {
	// NewWorkspace returns a fresh workspace backed by this shared
	// factorization. The workspace performs no factorisation work of its
	// own, but still reports Factorizations: 1 in its Stats — workspace
	// counters are *logical* (what the preparation would cost standalone)
	// so that results and metrics are bit-identical whether or not a
	// preparation was shared. Physical factorisation counts live in
	// PrepStats.
	NewWorkspace() Workspace
}

// Factorizer is implemented by backends whose Prepare splits into an
// immutable shareable Factorization and cheap per-caller workspaces.
// All three built-in backends implement it.
type Factorizer interface {
	Solver
	// FactorKey names the backend configuration: two solver instances
	// with equal FactorKeys produce interchangeable factorizations for
	// the same matrix. It namespaces PrepCache entries.
	FactorKey() string
	// Factor performs the per-matrix preparation once.
	Factor(a *Sparse) (Factorization, error)
}

// factorKey renders the canonical FactorKey for a backend configuration.
func factorKey(name string, opt SolverOptions) string {
	return fmt.Sprintf("%s|tol=%g|maxiter=%d|ord=%s", name, opt.tol(), opt.MaxIter, opt.ordering())
}

// OrderedFactorizer is implemented by Factorizer backends whose
// preparation starts from a fill-reducing ordering that is a pure
// function of the sparsity pattern. Splitting the ordering out lets a
// PrepCache memoise one ordering per pattern and reuse it across every
// matrix with that structure — bit-identically, since a cold Factor
// would compute the same choice.
type OrderedFactorizer interface {
	Factorizer
	// OrderingName reports the configured ordering (the memo namespace;
	// "auto" resolves per pattern inside Order).
	OrderingName() string
	// Order computes the ordering choice for a's pattern.
	Order(a *Sparse) OrderingChoice
	// FactorOrdered is Factor under a precomputed choice for a's
	// pattern; Factor(a) ≡ FactorOrdered(a, Order(a)).
	FactorOrdered(a *Sparse, ch OrderingChoice) (Factorization, error)
}

// FactorInfo describes a factorisation's ordering outcome. It is
// exposed by factorizations implementing
//
//	interface{ FactorInfo() FactorInfo }
//
// which PrepCache uses to aggregate per-ordering fill and factor-time
// statistics.
type FactorInfo struct {
	// Ordering is the concrete ordering the factorisation used.
	Ordering string
	// FillRatio is nnz(L+U)/nnz(A) (1 for the zero-fill ILU(0) forms).
	FillRatio float64
}

// Refactorer is implemented by Factorizer backends that can refresh the
// numeric content of an existing factorization for a matrix with the
// same sparsity structure, skipping the symbolic analysis (ordering,
// fill discovery, pattern construction). All three built-in backends
// implement it.
type Refactorer interface {
	Factorizer
	// RefactorFrom produces a factorization of a, reusing prior's
	// symbolic analysis when prior is one of this backend's
	// factorizations for a structurally identical matrix. The result is
	// bit-identical to Factor(a) — the refactorisation replays the exact
	// floating-point sequence of a cold preparation — and prior is left
	// untouched (it may still serve other callers). When prior is nil or
	// unsuitable, RefactorFrom degrades to a cold Factor.
	RefactorFrom(prior Factorization, a *Sparse) (Factorization, error)
}

// Workspace solves repeated systems against one prepared matrix. A
// workspace owns all scratch buffers: Solve performs no allocations.
// Workspaces are not safe for concurrent use.
type Workspace interface {
	// Solve writes the solution of A·x = b into dst. x0, when non-nil,
	// warm-starts the solve (iterative backends iterate from it; every
	// backend returns immediately when it already satisfies the
	// tolerance). dst must not alias b; dst may alias x0.
	Solve(dst, b, x0 []float64) error
	// Stats returns cumulative counters since Prepare.
	Stats() SolveStats
}

// SolveStats counts the work a workspace has performed. The counters are
// deterministic for a deterministic call sequence, so parallel and
// sequential runs of the same scenario report identical stats.
type SolveStats struct {
	// Backend is the registry name of the backend.
	Backend string `json:"backend,omitempty"`
	// Factorizations counts Prepare-time analyses (ILU constructions or
	// direct factorisations).
	Factorizations int `json:"factorizations"`
	// Solves counts Solve calls.
	Solves int `json:"solves"`
	// Iterations counts iterative-solver iterations (0 for the direct
	// backend's back-substitutions).
	Iterations int `json:"iterations"`
	// EarlyExits counts solves whose warm-start guess already met the
	// tolerance, skipping all solver work.
	EarlyExits int `json:"early_exits"`
	// FallbackReason records why a preconditioner downgrade happened
	// (e.g. an ILU(0) construction failure that fell back to Jacobi
	// scaling) instead of the failure being silently discarded.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Ordering is the fill-reducing ordering the backend's preparation
	// used (for the "auto" policy, the concrete winner). Empty for
	// backends without one (bicgstab runs unpermuted).
	Ordering string `json:"ordering,omitempty"`
	// FillRatio is the measured factor fill nnz(L+U)/nnz(A) of the
	// preparation (1 for the zero-fill ILU(0) preconditioners; 0 when
	// not applicable). Deterministic for a fixed pattern and ordering.
	FillRatio float64 `json:"fill_ratio,omitempty"`
}

// Accumulate folds o's counters into s, keeping the first non-empty
// backend name and fallback reason.
func (s *SolveStats) Accumulate(o SolveStats) {
	if s.Backend == "" {
		s.Backend = o.Backend
	}
	s.Factorizations += o.Factorizations
	s.Solves += o.Solves
	s.Iterations += o.Iterations
	s.EarlyExits += o.EarlyExits
	if s.FallbackReason == "" {
		s.FallbackReason = o.FallbackReason
	}
	if s.Ordering == "" {
		s.Ordering = o.Ordering
	}
	if s.FillRatio == 0 {
		s.FillRatio = o.FillRatio
	}
}

// Registered backend names.
const (
	// BackendBiCGSTAB is ILU(0)-preconditioned BiCGSTAB.
	BackendBiCGSTAB = "bicgstab"
	// BackendGMRES is restarted GMRES(30) with RCM ordering and ILU(0).
	BackendGMRES = "gmres"
	// BackendDirect is the sparse direct LU factorisation with a
	// fill-reducing ordering: factor once, back-substitute per solve.
	BackendDirect = "direct"
	// DefaultBackend is used when no backend is named.
	DefaultBackend = BackendBiCGSTAB
)

var solverRegistry = map[string]func(SolverOptions) Solver{}

// RegisterSolver adds a backend under name, replacing any previous
// registration. Intended for init-time use; not synchronised.
func RegisterSolver(name string, factory func(SolverOptions) Solver) {
	solverRegistry[name] = factory
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(solverRegistry))
	for name := range solverRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// KnownBackend reports whether name is registered ("" selects the
// default and is always known).
func KnownBackend(name string) bool {
	if name == "" {
		return true
	}
	_, ok := solverRegistry[name]
	return ok
}

// NewSolver instantiates a registered backend; an empty name selects
// DefaultBackend.
func NewSolver(name string, opt SolverOptions) (Solver, error) {
	if name == "" {
		name = DefaultBackend
	}
	factory, ok := solverRegistry[name]
	if !ok {
		return nil, fmt.Errorf("mat: unknown solver backend %q (want one of %v)", name, Backends())
	}
	return factory(opt), nil
}

func init() {
	RegisterSolver(BackendBiCGSTAB, func(opt SolverOptions) Solver { return bicgstabSolver{opt} })
	RegisterSolver(BackendGMRES, func(opt SolverOptions) Solver { return gmresSolver{opt} })
	RegisterSolver(BackendDirect, func(opt SolverOptions) Solver { return directSolver{opt} })
}

// jacobiDiag extracts the diagonal-scaling fallback preconditioner's
// divisors.
func jacobiDiag(a *Sparse) []float64 {
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			d[i] = 1 // row without stored diagonal: fall back to identity
		}
	}
	return d
}

// jacobiPrecond builds the diagonal-scaling fallback preconditioner.
func jacobiPrecond(a *Sparse) func(dst, v []float64) {
	d := jacobiDiag(a)
	return func(dst, v []float64) {
		for i := range dst {
			dst[i] = v[i] / d[i]
		}
	}
}

// --- bicgstab backend ---

type bicgstabSolver struct{ opt SolverOptions }

// Name implements Solver.
func (s bicgstabSolver) Name() string { return BackendBiCGSTAB }

// FactorKey implements Factorizer.
func (s bicgstabSolver) FactorKey() string { return factorKey(BackendBiCGSTAB, s.opt) }

// bicgstabFact is the shareable prepared form: the matrix and its ILU(0)
// (or Jacobi-fallback) preconditioner, both immutable.
type bicgstabFact struct {
	a        *Sparse
	tol      float64
	maxIter  int
	ilu      *ILU
	jacobi   []float64 // diagonal fallback when the ILU construction failed
	fallback string
}

// Factor implements Factorizer.
func (s bicgstabSolver) Factor(a *Sparse) (Factorization, error) {
	f := &bicgstabFact{a: a, tol: s.opt.tol(), maxIter: s.opt.maxIter(4*a.N() + 40)}
	ilu, err := NewILU(a)
	if err != nil {
		f.fallback = fmt.Sprintf("ILU(0) unavailable (%v); using Jacobi scaling", err)
		f.jacobi = jacobiDiag(a)
	} else {
		f.ilu = ilu
	}
	return f, nil
}

// prec renders the solo preconditioner application.
func (f *bicgstabFact) prec() func(dst, v []float64) {
	if f.ilu != nil {
		return f.ilu.Apply
	}
	d := f.jacobi
	return func(dst, v []float64) {
		for i := range dst {
			dst[i] = v[i] / d[i]
		}
	}
}

// NewWorkspace implements Factorization.
func (f *bicgstabFact) NewWorkspace() Workspace {
	ws := &bicgstabWS{
		stats: SolveStats{Backend: BackendBiCGSTAB, Factorizations: 1, FallbackReason: f.fallback},
	}
	ws.init(f.a, f.tol, f.maxIter, f.prec())
	return ws
}

// Prepare implements Solver: it builds the ILU(0) preconditioner (Jacobi
// on failure) and the eight iteration vectors.
func (s bicgstabSolver) Prepare(a *Sparse) (Workspace, error) {
	f, err := s.Factor(a)
	if err != nil {
		return nil, err
	}
	return f.NewWorkspace(), nil
}

// RefactorFrom implements Refactorer: the ILU(0) numeric content is
// refreshed on the prior preconditioner's pattern; any deviation
// (structure change, Jacobi-fallback prior, zero pivot) degrades to a
// cold Factor, which handles every case bit-identically.
func (s bicgstabSolver) RefactorFrom(prior Factorization, a *Sparse) (Factorization, error) {
	if pf, ok := prior.(*bicgstabFact); ok && pf.ilu != nil {
		if ilu, err := pf.ilu.Refactored(a); err == nil {
			return &bicgstabFact{a: a, tol: s.opt.tol(), maxIter: s.opt.maxIter(4*a.N() + 40), ilu: ilu}, nil
		}
	}
	return s.Factor(a)
}

// bicgstabWS is the reusable BiCGSTAB state for one matrix.
type bicgstabWS struct {
	a       *Sparse
	prec    func(dst, v []float64)
	tol     float64
	maxIter int

	r, rhat, v, p, phat, s, shat, t []float64

	stats SolveStats
}

func (w *bicgstabWS) init(a *Sparse, tol float64, maxIter int, prec func(dst, v []float64)) {
	n := a.N()
	w.a, w.tol, w.maxIter, w.prec = a, tol, maxIter, prec
	w.r = make([]float64, n)
	w.rhat = make([]float64, n)
	w.v = make([]float64, n)
	w.p = make([]float64, n)
	w.phat = make([]float64, n)
	w.s = make([]float64, n)
	w.shat = make([]float64, n)
	w.t = make([]float64, n)
}

// Stats implements Workspace.
func (w *bicgstabWS) Stats() SolveStats { return w.stats }

// Solve implements Workspace. On ErrNoConvergence dst holds the best
// iterate reached.
//
// Vector passes that read the same data are fused — each mat-vec with
// the inner products of its result, the s update with ‖s‖², and the x/r
// update with ‖r‖² and the next iteration's r̂·r — while every element
// and every sum sees the operations of the textbook sequence in the
// same order (sums ascending by row, as Dot), so the fusion is
// bit-invisible.
func (w *bicgstabWS) Solve(dst, b, x0 []float64) error {
	n := w.a.N()
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("mat: bicgstab Solve length dst=%d b=%d != n %d", len(dst), len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("mat: bicgstab guess length %d != n %d", len(x0), n)
	}
	w.stats.Solves++
	x := dst[:n]
	if x0 != nil {
		copy(x, x0)
	} else {
		Fill(x, 0)
	}
	r, rhat, v, p := w.r[:n], w.rhat[:n], w.v[:n], w.p[:n]
	phat, s, shat, t := w.phat[:n], w.s[:n], w.shat[:n], w.t[:n]
	bb, rr := w.a.residual(r, b, x)

	bnorm := math.Sqrt(bb)
	if bnorm == 0 {
		Fill(x, 0)
		w.stats.EarlyExits++
		return nil
	}
	if math.Sqrt(rr)/bnorm <= w.tol {
		w.stats.EarlyExits++
		return nil
	}

	copy(rhat, r)
	rho, alpha, omega := 1.0, 1.0, 1.0
	Fill(v, 0)
	Fill(p, 0)
	rhoNew := rr // r̂ = r, so r̂·r is ‖r‖²
	for it := 0; it < w.maxIter; it++ {
		w.stats.Iterations++
		if math.Abs(rhoNew) < 1e-300 {
			// Breakdown: restart with the current residual.
			copy(rhat, r)
			rhoNew = Dot(rhat, r)
			if math.Abs(rhoNew) < 1e-300 {
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
		w.prec(phat, p)
		den := w.a.mulVecDot(v, phat, rhat)
		if den == 0 {
			return ErrNoConvergence
		}
		alpha = rho / den
		ss := 0.0
		for i := range s {
			si := r[i] - alpha*v[i]
			s[i] = si
			ss += si * si
		}
		if math.Sqrt(ss)/bnorm <= w.tol {
			AXPY(alpha, phat, x)
			return nil
		}
		w.prec(shat, s)
		tt, ts := w.a.mulVecDot2(t, shat, s)
		if tt == 0 {
			return ErrNoConvergence
		}
		omega = ts / tt
		rr, rhoNew = 0, 0
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
			ri := s[i] - omega*t[i]
			r[i] = ri
			rr += ri * ri
			rhoNew += rhat[i] * ri
		}
		res := math.Sqrt(rr) / bnorm
		if res <= w.tol {
			return nil
		}
		if omega == 0 || math.IsNaN(res) || math.IsInf(res, 0) {
			return ErrNoConvergence
		}
	}
	return ErrNoConvergence
}

// --- gmres backend ---

type gmresSolver struct{ opt SolverOptions }

// Name implements Solver.
func (s gmresSolver) Name() string { return BackendGMRES }

// FactorKey implements Factorizer.
func (s gmresSolver) FactorKey() string { return factorKey(BackendGMRES, s.opt) }

// gmresFact is the shareable prepared form: the RCM permutation, the
// permuted matrix and its ILU(0) (or Jacobi-fallback) preconditioner,
// plus the scatter map that lets a refactorisation re-permute new
// values without rebuilding the permuted matrix.
type gmresFact struct {
	src      *Sparse
	perm     []int
	pa       *Sparse
	paSrc    []int // permuted slot -> src entry; nil disables refactoring
	tol      float64
	maxIter  int
	ilu      *ILU
	jacobi   []float64
	fallback string
}

// precond renders the preconditioner application.
func (f *gmresFact) precond() func(dst, v []float64) {
	if f.ilu != nil {
		return f.ilu.Apply
	}
	d := f.jacobi
	return func(dst, v []float64) {
		for i := range dst {
			dst[i] = v[i] / d[i]
		}
	}
}

// Factor implements Factorizer: it computes the RCM ordering, permutes
// the matrix and builds ILU(0) on the permuted system.
func (s gmresSolver) Factor(a *Sparse) (Factorization, error) {
	perm := RCM(a)
	pa, err := Permute(a, perm)
	if err != nil {
		return nil, err
	}
	f := &gmresFact{
		src:     a,
		perm:    perm,
		pa:      pa,
		paSrc:   permEntryMap(a, pa, perm),
		tol:     s.opt.tol(),
		maxIter: s.opt.maxIter(4*a.N() + 40),
	}
	ilu, err := NewILU(pa)
	if err != nil {
		f.fallback = fmt.Sprintf("ILU(0) unavailable (%v); using Jacobi scaling", err)
		f.jacobi = jacobiDiag(pa)
	} else {
		f.ilu = ilu
	}
	return f, nil
}

// RefactorFrom implements Refactorer: the RCM ordering, the permuted
// pattern and the ILU structure are reused; only values are re-permuted
// and re-eliminated. Any deviation degrades to a cold Factor. RCM is a
// pure function of the sparsity structure, so the reused ordering is
// exactly what a cold Factor of the structurally identical matrix would
// compute — the refactored preparation is bit-identical to it.
func (s gmresSolver) RefactorFrom(prior Factorization, a *Sparse) (Factorization, error) {
	pf, ok := prior.(*gmresFact)
	if !ok || pf.paSrc == nil || pf.ilu == nil || !a.SameStructure(pf.src) {
		return s.Factor(a)
	}
	vals := make([]float64, len(pf.paSrc))
	for slot, src := range pf.paSrc {
		vals[slot] = a.vals[src]
	}
	pa := &Sparse{n: a.n, rowPtr: pf.pa.rowPtr, colIdx: pf.pa.colIdx, vals: vals}
	ilu, err := pf.ilu.Refactored(pa)
	if err != nil {
		return s.Factor(a)
	}
	return &gmresFact{
		src:     a,
		perm:    pf.perm,
		pa:      pa,
		paSrc:   pf.paSrc,
		tol:     s.opt.tol(),
		maxIter: s.opt.maxIter(4*a.N() + 40),
		ilu:     ilu,
	}, nil
}

// FactorInfo reports the fixed gmres preparation: RCM ordering, and the
// zero-fill ILU(0) pattern (ratio 1).
func (f *gmresFact) FactorInfo() FactorInfo {
	return FactorInfo{Ordering: OrderingRCM, FillRatio: 1}
}

// NewWorkspace implements Factorization: it allocates the Krylov basis
// and permutation scratch for one caller.
func (f *gmresFact) NewWorkspace() Workspace {
	ws := &gmresBackendWS{
		perm: f.perm,
		stats: SolveStats{
			Backend: BackendGMRES, Factorizations: 1, FallbackReason: f.fallback,
			Ordering: OrderingRCM, FillRatio: 1,
		},
	}
	n := f.pa.N()
	ws.pb = make([]float64, n)
	ws.px = make([]float64, n)
	ws.core.init(f.pa, f.tol, f.maxIter, f.precond())
	return ws
}

// Prepare implements Solver.
func (s gmresSolver) Prepare(a *Sparse) (Workspace, error) {
	f, err := s.Factor(a)
	if err != nil {
		return nil, err
	}
	return f.NewWorkspace(), nil
}

// gmresBackendWS wraps the GMRES core with the RCM permutation.
type gmresBackendWS struct {
	perm   []int
	pb, px []float64
	core   gmresWS
	stats  SolveStats
}

// Stats implements Workspace.
func (w *gmresBackendWS) Stats() SolveStats {
	s := w.stats
	s.Solves = w.core.solves
	s.Iterations = w.core.iterations
	s.EarlyExits = w.core.earlyExits
	return s
}

// Solve implements Workspace.
func (w *gmresBackendWS) Solve(dst, b, x0 []float64) error {
	n := w.core.a.N()
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("mat: gmres Solve length dst=%d b=%d != n %d", len(dst), len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("mat: gmres guess length %d != n %d", len(x0), n)
	}
	PermuteVec(w.pb, b, w.perm)
	if x0 != nil {
		PermuteVec(w.px, x0, w.perm)
	} else {
		Fill(w.px, 0)
	}
	err := w.core.solve(w.px, w.pb)
	UnpermuteVec(dst, w.px, w.perm)
	return err
}

// gmresWS is the reusable restarted-GMRES state for one matrix. The
// solution is iterated in place in the caller-supplied vector.
type gmresWS struct {
	a       *Sparse
	prec    func(dst, v []float64)
	tol     float64
	maxIter int

	v      [][]float64
	h      [][]float64
	cs, sn []float64
	g      []float64
	w, aw  []float64
	y      []float64

	solves, iterations, earlyExits int
}

const gmresRestart = 30

func (w *gmresWS) init(a *Sparse, tol float64, maxIter int, prec func(dst, v []float64)) {
	n := a.N()
	w.a, w.tol, w.maxIter, w.prec = a, tol, maxIter, prec
	w.v = make([][]float64, gmresRestart+1)
	for i := range w.v {
		w.v[i] = make([]float64, n)
	}
	w.h = make([][]float64, gmresRestart+1)
	for i := range w.h {
		w.h[i] = make([]float64, gmresRestart)
	}
	w.cs = make([]float64, gmresRestart)
	w.sn = make([]float64, gmresRestart)
	w.g = make([]float64, gmresRestart+1)
	w.w = make([]float64, n)
	w.aw = make([]float64, n)
	w.y = make([]float64, gmresRestart)
}

// solve iterates x (which carries the initial guess) toward A·x = b.
func (w *gmresWS) solve(x, b []float64) error {
	w.solves++
	// Preconditioned rhs norm for the stopping test: we iterate on
	// M⁻¹A·x = M⁻¹b.
	w.prec(w.aw, b)
	bnorm := Norm2(w.aw)
	if bnorm == 0 {
		Fill(x, 0)
		w.earlyExits++
		return nil
	}
	iters := 0
	first := true
	for iters < w.maxIter {
		// r = M⁻¹(b − A·x)
		w.a.MulVec(w.aw, x)
		for i := range w.aw {
			w.aw[i] = b[i] - w.aw[i]
		}
		w.prec(w.v[0], w.aw)
		beta := Norm2(w.v[0])
		if beta/bnorm <= w.tol {
			if first {
				w.earlyExits++
			}
			return nil
		}
		first = false
		for i := range w.v[0] {
			w.v[0][i] /= beta
		}
		for i := range w.g {
			w.g[i] = 0
		}
		w.g[0] = beta

		k := 0
		for ; k < gmresRestart && iters < w.maxIter; k++ {
			iters++
			w.iterations++
			// w = M⁻¹A·v_k
			w.a.MulVec(w.aw, w.v[k])
			w.prec(w.w, w.aw)
			// Modified Gram–Schmidt.
			for j := 0; j <= k; j++ {
				w.h[j][k] = Dot(w.w, w.v[j])
				AXPY(-w.h[j][k], w.v[j], w.w)
			}
			w.h[k+1][k] = Norm2(w.w)
			if w.h[k+1][k] > 0 {
				for i := range w.w {
					w.v[k+1][i] = w.w[i] / w.h[k+1][k]
				}
			}
			// Apply the accumulated Givens rotations to column k.
			for j := 0; j < k; j++ {
				t := w.cs[j]*w.h[j][k] + w.sn[j]*w.h[j+1][k]
				w.h[j+1][k] = -w.sn[j]*w.h[j][k] + w.cs[j]*w.h[j+1][k]
				w.h[j][k] = t
			}
			// New rotation eliminating h[k+1][k].
			denom := math.Hypot(w.h[k][k], w.h[k+1][k])
			if denom == 0 {
				w.cs[k], w.sn[k] = 1, 0
			} else {
				w.cs[k], w.sn[k] = w.h[k][k]/denom, w.h[k+1][k]/denom
			}
			w.h[k][k] = w.cs[k]*w.h[k][k] + w.sn[k]*w.h[k+1][k]
			w.h[k+1][k] = 0
			w.g[k+1] = -w.sn[k] * w.g[k]
			w.g[k] = w.cs[k] * w.g[k]
			if math.Abs(w.g[k+1])/bnorm <= w.tol {
				k++
				break
			}
		}
		// Back-substitute y from the k×k triangular system and update x.
		y := w.y[:k]
		for i := k - 1; i >= 0; i-- {
			s := w.g[i]
			for j := i + 1; j < k; j++ {
				s -= w.h[i][j] * y[j]
			}
			if w.h[i][i] == 0 {
				return ErrSingular
			}
			y[i] = s / w.h[i][i]
		}
		for j := 0; j < k; j++ {
			AXPY(y[j], w.v[j], x)
		}
	}
	// Final residual check.
	w.a.MulVec(w.aw, x)
	for i := range w.aw {
		w.aw[i] = b[i] - w.aw[i]
	}
	w.prec(w.w, w.aw)
	if Norm2(w.w)/bnorm <= w.tol {
		return nil
	}
	return ErrNoConvergence
}

// --- direct backend ---

type directSolver struct{ opt SolverOptions }

// Name implements Solver.
func (s directSolver) Name() string { return BackendDirect }

// FactorKey implements Factorizer.
func (s directSolver) FactorKey() string { return factorKey(BackendDirect, s.opt) }

// directFact is the shareable prepared form: the immutable LU factors.
type directFact struct {
	a   *Sparse
	f   *SparseLU
	tol float64
}

// OrderingName implements OrderedFactorizer.
func (s directSolver) OrderingName() string { return s.opt.ordering() }

// Order implements OrderedFactorizer: the configured fill-reducing
// ordering applied to a's pattern (for "auto", the candidate with the
// least predicted fill).
func (s directSolver) Order(a *Sparse) OrderingChoice {
	return OrderMatrix(s.opt.ordering(), a)
}

// FactorOrdered implements OrderedFactorizer: the full sparse LU
// factorisation under a precomputed ordering choice — the expensive
// step a sweep group pays once per distinct matrix. It is the split
// cold factor of NewSparseLUOrdered, bit-identical to NewSparseLU.
func (s directSolver) FactorOrdered(a *Sparse, ch OrderingChoice) (Factorization, error) {
	f, err := NewSparseLUOrdered(a, ch)
	if err != nil {
		return nil, err
	}
	return &directFact{a: a, f: f, tol: s.opt.tol()}, nil
}

// Factor implements Factorizer.
func (s directSolver) Factor(a *Sparse) (Factorization, error) {
	return s.FactorOrdered(a, s.Order(a))
}

// FactorInfo reports the ordering outcome for per-ordering statistics.
func (f *directFact) FactorInfo() FactorInfo {
	return FactorInfo{Ordering: f.f.Ordering(), FillRatio: f.f.FillRatio()}
}

// NewWorkspace implements Factorization: per-caller residual and
// triangular-sweep scratch over the shared factors.
func (f *directFact) NewWorkspace() Workspace {
	return &directWS{
		a:    f.a,
		f:    f.f,
		tol:  f.tol,
		work: make([]float64, f.a.N()),
		stats: SolveStats{
			Backend:        BackendDirect,
			Factorizations: 1,
			Ordering:       f.f.Ordering(),
			FillRatio:      f.f.FillRatio(),
		},
	}
}

// Prepare implements Solver: factor once, then two triangular sweeps per
// solve — no iteration, no convergence failure modes.
func (s directSolver) Prepare(a *Sparse) (Workspace, error) {
	f, err := s.Factor(a)
	if err != nil {
		return nil, err
	}
	return f.NewWorkspace(), nil
}

// RefactorFrom implements Refactorer: the fill-reducing ordering, the
// symbolic fill pattern and the scatter maps of the prior factorisation
// are reused; only the numeric elimination is replayed, bit-identically
// to a cold factorisation (see SparseLU.Refactored). Any deviation —
// structure change, an exactly zero pivot or multiplier — degrades to a
// cold Factor.
func (s directSolver) RefactorFrom(prior Factorization, a *Sparse) (Factorization, error) {
	if pf, ok := prior.(*directFact); ok {
		if lu, err := pf.f.Refactored(a); err == nil {
			return &directFact{a: a, f: lu, tol: s.opt.tol()}, nil
		}
	}
	return s.Factor(a)
}

// directWS solves against one (possibly shared) factored matrix with its
// own scratch.
type directWS struct {
	a     *Sparse
	f     *SparseLU
	tol   float64
	work  []float64
	stats SolveStats
}

// Stats implements Workspace.
func (w *directWS) Stats() SolveStats { return w.stats }

// Solve implements Workspace. A warm-start guess that already meets the
// residual tolerance short-circuits the triangular sweeps (warmStart),
// making the unchanged-LHS steady path as cheap as a single mat-vec.
func (w *directWS) Solve(dst, b, x0 []float64) error {
	n := w.a.N()
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("mat: direct Solve length dst=%d b=%d != n %d", len(dst), len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("mat: direct guess length %d != n %d", len(x0), n)
	}
	w.stats.Solves++
	if x0 != nil && warmStart(w.a, w.tol, dst, b, x0) {
		w.stats.EarlyExits++
		return nil
	}
	w.f.SolveWith(dst, b, w.work)
	return nil
}

// screenRows is the row stride of the warm-start screen's checkpoints.
// While a transient still moves, almost every guess fails the screen,
// and it fails within the first checkpoint, so a failing column costs
// a few dozen rows of mat-vec instead of all of them.
const screenRows = 32

// warmStart is the direct backend's warm-start shortcut for one column,
// shared by directWS.Solve and BatchWorkspace.SolveBatch: a zero b has
// the zero solution, and a guess x0 whose relative residual
// ‖b − A·x0‖₂/‖b‖₂ already meets tol is the answer. In both cases it
// writes dst and returns true; otherwise dst is untouched and the
// column needs the triangular sweeps.
func warmStart(a *Sparse, tol float64, dst, b, x0 []float64) bool {
	bnorm := Norm2(b)
	if bnorm == 0 {
		Fill(dst, 0)
		return true
	}
	if !residualWithin(a, b, x0, bnorm, tol) {
		return false
	}
	copy(dst, x0)
	return true
}

// residualWithin decides ‖b − A·x0‖₂/bnorm <= tol with the
// floating-point operations of the full screen — MulVec, Sub, Norm2 —
// in their order: row i's product is summed in storage order (rowDot)
// and subtracted from b[i], and the squares accumulate in ascending row
// order. Every screenRows rows it tests the partial sum and returns
// false once that fails the test.
//
// The early answer is always the full computation's. Each term d·d is
// +0, positive, +Inf or NaN, so no rounded addition makes the
// accumulator smaller, +Inf stays +Inf or turns NaN, and NaN stays NaN.
// Square root and division by bnorm keep that order, so a ratio that is
// above tol (or NaN) at a checkpoint is above tol (or NaN) at every
// later row, and !(ratio <= tol) there is the final answer. A column
// that passes every checkpoint takes the final test over all rows.
func residualWithin(a *Sparse, b, x0 []float64, bnorm, tol float64) bool {
	acc := 0.0
	for lo := 0; lo < a.n; lo += screenRows {
		hi := min(lo+screenRows, a.n)
		for i := lo; i < hi; i++ {
			d := b[i] - a.rowDot(i, x0)
			acc += d * d
		}
		if !(math.Sqrt(acc)/bnorm <= tol) {
			return false
		}
	}
	return math.Sqrt(acc)/bnorm <= tol
}
