package thermal

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/mat"
)

// Transient steps a model forward in time with the backward Euler scheme
// (unconditionally stable — the solver the management loop runs at every
// sensing interval).
//
// The stepper owns every buffer the per-step solve needs: while the
// model's flow rates are unchanged, Step performs no allocations at all
// (the left-hand side (C/dt + G), its prepared solver workspace and the
// rhs/solution/power vectors are reused), so the 10-steps-per-policy-
// interval hot loop of every scenario runs garbage-free. When a flow
// change invalidates the matrix, the next Step rebuilds the LHS and
// re-prepares the backend — for the direct backend that is the single
// factorisation the following steps amortise.
type Transient struct {
	m  *Model
	dt float64

	// Current temperature state (°C).
	t []float64

	// Reusable per-step buffers: candidate solution (swapped with t),
	// right-hand side, expanded power vector and C/dt diagonal.
	sol, rhs, pv, capDt []float64

	// lastRhs memoizes the right-hand side of the last accepted solve:
	// when the LHS is unchanged and the freshly assembled rhs is
	// bit-identical (the fixed-point regime between power and flow
	// changes), the current state already solves the system and the
	// step is a no-op. lastRhsOK gates the comparison.
	lastRhs   []float64
	lastRhsOK bool

	// hist extends the fixed-point memo to short cycles: a ring of the
	// most recent accepted (rhs, solution) pairs under the current LHS.
	// When a staged rhs is bit-identical to a remembered one, the system
	// is identical to one already solved and the remembered solution is
	// adopted without re-solving — the period-k generalization of the
	// lastRhs check, which quantized bang-bang control loops (alternating
	// power epochs or two flow levels) settle into. Invalidated whenever
	// the LHS changes.
	hist    []histEntry
	histLen int
	histPos int

	// x0 is the warm-start guess chosen by stage for the staged solve:
	// the current state, or a remembered solution of a nearby system.
	// The lockstep batch stepper reads it so batched and solo solves see
	// identical guesses (and therefore identical results).
	x0 []float64

	// Cached left-hand side (C/dt + G), its prepared workspace and the
	// shareable factorization behind it (nil for backends that cannot
	// share one); refreshed when the model's flow rates change.
	lhs     *mat.Sparse
	ws      mat.Workspace
	fact    mat.Factorization
	rhsBase []float64
	dirtyAt *mat.Sparse // matrix identity marker for cache invalidation

	// preps memoizes prepared left-hand sides per conductance matrix
	// (MRU first): quantised policies revisit a few flow levels, and a
	// revisited level re-adopts its factorization and workspace without
	// touching the solver. ds is the pattern-reusing C/dt+G combiner and
	// capAt marks the capacitance vector capDt was derived from (both
	// flow-invariant, so they persist across refreshes).
	preps []*trPrep
	ds    *mat.DiagSum
	capAt []float64

	// stats accumulates counters of superseded workspaces, fixed-point
	// no-op steps, and — in lockstep batch mode — the logical per-column
	// counters of batched solves, so Step and BatchStepper.Step report
	// identical totals for identical step sequences.
	stats mat.SolveStats
}

// NewTransient creates a transient run starting from a uniform initial
// temperature (°C).
func (m *Model) NewTransient(dt float64, initC float64) (*Transient, error) {
	if dt <= 0 {
		return nil, errors.New("thermal: non-positive time step")
	}
	tr := newTransient(m, dt)
	for i := range tr.t {
		tr.t[i] = initC
	}
	return tr, nil
}

// NewTransientFrom starts a transient run from a solved field (e.g. the
// steady state, matching the paper's "we initialize the simulations with
// steady state temperature values").
func (m *Model) NewTransientFrom(dt float64, f *Field) (*Transient, error) {
	if dt <= 0 {
		return nil, errors.New("thermal: non-positive time step")
	}
	if len(f.T) != m.nTotal {
		return nil, errors.New("thermal: field does not match model")
	}
	tr := newTransient(m, dt)
	copy(tr.t, f.T)
	return tr, nil
}

// histEntry is one remembered accepted solve: the exact right-hand side
// and the solution the stepper committed for it.
type histEntry struct {
	rhs, sol []float64
}

// histDepth bounds the solved-system memo: quantized control loops
// cycle through a handful of (power, flow) phases, so a short ring
// catches the periodic steady states that matter without holding state
// proportional to the run length.
const histDepth = 4

func newTransient(m *Model, dt float64) *Transient {
	return &Transient{
		m: m, dt: dt,
		t:       make([]float64, m.nTotal),
		sol:     make([]float64, m.nTotal),
		rhs:     make([]float64, m.nTotal),
		pv:      make([]float64, m.nTotal),
		lastRhs: make([]float64, m.nTotal),
	}
}

// Dt returns the step size in seconds.
func (tr *Transient) Dt() float64 { return tr.dt }

// trPrep is one memoized prepared left-hand side: the conductance
// matrix it derives from (the memo key), the LHS, its factorization and
// the stepper's workspace over it.
type trPrep struct {
	g, lhs  *mat.Sparse
	fact    mat.Factorization
	ws      mat.Workspace
	rhsBase []float64
}

// transientPrepBound caps the per-stepper preparation memo; quantised
// flow policies revisit a handful of levels.
const transientPrepBound = 4

// lookupPrep returns the memoized preparation for g, promoting it to
// most recently used.
func (tr *Transient) lookupPrep(g *mat.Sparse) *trPrep {
	for i, p := range tr.preps {
		if p.g == g {
			copy(tr.preps[1:i+1], tr.preps[:i])
			tr.preps[0] = p
			return p
		}
	}
	return nil
}

// storePrep records a preparation (MRU first), folding the counters of
// an evicted workspace into the stepper's accumulated stats.
func (tr *Transient) storePrep(p *trPrep) {
	if len(tr.preps) >= transientPrepBound {
		old := tr.preps[len(tr.preps)-1]
		tr.stats.Accumulate(old.ws.Stats())
		tr.preps = tr.preps[:len(tr.preps)-1]
	}
	tr.preps = append(tr.preps, nil)
	copy(tr.preps[1:], tr.preps)
	tr.preps[0] = p
}

// refresh re-points the stepper at the current conductance matrix: a
// no-op while the flows are unchanged, a memo adoption when the level
// was seen recently, and otherwise a numeric refresh — the left-hand
// side rebuilt on its frozen pattern and the factorization refreshed
// from the superseded one, skipping every symbolic step.
func (tr *Transient) refresh() error {
	g, base := tr.m.matrix()
	if tr.dirtyAt == g && tr.ws != nil {
		return nil
	}
	if p := tr.lookupPrep(g); p != nil {
		tr.lhs, tr.fact, tr.ws, tr.rhsBase = p.lhs, p.fact, p.ws, p.rhsBase
		tr.dirtyAt = g
		tr.lastRhsOK = false
		tr.histLen, tr.histPos = 0, 0
		return nil
	}
	cp := tr.m.Capacitances()
	if tr.capAt == nil || &tr.capAt[0] != &cp[0] {
		// Capacitances are flow-invariant; recompute C/dt only when the
		// model handed over a structurally new vector.
		if tr.capDt == nil {
			tr.capDt = make([]float64, len(cp))
		}
		for i, c := range cp {
			tr.capDt[i] = c / tr.dt
		}
		tr.capAt = cp
	}
	dtTag := "dt=" + strconv.FormatFloat(tr.dt, 'g', -1, 64)
	lhs := tr.m.transientLHS(&tr.ds, g, tr.capDt, dtTag)
	fact, ws, err := tr.m.prepareFactPrior(dtTag, lhs, tr.fact)
	if err != nil {
		return fmt.Errorf("thermal: preparing %s transient solver: %w", tr.m.solver.Name(), err)
	}
	tr.lhs, tr.fact, tr.ws, tr.rhsBase = lhs, fact, ws, base
	tr.storePrep(&trPrep{g: g, lhs: lhs, fact: fact, ws: ws, rhsBase: base})
	tr.dirtyAt = g
	tr.lastRhsOK = false
	tr.histLen, tr.histPos = 0, 0
	return nil
}

// Step advances the state by one dt under the given power map. On the
// steady path — flow rates unchanged since the previous step — it
// allocates nothing.
func (tr *Transient) Step(p PowerMap) error {
	need, err := tr.stage(p)
	if err != nil || !need {
		return err
	}
	return tr.solveStaged()
}

// stage prepares one step: expand the power vector, refresh the cached
// left-hand side, assemble the right-hand side and detect the
// fixed-point no-op. It returns false when the current state already
// solves the staged system — the step is then complete (recorded as an
// early exit). A true return must be followed by exactly one
// solveStaged or commitBatch call.
func (tr *Transient) stage(p PowerMap) (bool, error) {
	if err := tr.m.powerVectorInto(tr.pv, p); err != nil {
		return false, err
	}
	if err := tr.refresh(); err != nil {
		return false, err
	}
	for i := range tr.rhs {
		tr.rhs[i] = tr.rhsBase[i] + tr.pv[i] + tr.capDt[i]*tr.t[i]
	}
	if tr.lastRhsOK && slices.Equal(tr.rhs, tr.lastRhs) {
		// Identical system to the last accepted solve: the state is the
		// fixed point already. Record the no-op as an early exit so the
		// solves-per-step invariant holds for observers.
		tr.stats.Solves++
		tr.stats.EarlyExits++
		return false, nil
	}
	// Solved-system memo: a bit-identical rhs under the unchanged LHS is
	// a system the stepper already solved and accepted — adopt that
	// solution, exactly as the lastRhs check adopts the current state.
	// Most recent entries first: short cycles hit within a compare or two.
	for k := 1; k <= tr.histLen; k++ {
		h := &tr.hist[(tr.histPos-k+histDepth)%histDepth]
		if slices.Equal(tr.rhs, h.rhs) {
			copy(tr.sol, h.sol)
			tr.stats.Solves++
			tr.stats.EarlyExits++
			tr.commitMemo()
			return false, nil
		}
	}
	// No exact match: warm-start from the remembered solution whose
	// system is nearest the staged one. In a smooth transient the nearest
	// entry is the previous step (whose solution is the current state),
	// so this degrades to the plain warm start; in a near-periodic regime
	// it hands the solver a guess the residual check can accept outright.
	// Correctness never rests on the choice — every backend verifies the
	// guess against the actual system before trusting it.
	tr.x0 = tr.t
	best := -1.0
	for k := 1; k <= tr.histLen; k++ {
		h := &tr.hist[(tr.histPos-k+histDepth)%histDepth]
		d := 0.0
		for i, v := range tr.rhs {
			e := v - h.rhs[i]
			d += e * e
		}
		if best < 0 || d < best {
			best = d
			tr.x0 = h.sol
		}
	}
	return true, nil
}

// solveStaged performs the staged solve through the stepper's own
// workspace and accepts the solution.
func (tr *Transient) solveStaged() error {
	if err := tr.ws.Solve(tr.sol, tr.rhs, tr.x0); err != nil {
		return fmt.Errorf("thermal: transient step: %w", err)
	}
	tr.commit()
	return nil
}

// commitBatch accepts a staged step solved externally by a lockstep
// batch workspace (the solution is already in tr.sol), folding the
// column's logical counters into the stepper's stats so batched and
// solo stepping report identical SolverStats.
func (tr *Transient) commitBatch(r mat.ColumnResult) error {
	tr.stats.Solves++
	if r.EarlyExit {
		tr.stats.EarlyExits++
	}
	if r.Err != nil {
		return fmt.Errorf("thermal: transient step: %w", r.Err)
	}
	tr.commit()
	return nil
}

// commit swaps in the staged solution, memoizes its right-hand side for
// the fixed-point check and records the accepted (rhs, solution) pair in
// the solved-system memo.
func (tr *Transient) commit() {
	tr.t, tr.sol = tr.sol, tr.t
	tr.lastRhs, tr.rhs = tr.rhs, tr.lastRhs
	tr.lastRhsOK = true
	if tr.hist == nil {
		tr.hist = make([]histEntry, histDepth)
		for i := range tr.hist {
			tr.hist[i].rhs = make([]float64, tr.m.nTotal)
			tr.hist[i].sol = make([]float64, tr.m.nTotal)
		}
	}
	h := &tr.hist[tr.histPos]
	copy(h.rhs, tr.lastRhs)
	copy(h.sol, tr.t)
	tr.histPos = (tr.histPos + 1) % histDepth
	if tr.histLen < histDepth {
		tr.histLen++
	}
}

// commitMemo accepts a remembered solution (already staged into sol)
// without re-recording it in the memo ring.
func (tr *Transient) commitMemo() {
	tr.t, tr.sol = tr.sol, tr.t
	tr.lastRhs, tr.rhs = tr.rhs, tr.lastRhs
	tr.lastRhsOK = true
}

// SolverStats returns the cumulative transient solver counters,
// including the memoized workspaces of other flow levels and workspaces
// evicted from the memo.
func (tr *Transient) SolverStats() mat.SolveStats {
	s := tr.stats
	for _, p := range tr.preps {
		s.Accumulate(p.ws.Stats())
	}
	if s.Backend == "" {
		s.Backend = tr.m.solver.Name()
	}
	return s
}

// Field returns the current state (a snapshot copy).
func (tr *Transient) Field() *Field {
	return &Field{m: tr.m, T: append([]float64(nil), tr.t...)}
}

// View returns a borrowed read-only view of the current state, valid
// until the next Step — the allocation-free accessor the per-sensing-
// step metrics loop reads through.
func (tr *Transient) View() Field {
	return Field{m: tr.m, T: tr.t}
}

// MaxOverPowerLayers returns the current junction temperature without
// copying the state.
func (tr *Transient) MaxOverPowerLayers() float64 {
	f := Field{m: tr.m, T: tr.t}
	return f.MaxOverPowerLayers()
}
