package thermal

import "repro/internal/mat"

// BatchStepper advances several Transient steppers in lockstep: every
// stepper stages its step (power vector, LHS refresh, rhs assembly,
// fixed-point check), the staged steps are grouped by the shared direct
// factorization behind each stepper's left-hand side, and every group
// solves all of its right-hand sides in one blocked multi-RHS pass
// (mat.BatchWorkspace). Scenarios whose matrices coincide — structurally
// identical stacks at the same quantised cavity flows, the common case
// of a policy sweep — pay one factor traversal per *step* instead of one
// per *scenario*. Only direct factorizations block
// (mat.BatchFactorization): every other backend's staged steps solve
// solo through the stepper's own workspace.
//
// Lockstepping is bit-invisible: stage/commit on each Transient performs
// exactly the work a solo Step would, the blocked column arithmetic is
// bit-identical to the solo solve (see mat.BatchWorkspace), and the
// per-stepper SolverStats fold the batched columns' logical counters in.
// A stepper whose step fails never affects its neighbours.
//
// A BatchStepper is not safe for concurrent use; the Transients it
// steps belong to it for the duration of each Step call.
type BatchStepper struct {
	// ws caches one batch workspace per live factorization, bounded to
	// the few factorizations a group's quantised flow levels keep hot.
	ws    map[mat.BatchFactorization]*batchWS
	clock int

	// Per-Step scratch, reused across calls.
	order           []mat.BatchFactorization
	groups          map[mat.BatchFactorization][]int
	dst, rhs, guess [][]float64
	res             []mat.ColumnResult
	stats           BatchStats
}

// batchWSBound caps the cached batch workspaces: each holds blocked
// buffers proportional to n × batch width, and a sweep group only ever
// revisits its quantised flow levels, so a handful stays hot.
const batchWSBound = 8

type batchWS struct {
	bw   *mat.BatchWorkspace
	used int
}

// BatchStats counts lockstep batching outcomes — the physical batching
// work, surfaced per sweep and aggregated by the HTTP service. The
// counters are deterministic for a deterministic step sequence.
type BatchStats struct {
	// Steps counts lockstep Step calls.
	Steps int `json:"steps"`
	// BatchSolves counts blocked multi-RHS solve calls.
	BatchSolves int `json:"batch_solves"`
	// BatchedColumns counts scenario-steps advanced through blocked
	// solves (the columns of those calls).
	BatchedColumns int `json:"batched_columns"`
	// SoloSolves counts staged steps solved per-scenario: singleton
	// factor groups and every backend but direct.
	SoloSolves int `json:"solo_solves"`
	// FixedPointSkips counts staged steps that needed no solve (the
	// state already satisfied the staged system).
	FixedPointSkips int `json:"fixed_point_skips"`
}

// Accumulate folds o's counters into s.
func (s *BatchStats) Accumulate(o BatchStats) {
	s.Steps += o.Steps
	s.BatchSolves += o.BatchSolves
	s.BatchedColumns += o.BatchedColumns
	s.SoloSolves += o.SoloSolves
	s.FixedPointSkips += o.FixedPointSkips
}

// NewBatchStepper returns an empty stepper.
func NewBatchStepper() *BatchStepper {
	return &BatchStepper{
		ws:     map[mat.BatchFactorization]*batchWS{},
		groups: map[mat.BatchFactorization][]int{},
	}
}

// Stats returns the cumulative batching counters.
func (bs *BatchStepper) Stats() BatchStats { return bs.stats }

// workspace returns the cached batch workspace for fact, evicting the
// least-recently-used one past the bound.
func (bs *BatchStepper) workspace(fact mat.BatchFactorization) *mat.BatchWorkspace {
	bs.clock++
	if w, ok := bs.ws[fact]; ok {
		w.used = bs.clock
		return w.bw
	}
	if len(bs.ws) >= batchWSBound {
		var oldest mat.BatchFactorization
		best := bs.clock + 1
		for f, w := range bs.ws {
			if w.used < best {
				oldest, best = f, w.used
			}
		}
		delete(bs.ws, oldest)
	}
	w := &batchWS{bw: fact.NewBatchWorkspace(), used: bs.clock}
	bs.ws[fact] = w
	return w.bw
}

// Step advances trs[i] by one time step under pms[i], in lockstep. The
// returned slice is nil when every stepper advanced; otherwise errs[i]
// carries stepper i's failure (its state is unchanged past the staged
// buffers; other steppers are unaffected). Each call is equivalent,
// result- and stats-wise, to calling trs[i].Step(pms[i]) for every i.
func (bs *BatchStepper) Step(trs []*Transient, pms []PowerMap) []error {
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(trs))
		}
		errs[i] = err
	}
	bs.stats.Steps++
	bs.order = bs.order[:0]
	for i, tr := range trs {
		need, err := tr.stage(pms[i])
		if err != nil {
			fail(i, err)
			continue
		}
		if !need {
			bs.stats.FixedPointSkips++
			continue
		}
		fact, ok := tr.fact.(mat.BatchFactorization)
		if !ok {
			// Not a direct factorization (or none is shared): blocking
			// would not pay, so solve solo.
			bs.stats.SoloSolves++
			if err := tr.solveStaged(); err != nil {
				fail(i, err)
			}
			continue
		}
		if _, ok := bs.groups[fact]; !ok {
			bs.order = append(bs.order, fact)
		}
		bs.groups[fact] = append(bs.groups[fact], i)
	}
	for _, fact := range bs.order {
		idxs := bs.groups[fact]
		delete(bs.groups, fact)
		if len(idxs) == 1 {
			// A group of one gains nothing from blocking: the solo path
			// is bit-identical and skips the gather/scatter.
			bs.stats.SoloSolves++
			if err := trs[idxs[0]].solveStaged(); err != nil {
				fail(idxs[0], err)
			}
			continue
		}
		bs.dst = bs.dst[:0]
		bs.rhs = bs.rhs[:0]
		bs.guess = bs.guess[:0]
		for _, i := range idxs {
			tr := trs[i]
			bs.dst = append(bs.dst, tr.sol)
			bs.rhs = append(bs.rhs, tr.rhs)
			bs.guess = append(bs.guess, tr.x0)
		}
		if cap(bs.res) < len(idxs) {
			bs.res = make([]mat.ColumnResult, len(idxs))
		}
		res := bs.res[:len(idxs)]
		bs.workspace(fact).SolveBatch(bs.dst, bs.rhs, bs.guess, res)
		bs.stats.BatchSolves++
		bs.stats.BatchedColumns += len(idxs)
		for k, i := range idxs {
			if err := trs[i].commitBatch(res[k]); err != nil {
				fail(i, err)
			}
		}
	}
	return errs
}
