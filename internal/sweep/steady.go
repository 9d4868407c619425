package sweep

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/mat"
)

// SteadySweep is a steady-state operating-point sweep on one fixed
// stack: every utilization × flow combination is solved independently.
// All points share one structure — and every point at the same flow
// shares the very same conductance matrix — so with the direct backend
// the whole sweep performs exactly one factorisation per distinct flow,
// however many utilization points ride on it (only the right-hand side
// changes with power).
type SteadySweep struct {
	// Tiers selects the stack (default 2).
	Tiers int `json:"tiers,omitempty"`
	// Cooling is "air" or "liquid" (default liquid — the flow axis is
	// inert for air).
	Cooling string `json:"cooling,omitempty"`
	// Grid is the thermal grid resolution (default 16; at most
	// core.MaxGrid).
	Grid int `json:"grid,omitempty"`
	// Solver selects the backend (default "direct", the factor-once
	// backend this sweep is built for).
	Solver string `json:"solver,omitempty"`
	// Utils are the per-core utilizations to sweep, each in [0, 1].
	Utils []float64 `json:"utils"`
	// FlowsMlPerMin are the per-cavity flows to sweep (clamped to the
	// Table-I pump range, 10–32.3 ml/min).
	FlowsMlPerMin []float64 `json:"flows_ml_min"`
}

func (s SteadySweep) normalized() SteadySweep {
	if s.Tiers == 0 {
		s.Tiers = 2
	}
	if s.Cooling == "" {
		s.Cooling = core.Liquid.String()
	}
	if s.Grid == 0 {
		s.Grid = 16
	}
	if s.Solver == "" {
		s.Solver = mat.BackendDirect
	}
	return s
}

// Validate reports whether the sweep is runnable, after defaulting —
// servers call it before committing to a streamed response.
func (s SteadySweep) Validate() error {
	return s.normalized().validate()
}

func (s SteadySweep) validate() error {
	if len(s.Utils) == 0 || len(s.FlowsMlPerMin) == 0 {
		return fmt.Errorf("sweep: steady sweep needs at least one util and one flow")
	}
	if len(s.Utils)*len(s.FlowsMlPerMin) > MaxGridPoints {
		return fmt.Errorf("sweep: steady sweep expands to %d points (max %d)",
			len(s.Utils)*len(s.FlowsMlPerMin), MaxGridPoints)
	}
	for _, u := range s.Utils {
		if u < 0 || u > 1 {
			return fmt.Errorf("sweep: utilization %g outside [0, 1]", u)
		}
	}
	for _, q := range s.FlowsMlPerMin {
		if q <= 0 {
			return fmt.Errorf("sweep: non-positive flow %g ml/min", q)
		}
	}
	if _, err := jobs.ParseCooling(s.Cooling); err != nil {
		return err
	}
	if err := core.CheckGrid(s.Grid); err != nil {
		return err
	}
	if !mat.KnownBackend(s.Solver) {
		return fmt.Errorf("sweep: unknown solver backend %q (want one of %v)", s.Solver, mat.Backends())
	}
	return nil
}

// SteadyPoint is one solved operating point.
type SteadyPoint struct {
	Util         float64 `json:"util"`
	FlowMlPerMin float64 `json:"flow_ml_min"`
	// PeakC is the hottest junction temperature (°C).
	PeakC float64 `json:"peak_c"`
	// TierPeakC is the per-tier peak (°C).
	TierPeakC []float64 `json:"tier_peak_c,omitempty"`
	// TotalPowerW is the chip power at this utilization.
	TotalPowerW float64 `json:"total_power_w"`
	// Error carries a per-point failure.
	Error string `json:"error,omitempty"`
	// Err is the underlying error for in-process callers.
	Err error `json:"-"`
}

// SteadyReport is the outcome of one steady sweep.
type SteadyReport struct {
	// Points holds utils-major × flows-minor results: the point for
	// (Utils[i], FlowsMlPerMin[j]) sits at i*len(FlowsMlPerMin)+j.
	Points []SteadyPoint `json:"points"`
	// Scenarios and Errors count points.
	Scenarios int `json:"scenarios"`
	Errors    int `json:"errors"`
	// Distinct counts matrices held by the sweep's factor cache — for
	// the direct backend, the factorizations the whole sweep paid.
	Distinct int `json:"distinct_matrices"`
	// Prep counts the physical preparation work (Factorizations paid,
	// Shares avoided).
	Prep mat.PrepStats `json:"prep"`
}

// RunSteady executes a steady sweep: each point solves on its own fresh
// System (no cross-point warm start, so results are independent of
// evaluation order and worker count) while every System shares the
// sweep-wide factor cache. onPoint, when non-nil, observes every point
// as it completes (any order, one call at a time). Per-point failures
// land in the report; the returned error covers invalid sweeps and
// context cancellation.
func (e *Engine) RunSteady(ctx context.Context, s SteadySweep, onPoint func(SteadyPoint)) (*SteadyReport, error) {
	s = s.normalized()
	if err := s.validate(); err != nil {
		return nil, err
	}
	cooling, err := jobs.ParseCooling(s.Cooling)
	if err != nil {
		return nil, err
	}
	prep := e.newPrepCache(nil)
	nf := len(s.FlowsMlPerMin)
	n := len(s.Utils) * nf
	var emitMu sync.Mutex
	emit := func(p SteadyPoint) {
		if onPoint == nil {
			return
		}
		emitMu.Lock()
		onPoint(p)
		emitMu.Unlock()
	}
	points, _, err := FanOut(ctx, e.Pool, n, func(ctx context.Context, i int) (SteadyPoint, error) {
		util, flow := s.Utils[i/nf], s.FlowsMlPerMin[i%nf]
		p := SteadyPoint{Util: util, FlowMlPerMin: flow}
		if err := ctx.Err(); err != nil {
			p.Err, p.Error = err, err.Error()
			return p, err
		}
		sys, err := core.NewSystem(core.Options{
			Tiers: s.Tiers, Cooling: cooling, Grid: s.Grid, Solver: s.Solver, Prep: prep,
		})
		if err == nil {
			var snap *core.Snapshot
			if snap, err = sys.Steady(util, flow); err == nil {
				p.PeakC = snap.PeakC
				p.TierPeakC = snap.TierPeakC
				p.TotalPowerW = snap.TotalPowerW
			}
		}
		if err != nil {
			p.Err, p.Error = err, err.Error()
		}
		emit(p)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	rep := &SteadyReport{Points: points, Scenarios: n, Distinct: prep.Len(), Prep: prep.Stats()}
	e.recordFactorNs(prep)
	for i := range points {
		if points[i].Err != nil {
			rep.Errors++
		}
	}
	return rep, nil
}
