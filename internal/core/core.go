// Package core is the public facade of the reproduction: it assembles the
// paper's 3D MPSoCs (2-/4-tier UltraSPARC T1 stacks with air cooling or
// inter-tier micro-channel liquid cooling), attaches a run-time thermal
// management policy, and runs workload traces through the coupled
// power/thermal/scheduler co-simulation.
//
// Quick start:
//
//	sys, _ := core.NewSystem(core.Options{Tiers: 2, Cooling: core.Liquid, Policy: "LC_FUZZY"})
//	trace, _ := core.GenerateTrace("web", sys.Threads(), 300, 1)
//	metrics, _ := sys.RunTrace(trace)
//	fmt.Println(metrics.PeakTempC, metrics.TotalEnergyJ)
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/fluids"
	"repro/internal/fuzzy"
	"repro/internal/mat"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// Cooling selects the heat-removal technology.
type Cooling int

// Cooling technologies.
const (
	// Air is the conventional back-side heat sink (Table I: 10 W/K).
	Air Cooling = iota
	// Liquid is inter-tier micro-channel liquid cooling (one cavity per
	// tier, Table-I channel geometry, water by default).
	Liquid
)

// String implements fmt.Stringer.
func (c Cooling) String() string {
	if c == Liquid {
		return "liquid"
	}
	return "air"
}

// Options configures a System.
type Options struct {
	// Tiers selects the stack: 2 or 4 (the paper's case studies).
	Tiers int
	// Cooling selects air or inter-tier liquid cooling.
	Cooling Cooling
	// Policy is one of "LB", "TDVFS_LB", "LC_FUZZY", "LC_PID",
	// "LC_TTFLOW" (see Policies).
	Policy string
	// ThresholdC is the hot-spot threshold (default 85 °C).
	ThresholdC float64
	// Grid is the thermal grid resolution (default 16; see CheckGrid).
	Grid int
	// Coolant overrides the coolant (default water; see fluids package
	// for refrigerants and nanofluids). Liquid mode only.
	Coolant fluids.Fluid
	// Power overrides the calibrated power parameters (nil keeps the
	// Niagara defaults) — e.g. a leakier process corner for the
	// SteadyCoupled runaway analysis.
	Power *power.Params
	// SensorNoiseStdC adds Gaussian noise of this standard deviation
	// (kelvin) to the temperature readings the policy sees (0 = ideal
	// sensors); see sim.Config.
	SensorNoiseStdC float64
	// FlowQuantLevels quantises pump actuation (default 8 settings;
	// see CheckFlowLevels and sim.Config). Liquid mode only.
	FlowQuantLevels int
	// Solver selects the linear-solver backend for every thermal solve
	// ("" = default): "bicgstab", "gmres" or "direct" (sparse LU that
	// factors once per flow setting — see mat.Backends).
	Solver string
	// Ordering selects the direct backend's fill-reducing ordering
	// ("" = default "auto"; see mat.Orderings). Iterative backends
	// ignore it.
	Ordering string
	// Prep, when non-nil, shares solver preparations with every other
	// System plugged into the same cache (see mat.PrepCache): systems
	// built from the same stack, grid and solver assemble bit-identical
	// matrices at matching flows, so sweeps pay for each distinct matrix
	// once. Sharing never changes results.
	Prep *mat.PrepCache
	// Assemblies, when non-nil, additionally shares the deterministic
	// matrix assemblies themselves across structurally identical systems
	// (see thermal.AssemblyCache) — the lockstep batch sweep engine hands
	// every scenario of a group one cache. Sharing never changes results.
	Assemblies *thermal.AssemblyCache
}

// Policies lists the supported management strategies. Beyond the
// paper's policies: LC_FUZZY_S (Sugeno inference) , LC_PID (classical PI
// flow loop) and LC_TTFLOW (bang-bang pump) are ablation baselines for
// the fuzzy controller's design choices, and LC_FUZZY_PC extends the
// fuzzy controller to per-cavity flow control ("tune the flow rate of
// the coolant in each micro-channel").
func Policies() []string {
	names := make([]string, len(policyTable))
	for i, p := range policyTable {
		names[i] = p.name
	}
	return names
}

// policyEntry is one management strategy: how to build it and, when
// building it depends on the threshold, how to check a threshold
// without building it.
type policyEntry struct {
	name  string
	build func(thresholdC float64) (policy.Policy, error)
	check func(thresholdC float64) error // nil: every threshold runs
}

// policyTable is the one list of management strategies: Policies lists
// it, MakePolicy builds from it and CheckPolicy checks against it.
var policyTable = [...]policyEntry{
	{name: "LB", build: func(float64) (policy.Policy, error) { return policy.LB{}, nil }},
	{name: "TDVFS_LB", build: func(float64) (policy.Policy, error) { return policy.NewTDVFSLB(), nil }},
	{name: "LC_FUZZY", build: func(th float64) (policy.Policy, error) { return policy.NewFuzzy(th) },
		check: fuzzy.CheckThreshold},
	{name: "LC_FUZZY_S", build: func(th float64) (policy.Policy, error) { return policy.NewFuzzySugeno(th) },
		check: fuzzy.CheckThreshold},
	{name: "LC_FUZZY_PC", build: func(th float64) (policy.Policy, error) { return policy.NewFuzzyPerCavity(th) },
		check: fuzzy.CheckThreshold},
	{name: "LC_PID", build: func(float64) (policy.Policy, error) { return policy.NewPID(), nil }},
	{name: "LC_TTFLOW", build: func(float64) (policy.Policy, error) { return policy.NewTTFlow(), nil }},
}

// lookupPolicy finds a strategy by name; "" selects LB.
func lookupPolicy(name string) (*policyEntry, error) {
	if name == "" {
		name = "LB"
	}
	for i := range policyTable {
		if policyTable[i].name == name {
			return &policyTable[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q (want one of %v)", name, Policies())
}

// MakePolicy instantiates a policy by name.
func MakePolicy(name string, thresholdC float64) (policy.Policy, error) {
	p, err := lookupPolicy(name)
	if err != nil {
		return nil, err
	}
	if thresholdC == 0 {
		thresholdC = 85
	}
	return p.build(thresholdC)
}

// CheckPolicy reports whether MakePolicy(name, thresholdC) succeeds
// without instantiating the policy: for the fuzzy family it checks only
// the threshold-dependent membership functions (fuzzy.CheckThreshold)
// and builds no rule base or inference engine. It allocates nothing
// when it accepts, so it can run on every request.
func CheckPolicy(name string, thresholdC float64) error {
	p, err := lookupPolicy(name)
	if err != nil || p.check == nil {
		return err
	}
	if thresholdC == 0 {
		thresholdC = 85
	}
	return p.check(thresholdC)
}

// Size bounds of one run: the thermal grid resolution, the trace
// length in seconds and the pump's flow quantisation levels. The grid,
// the trace and the level table are allocated before the first step,
// so an unbounded size ends the process with a fatal out-of-memory
// error that nothing can recover. The bounds admit every size the
// reproduction uses (grids 8–16 in scenarios and up to 32 in the
// grid-convergence ablation, 300-step traces, 8 flow levels by
// default).
// NewSystem and GenerateTrace enforce them, and callers that validate
// before computing check the same bounds through CheckGrid, CheckSteps
// and CheckFlowLevels.
const (
	MinGrid, MaxGrid             = 2, 32
	MinSteps, MaxSteps           = 1, 3600
	MinFlowLevels, MaxFlowLevels = 2, 64
)

// CheckGrid reports whether NewSystem accepts the grid resolution.
func CheckGrid(grid int) error { return checkSize("grid", grid, MinGrid, MaxGrid) }

// CheckSteps reports whether GenerateTrace accepts the trace length.
func CheckSteps(steps int) error { return checkSize("trace length", steps, MinSteps, MaxSteps) }

// CheckFlowLevels reports whether NewSystem accepts the flow
// quantisation level count.
func CheckFlowLevels(levels int) error {
	return checkSize("flow levels", levels, MinFlowLevels, MaxFlowLevels)
}

func checkSize(what string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("core: %s %d outside [%d, %d]", what, v, lo, hi)
	}
	return nil
}

// System is a configured 3D MPSoC ready to run workloads. A System is
// not safe for concurrent use: Steady caches its thermal model and last
// solution so that sweeps over utilization or flow rate — e.g. the
// design-space explorations — warm-start from the neighbouring
// operating point instead of solving cold.
type System struct {
	opt    Options
	stack  *floorplan.Stack
	mode   thermal.CoolingMode
	policy policy.Policy
	pmodel *power.Model

	// Steady-state sweep cache: the stack model is built once and
	// retuned via SetFlowPerCavity; the previous solution seeds the
	// next solve.
	steadySM    *thermal.StackModel
	steadyField *thermal.Field
}

// NewSystem validates the options and builds the system.
func NewSystem(opt Options) (*System, error) {
	var st *floorplan.Stack
	switch opt.Tiers {
	case 0, 2:
		st = floorplan.Niagara2Tier()
		opt.Tiers = 2
	case 4:
		st = floorplan.Niagara4Tier()
	default:
		return nil, fmt.Errorf("core: unsupported tier count %d (paper studies 2 and 4)", opt.Tiers)
	}
	if opt.ThresholdC == 0 {
		opt.ThresholdC = 85
	}
	if opt.Grid == 0 {
		opt.Grid = 16
	}
	if opt.FlowQuantLevels == 0 {
		opt.FlowQuantLevels = 8
	}
	if err := CheckGrid(opt.Grid); err != nil {
		return nil, err
	}
	if err := CheckFlowLevels(opt.FlowQuantLevels); err != nil {
		return nil, err
	}
	mode := thermal.AirCooled
	if opt.Cooling == Liquid {
		mode = thermal.LiquidCooled
	}
	if !mat.KnownBackend(opt.Solver) {
		return nil, fmt.Errorf("core: unknown solver backend %q (want one of %v)", opt.Solver, mat.Backends())
	}
	if !mat.KnownOrdering(opt.Ordering) {
		return nil, fmt.Errorf("core: unknown ordering %q (want one of %v)", opt.Ordering, mat.Orderings())
	}
	pol, err := MakePolicy(opt.Policy, opt.ThresholdC)
	if err != nil {
		return nil, err
	}
	if opt.Policy == "" {
		opt.Policy = pol.Name()
	}
	pmodel := power.NewDefaultModel()
	if opt.Power != nil {
		pmodel, err = power.NewModel(*opt.Power, power.NiagaraDVFS())
		if err != nil {
			return nil, err
		}
	}
	return &System{
		opt:    opt,
		stack:  st,
		mode:   mode,
		policy: pol,
		pmodel: pmodel,
	}, nil
}

// Stack exposes the floorplan stack.
func (s *System) Stack() *floorplan.Stack { return s.stack }

// Cores returns the processing-core count.
func (s *System) Cores() int { return s.stack.CoreCount() }

// Threads returns the hardware-thread count (4 per core on the T1).
func (s *System) Threads() int { return 4 * s.stack.CoreCount() }

// Policy returns the active management policy name.
func (s *System) Policy() string { return s.policy.Name() }

// RunTrace runs the full co-simulation over a utilization trace sampled
// at 1 s (see package workload) and returns the Fig. 6/7 metrics.
func (s *System) RunTrace(tr *workload.Trace) (*sim.Metrics, error) {
	return s.runTrace(tr, false)
}

// RunTraceRecorded is RunTrace with per-sensing-step time-series
// capture enabled (Metrics.Series): the temperature/flow traces papers
// plot, at the cost of ~10 samples per simulated second.
func (s *System) RunTraceRecorded(tr *workload.Trace) (*sim.Metrics, error) {
	return s.runTrace(tr, true)
}

func (s *System) simConfig(tr *workload.Trace, record bool) sim.Config {
	return sim.Config{
		Stack:           s.stack,
		Mode:            s.mode,
		Policy:          s.policy,
		Trace:           tr,
		Power:           s.pmodel,
		ThresholdC:      s.opt.ThresholdC,
		Grid:            s.opt.Grid,
		FlowQuantLevels: s.opt.FlowQuantLevels,
		SensorNoiseStdC: s.opt.SensorNoiseStdC,
		Solver:          s.opt.Solver,
		Ordering:        s.opt.Ordering,
		Prep:            s.opt.Prep,
		Assemblies:      s.opt.Assemblies,
		Record:          record,
	}
}

func (s *System) runTrace(tr *workload.Trace, record bool) (*sim.Metrics, error) {
	if tr == nil {
		return nil, errors.New("core: nil trace")
	}
	return sim.Run(s.simConfig(tr, record))
}

// NewTraceRunner returns the resumable co-simulation runner for the
// trace — the form the lockstep batch sweep engine drives interval by
// interval (see sim.Runner and sim.RunBatch). Driving the runner to
// completion is byte-identical to RunTrace.
func (s *System) NewTraceRunner(tr *workload.Trace, record bool) (*sim.Runner, error) {
	if tr == nil {
		return nil, errors.New("core: nil trace")
	}
	return sim.NewRunner(s.simConfig(tr, record))
}

// Snapshot is a steady-state operating point of the system.
type Snapshot struct {
	// PeakC is the hottest junction temperature (°C).
	PeakC float64
	// TierPeakC is the per-tier peak (°C).
	TierPeakC []float64
	// TotalPowerW is the chip power at the snapshot's utilization.
	TotalPowerW float64
}

// Steady solves the steady state with every core at the given utilization
// and, for liquid cooling, the given per-cavity flow in ml/min (clamped
// to the Table-I range; ignored for air cooling). Repeated calls on one
// System reuse the thermal model (retuning the cavity flow in place) and
// warm-start from the previous solution, so sweeps over neighbouring
// operating points — flow sweeps, DSE chains — skip both the model
// rebuild and most solver iterations.
func (s *System) Steady(util, flowMlPerMin float64) (*Snapshot, error) {
	flow := units.MlPerMinToM3PerS(units.Clamp(flowMlPerMin, 10, 32.3))
	sm, err := s.steadyModel(flow)
	if err != nil {
		return nil, err
	}
	utils := make([]float64, s.Cores())
	for i := range utils {
		utils[i] = util
	}
	powers, err := s.pmodel.StackPowers(s.stack, power.StackState{CoreUtil: utils})
	if err != nil {
		return nil, err
	}
	pm, err := sm.PowerMapFromUnits(powers)
	if err != nil {
		return nil, err
	}
	f, err := sm.Model.SteadyState(pm, s.steadyField)
	if err != nil {
		return nil, err
	}
	s.steadyField = f
	snap := &Snapshot{
		PeakC:       f.MaxOverPowerLayers(),
		TotalPowerW: power.Total(powers),
	}
	for k := range s.stack.Tiers {
		snap.TierPeakC = append(snap.TierPeakC, f.Max(sm.TierLayer(k)))
	}
	return snap, nil
}

// steadyModel returns the cached steady-sweep stack model, building it
// on first use and retuning the cavity flow on subsequent calls.
func (s *System) steadyModel(flow float64) (*thermal.StackModel, error) {
	if s.steadySM == nil {
		sm, err := thermal.BuildStack(s.stack, thermal.StackOptions{
			Mode: s.mode, Nx: s.opt.Grid, Ny: s.opt.Grid,
			FlowPerCavity: flow,
			Coolant:       s.coolant(),
			Solver:        s.opt.Solver,
			Ordering:      s.opt.Ordering,
			Prep:          s.opt.Prep,
			Assemblies:    s.opt.Assemblies,
		})
		if err != nil {
			return nil, err
		}
		s.steadySM = sm
		return sm, nil
	}
	if s.mode == thermal.LiquidCooled {
		if err := s.steadySM.SetFlowPerCavity(flow); err != nil {
			return nil, err
		}
	}
	return s.steadySM, nil
}

func (s *System) coolant() fluids.Fluid {
	if s.opt.Coolant.Name != "" {
		return s.opt.Coolant
	}
	return fluids.Water()
}

// GenerateTrace synthesises a named workload trace: "web", "db", "mm",
// "peak" (the maximum-utilization stressor), or "light" (the idle-heavy
// off-peak trace). threads should be
// System.Threads(); steps is the duration in seconds (see CheckSteps).
func GenerateTrace(name string, threads, steps int, seed int64) (*workload.Trace, error) {
	p, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := CheckSteps(steps); err != nil {
		return nil, err
	}
	return p.Generate(threads, steps, seed)
}

// Workloads lists the trace profile names GenerateTrace accepts.
func Workloads() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

// CheckWorkload reports whether GenerateTrace knows the named workload,
// without generating a trace.
func CheckWorkload(name string) error {
	_, err := lookupWorkload(name)
	return err
}

// workloadTable is the one list of named trace profiles: GenerateTrace
// builds from it and CheckWorkload checks against it.
var workloadTable = [...]struct {
	name    string
	profile *workload.Profile
}{
	{"web", &workload.WebServer},
	{"db", &workload.Database},
	{"mm", &workload.Multimedia},
	{"peak", &workload.PeakLoad},
	{"light", &workload.LightLoad},
}

func lookupWorkload(name string) (*workload.Profile, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w.profile, nil
		}
	}
	return nil, fmt.Errorf("core: unknown workload %q (want %s)", name, strings.Join(Workloads(), ", "))
}

// SteadyCoupled iterates the leakage-temperature feedback to a fixed
// point: leakage rises exponentially with temperature, which raises the
// temperature, which raises leakage. The iteration either converges
// (liquid cooling, or air cooling with headroom) or diverges — thermal
// runaway, the failure mode thermally-aware design must rule out.
// It returns ErrThermalRunaway when the fixed point escapes upward.
func (s *System) SteadyCoupled(util, flowMlPerMin float64) (*Snapshot, error) {
	flow := units.MlPerMinToM3PerS(units.Clamp(flowMlPerMin, 10, 32.3))
	sm, err := thermal.BuildStack(s.stack, thermal.StackOptions{
		Mode: s.mode, Nx: s.opt.Grid, Ny: s.opt.Grid,
		FlowPerCavity: flow,
		Coolant:       s.coolant(),
		Solver:        s.opt.Solver,
		Ordering:      s.opt.Ordering,
		Prep:          s.opt.Prep,
		Assemblies:    s.opt.Assemblies,
	})
	if err != nil {
		return nil, err
	}
	utils := make([]float64, s.Cores())
	for i := range utils {
		utils[i] = util
	}
	// Start the feedback loop at a benign 60 °C everywhere.
	temps := make([][]float64, len(s.stack.Tiers))
	for k, tier := range s.stack.Tiers {
		row := make([]float64, len(tier.FP.Units))
		for i := range row {
			row[i] = 60
		}
		temps[k] = row
	}
	const (
		maxIter  = 60
		tolK     = 0.01
		runawayC = 400 // silicon is long dead; treat as divergence
	)
	var field *thermal.Field
	var powers [][]float64
	prevPeak := 0.0
	for it := 0; it < maxIter; it++ {
		powers, err = s.pmodel.StackPowers(s.stack, power.StackState{
			CoreUtil: utils, UnitTempC: temps,
		})
		if err != nil {
			return nil, err
		}
		pm, err := sm.PowerMapFromUnits(powers)
		if err != nil {
			return nil, err
		}
		field, err = sm.Model.SteadyState(pm, field)
		if err != nil {
			return nil, err
		}
		peak := field.MaxOverPowerLayers()
		if peak > runawayC {
			return nil, fmt.Errorf("%w: peak %.0f °C after %d iterations",
				ErrThermalRunaway, peak, it+1)
		}
		if it > 0 && math.Abs(peak-prevPeak) < tolK {
			snap := &Snapshot{PeakC: peak, TotalPowerW: power.Total(powers)}
			for k := range s.stack.Tiers {
				snap.TierPeakC = append(snap.TierPeakC, field.Max(sm.TierLayer(k)))
			}
			return snap, nil
		}
		prevPeak = peak
		temps, err = sm.UnitTemperatures(field)
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: no fixed point within %d iterations (peak %.0f °C)",
		ErrThermalRunaway, maxIter, prevPeak)
}

// ErrThermalRunaway reports a diverging leakage-temperature feedback
// loop in SteadyCoupled.
var ErrThermalRunaway = errors.New("core: thermal runaway")
