package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cooling"
	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Runner advances one co-simulation scenario interval by interval — the
// resumable form of Run that the lockstep batch engine drives. The
// phases mirror Run's loop exactly:
//
//	BeginInterval(i)  control boundary: sense, decide, actuate, stage
//	                  the interval's power map
//	SubStep()         one sensing step: thermal advance + metrics
//	Finish()          close the metrics
//
// Run(cfg) is literally NewRunner + the loop, so a Runner driven solo is
// byte-identical to Run; RunBatch drives many runners with the thermal
// stepping done in lockstep, which is bit-invisible (see
// thermal.BatchStepper). A Runner is not safe for concurrent use.
type Runner struct {
	cfg    Config
	st     *floorplan.Stack
	nCores int
	order  [][2]int

	sm         *thermal.StackModel
	pump       *cooling.Pump
	flowLevels []float64
	liquid     bool
	flowFrac   float64
	sched      *schedState
	levels     []int
	nLevels    int
	tr         *thermal.Transient
	m          *Metrics
	noise      *rand.Rand
	cavFlows   []float64
	subSteps   int

	hotTime                   []float64
	totalTime, flowIntegral   float64
	demandedWork, delayedWork float64

	// Staged interval state (set by BeginInterval, read by SubStep).
	pm                   thermal.PowerMap
	chipPower, pumpPower float64

	// Reusable read-back buffers.
	umBuf     [][]float64
	coreTemps []float64
	tierMax   []float64

	finished bool
}

// NewRunner validates the configuration and performs the simulation
// set-up: model build, pump levels, scheduler state and the steady-state
// initialisation of the first trace sample.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, st: cfg.Stack}
	r.nCores = r.st.CoreCount()
	r.order = power.CoreOrder(r.st)

	sm, err := thermal.BuildStack(r.st, thermal.StackOptions{
		Mode: cfg.Mode, Nx: cfg.Grid, Ny: cfg.Grid,
		// Start at the Table-I maximum; the policy retunes it below.
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		Solver:        cfg.Solver,
		Ordering:      cfg.Ordering,
		Prep:          cfg.Prep,
		Assemblies:    cfg.Assemblies,
	})
	if err != nil {
		return nil, err
	}
	r.sm = sm

	r.liquid = cfg.Mode == thermal.LiquidCooled
	r.flowFrac = 1.0
	if r.liquid {
		r.pump, err = cooling.TableIPump(sm.NumCavities())
		if err != nil {
			return nil, err
		}
		r.flowLevels, err = r.pump.FlowLevels(cfg.FlowQuantLevels)
		if err != nil {
			return nil, err
		}
		if err := sm.SetFlowPerCavity(r.pump.MaxFlow); err != nil {
			return nil, err
		}
	}

	r.sched, err = newSchedState(r.nCores, cfg.Trace.Threads())
	if err != nil {
		return nil, err
	}
	r.levels = make([]int, r.nCores)
	r.nLevels = len(cfg.Power.DVFS)

	// Initial state: steady solve at the first sample's power.
	demand := cfg.Trace.Util[0]
	coreUtil, _, err := r.sched.loads(demand, r.levels, cfg.Power.DVFS)
	if err != nil {
		return nil, err
	}
	unitTemps := constUnitTemps(r.st, 60)
	powers, err := cfg.Power.StackPowers(r.st, power.StackState{
		CoreUtil: coreUtil, CoreLevel: r.levels, UnitTempC: unitTemps,
	})
	if err != nil {
		return nil, err
	}
	pm, err := sm.PowerMapFromUnits(powers)
	if err != nil {
		return nil, err
	}
	field, err := sm.Model.SteadyState(pm, nil)
	if err != nil {
		return nil, err
	}
	r.tr, err = sm.Model.NewTransientFrom(cfg.SenseDt, field)
	if err != nil {
		return nil, err
	}

	r.m = &Metrics{
		Policy: cfg.Policy.Name(),
		Stack:  r.st.Name,
		Mode:   cfg.Mode.String(),
		Trace:  cfg.Trace.Name,
	}
	r.noise = rand.New(rand.NewSource(cfg.SensorSeed))
	r.subSteps = int(math.Round(1 / cfg.SenseDt))
	r.hotTime = make([]float64, r.nCores)
	r.coreTemps = make([]float64, r.nCores)
	r.tierMax = make([]float64, r.st.NumTiers())
	return r, nil
}

// Intervals returns the trace length in control intervals (1 s each).
func (r *Runner) Intervals() int { return r.cfg.Trace.Steps() }

// SubSteps returns the sensing steps per control interval.
func (r *Runner) SubSteps() int { return r.subSteps }

// Transient exposes the thermal stepper for lockstep batch driving; the
// staged power map belongs with it (StagedPower).
func (r *Runner) Transient() *thermal.Transient { return r.tr }

// StagedPower returns the power map staged by the last BeginInterval.
func (r *Runner) StagedPower() thermal.PowerMap { return r.pm }

// BeginInterval runs the control boundary of interval step: sense the
// field through the (imperfect) sensors, run the policy, actuate DVFS,
// flow and load balancing, and stage the interval's power map.
func (r *Runner) BeginInterval(step int) error {
	cfg := &r.cfg
	demand := cfg.Trace.Util[step]

	f := r.tr.View()
	uts, err := r.sm.UnitMaxTemperaturesInto(r.umBuf, &f)
	if err != nil {
		return err
	}
	r.umBuf = uts
	coreTemps := r.coreTemps
	for ci, ki := range r.order {
		coreTemps[ci] = uts[ki[0]][ki[1]]
	}
	// The policy senses through imperfect sensors: optional Gaussian
	// noise and an optionally wedged sensor. Metrics keep using the
	// ground-truth field.
	sensedMax := f.MaxOverPowerLayers()
	if cfg.SensorNoiseStdC > 0 || cfg.StuckSensor != nil {
		for ci := range coreTemps {
			if cfg.SensorNoiseStdC > 0 {
				coreTemps[ci] += cfg.SensorNoiseStdC * r.noise.NormFloat64()
			}
		}
		if s := cfg.StuckSensor; s != nil {
			coreTemps[s.Core] = s.ValueC
		}
		sensedMax = coreTemps[0]
		for _, t := range coreTemps[1:] {
			if t > sensedMax {
				sensedMax = t
			}
		}
	}
	coreDemand := r.sched.perCoreDemand(demand)
	meanU := mean(coreDemand)
	tierMax := r.tierMax
	for k := range uts {
		m := uts[k][0]
		for _, v := range uts[k][1:] {
			if v > m {
				m = v
			}
		}
		tierMax[k] = m
	}
	nCav := 0
	if r.liquid {
		nCav = r.sm.NumCavities()
	}
	act, err := cfg.Policy.Decide(policy.Context{
		CoreTempC:    coreTemps,
		MaxTempC:     sensedMax,
		CoreUtil:     coreDemand,
		MeanUtil:     meanU,
		CoreLevels:   r.levels,
		NumLevels:    r.nLevels,
		FlowFrac:     r.flowFrac,
		LiquidCooled: r.liquid,
		TierMaxTempC: tierMax,
		NumCavities:  nCav,
	})
	if err != nil {
		return err
	}
	if len(act.CoreLevels) != r.nCores {
		return fmt.Errorf("sim: policy returned %d levels for %d cores", len(act.CoreLevels), r.nCores)
	}
	copy(r.levels, act.CoreLevels)
	for i := range r.levels {
		r.levels[i] = clampInt(r.levels[i], 0, r.nLevels-1)
	}
	if r.liquid {
		if len(act.PerCavityFlow) == nCav && nCav > 0 {
			// Per-cavity actuation (§I: tune the flow in each
			// micro-channel cavity individually).
			r.cavFlows = r.cavFlows[:0]
			sum := 0.0
			for k, layer := range r.sm.Model.Cavities() {
				frac := quantize(units.Clamp(act.PerCavityFlow[k], 0, 1), r.flowLevels, r.pump)
				q := r.pump.ClampFlow(units.Lerp(r.pump.MinFlow, r.pump.MaxFlow, frac))
				if err := r.sm.Model.SetCavityFlow(layer, q); err != nil {
					return err
				}
				r.cavFlows = append(r.cavFlows, q)
				sum += frac
			}
			r.flowFrac = sum / float64(nCav)
		} else {
			r.cavFlows = r.cavFlows[:0]
			r.flowFrac = quantize(units.Clamp(act.FlowFrac, 0, 1), r.flowLevels, r.pump)
			q := r.pump.ClampFlow(units.Lerp(r.pump.MinFlow, r.pump.MaxFlow, r.flowFrac))
			if err := r.sm.SetFlowPerCavity(q); err != nil {
				return err
			}
		}
	}
	if act.Rebalance {
		r.sched.rebalance(demand)
	}

	// Power for this interval, with leakage at the sensed temps.
	unitMeans, err := r.sm.UnitTemperatures(&f)
	if err != nil {
		return err
	}
	coreUtil, backlog, err := r.sched.loads(demand, r.levels, cfg.Power.DVFS)
	if err != nil {
		return err
	}
	powers, err := cfg.Power.StackPowers(r.st, power.StackState{
		CoreUtil: coreUtil, CoreLevel: r.levels, UnitTempC: unitMeans,
	})
	if err != nil {
		return err
	}
	r.pm, err = r.sm.PowerMapFromUnits(powers)
	if err != nil {
		return err
	}
	r.chipPower = power.Total(powers)
	r.pumpPower = 0
	if r.liquid {
		if len(r.cavFlows) > 0 {
			r.pumpPower, err = r.pump.PowerSplit(r.cavFlows)
			if err != nil {
				return err
			}
		} else {
			r.pumpPower = r.pump.Power(units.Lerp(r.pump.MinFlow, r.pump.MaxFlow, r.flowFrac))
		}
	}
	for _, d := range demand {
		r.demandedWork += d
	}
	for _, b := range backlog {
		r.delayedWork += b
	}
	return nil
}

// SubStep advances one sensing step solo: thermal step + metrics.
func (r *Runner) SubStep() error {
	if err := r.tr.Step(r.pm); err != nil {
		return err
	}
	return r.ObserveSubStep()
}

// ObserveSubStep accumulates the sensing-step metrics after the thermal
// state was advanced (by SubStep or a lockstep batch).
func (r *Runner) ObserveSubStep() error {
	cfg := &r.cfg
	fs := r.tr.View()
	um, err := r.sm.UnitMaxTemperaturesInto(r.umBuf, &fs)
	if err != nil {
		return err
	}
	r.umBuf = um
	for ci, ki := range r.order {
		if um[ki[0]][ki[1]] > cfg.ThresholdC {
			r.hotTime[ci] += cfg.SenseDt
		}
	}
	p := fs.MaxOverPowerLayers()
	if p > r.m.PeakTempC {
		r.m.PeakTempC = p
	}
	if cfg.Record {
		r.m.Series = append(r.m.Series, TimeSample{
			TimeS:      r.totalTime + cfg.SenseDt,
			PeakC:      p,
			FlowFrac:   r.flowFrac,
			ChipPowerW: r.chipPower,
			PumpPowerW: r.pumpPower,
		})
	}
	r.totalTime += cfg.SenseDt
	r.m.ChipEnergyJ += r.chipPower * cfg.SenseDt
	r.m.PumpEnergyJ += r.pumpPower * cfg.SenseDt
	r.flowIntegral += r.flowFrac * cfg.SenseDt
	return nil
}

// Finish closes the metrics. It must be called exactly once, after the
// last interval.
func (r *Runner) Finish() (*Metrics, error) {
	if r.finished {
		return nil, fmt.Errorf("sim: Runner finished twice")
	}
	r.finished = true
	m := r.m
	m.SimulatedS = r.totalTime
	m.TotalEnergyJ = m.ChipEnergyJ + m.PumpEnergyJ
	m.Migrations = r.sched.s.Migrations()
	m.Solver = r.sm.Model.SolverStats()
	m.Solver.Accumulate(r.tr.SolverStats())
	if r.totalTime > 0 {
		m.MeanFlowFrac = r.flowIntegral / r.totalTime
		maxFrac := 0.0
		sumFrac := 0.0
		for _, h := range r.hotTime {
			frac := h / r.totalTime
			sumFrac += frac
			if frac > maxFrac {
				maxFrac = frac
			}
		}
		m.HotspotFracAvg = sumFrac / float64(r.nCores)
		m.HotspotFracMax = maxFrac
	}
	if r.demandedWork > 0 {
		m.PerfDegradationPct = 100 * r.delayedWork / r.demandedWork
	}
	return m, nil
}

// RunBatch advances every runner in lockstep: each interval runs every
// live runner's control boundary, then the sensing sub-steps advance all
// thermal states together through one thermal.BatchStepper, so
// structurally identical direct-backend scenarios at matching flows
// share blocked multi-RHS solves. Per-runner failures (errs[i]) drop that runner from
// the batch without touching its neighbours — results and metrics are
// byte-identical to driving each runner solo (or to Run), whatever the
// batch composition. Cancellation fails the remaining live runners with
// ctx.Err().
func RunBatch(ctx context.Context, rs []*Runner) (metrics []*Metrics, errs []error, stats thermal.BatchStats) {
	n := len(rs)
	metrics = make([]*Metrics, n)
	errs = make([]error, n)
	if n == 0 {
		return metrics, errs, thermal.BatchStats{}
	}
	intervals, sub := rs[0].Intervals(), rs[0].SubSteps()
	live := make([]int, 0, n)
	for i, r := range rs {
		if r.Intervals() != intervals || r.SubSteps() != sub {
			errs[i] = fmt.Errorf("sim: batch runner %d has %d×%d steps, batch runs %d×%d",
				i, r.Intervals(), r.SubSteps(), intervals, sub)
			continue
		}
		live = append(live, i)
	}
	bs := thermal.NewBatchStepper()
	trs := make([]*thermal.Transient, 0, n)
	pms := make([]thermal.PowerMap, 0, n)
	for step := 0; step < intervals && len(live) > 0; step++ {
		if err := ctx.Err(); err != nil {
			for _, i := range live {
				errs[i] = err
			}
			return metrics, errs, bs.Stats()
		}
		keep := live[:0]
		for _, i := range live {
			if err := rs[i].BeginInterval(step); err != nil {
				errs[i] = err
				continue
			}
			keep = append(keep, i)
		}
		live = keep
		for s := 0; s < sub && len(live) > 0; s++ {
			trs, pms = trs[:0], pms[:0]
			for _, i := range live {
				trs = append(trs, rs[i].Transient())
				pms = append(pms, rs[i].StagedPower())
			}
			stepErrs := bs.Step(trs, pms)
			keep = live[:0]
			for k, i := range live {
				if stepErrs != nil && stepErrs[k] != nil {
					errs[i] = stepErrs[k]
					continue
				}
				if err := rs[i].ObserveSubStep(); err != nil {
					errs[i] = err
					continue
				}
				keep = append(keep, i)
			}
			live = keep
		}
	}
	for _, i := range live {
		m, err := rs[i].Finish()
		if err != nil {
			errs[i] = err
			continue
		}
		metrics[i] = m
	}
	return metrics, errs, bs.Stats()
}
