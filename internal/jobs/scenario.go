package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func init() { fault.Register("jobs.compute") }

// Scenario is one fully-specified co-simulation run: the stack, the
// cooling technology, the management policy, the workload trace and the
// fidelity knobs. It is the unit of work the pool schedules and the
// cache deduplicates; two scenarios with equal normalized fields always
// hash to the same Key and produce identical Metrics (the whole
// pipeline is deterministic given the seed).
type Scenario struct {
	// Tiers selects the stack: 2 (default) or 4.
	Tiers int `json:"tiers,omitempty"`
	// Cooling is "air" (default) or "liquid".
	Cooling string `json:"cooling,omitempty"`
	// Policy names the management strategy (default "LB"; see
	// core.Policies).
	Policy string `json:"policy,omitempty"`
	// Workload names the trace profile: web, db, mm, peak, light
	// (default "web").
	Workload string `json:"workload,omitempty"`
	// Steps is the trace length in seconds (default 300; at most
	// core.MaxSteps).
	Steps int `json:"steps,omitempty"`
	// Grid is the thermal grid resolution (default 16; at most
	// core.MaxGrid).
	Grid int `json:"grid,omitempty"`
	// Seed makes the synthetic trace reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// ThresholdC is the hot-spot threshold (default 85 °C).
	ThresholdC float64 `json:"threshold_c,omitempty"`
	// FlowQuantLevels quantises pump actuation (default 8 settings; at
	// most core.MaxFlowLevels).
	FlowQuantLevels int `json:"flow_levels,omitempty"`
	// Solver selects the linear-solver backend: "bicgstab" (default),
	// "gmres" or "direct" (see mat.Backends). Metrics are
	// backend-agnostic within solver tolerance, but each backend keys
	// its own cache entry so timing studies never alias.
	Solver string `json:"solver,omitempty"`
	// Ordering selects the direct backend's fill-reducing ordering:
	// "auto" (default, least predicted fill among amd/nd/rcm),
	// "natural", "rcm", "amd" or "nd" (see mat.Orderings). Iterative
	// backends ignore it, but it still keys the cache entry so timing
	// studies never alias.
	Ordering string `json:"ordering,omitempty"`
	// SensorNoiseStdC adds Gaussian sensor noise (default 0 = ideal).
	SensorNoiseStdC float64 `json:"sensor_noise_std_c,omitempty"`
	// Record captures the per-sensing-step time series.
	Record bool `json:"record,omitempty"`
}

// Normalized returns the scenario with every zero field replaced by its
// default, so that explicitly-defaulted and implicitly-defaulted
// scenarios are the same cache entry.
func (s Scenario) Normalized() Scenario {
	if s.Tiers == 0 {
		s.Tiers = 2
	}
	if s.Cooling == "" {
		s.Cooling = core.Air.String()
	}
	if s.Policy == "" {
		s.Policy = "LB"
	}
	if s.Workload == "" {
		s.Workload = "web"
	}
	if s.Steps == 0 {
		s.Steps = 300
	}
	if s.Grid == 0 {
		s.Grid = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.ThresholdC == 0 {
		s.ThresholdC = 85
	}
	if s.FlowQuantLevels == 0 {
		s.FlowQuantLevels = 8
	}
	if s.Solver == "" {
		s.Solver = mat.DefaultBackend
	}
	if s.Ordering == "" {
		s.Ordering = mat.DefaultOrdering
	}
	return s
}

// Validate rejects scenarios the simulator cannot run. It accepts
// exactly what the compute path accepts (pinned by
// FuzzScenarioValidate) through name and bound checks alone: it builds
// no policy, model or trace, so a cache hit can afford it.
func (s Scenario) Validate() error {
	s = s.Normalized()
	if s.Tiers != 2 && s.Tiers != 4 {
		return fmt.Errorf("jobs: unsupported tier count %d (want 2 or 4)", s.Tiers)
	}
	if _, err := ParseCooling(s.Cooling); err != nil {
		return err
	}
	if err := core.CheckPolicy(s.Policy, s.ThresholdC); err != nil {
		return err
	}
	if err := core.CheckWorkload(s.Workload); err != nil {
		return err
	}
	if err := core.CheckSteps(s.Steps); err != nil {
		return err
	}
	if err := core.CheckGrid(s.Grid); err != nil {
		return err
	}
	if err := core.CheckFlowLevels(s.FlowQuantLevels); err != nil {
		return err
	}
	if s.SensorNoiseStdC < 0 {
		return fmt.Errorf("jobs: negative sensor noise %v", s.SensorNoiseStdC)
	}
	if !mat.KnownBackend(s.Solver) {
		return fmt.Errorf("jobs: unknown solver backend %q (want one of %v)", s.Solver, mat.Backends())
	}
	if !mat.KnownOrdering(s.Ordering) {
		return fmt.Errorf("jobs: unknown ordering %q (want one of %v)", s.Ordering, mat.Orderings())
	}
	return nil
}

// ParseCooling maps the wire name to the core enum.
func ParseCooling(name string) (core.Cooling, error) {
	switch name {
	case "", core.Air.String():
		return core.Air, nil
	case core.Liquid.String():
		return core.Liquid, nil
	default:
		return core.Air, fmt.Errorf("jobs: unknown cooling %q (want air or liquid)", name)
	}
}

// keyVersion guards the hash format: bump it whenever the canonical
// encoding below (or the simulation semantics behind it) changes, so a
// persisted cache can never serve results computed under old physics.
// v3 length-prefixes the string fields — under the v2 encoding two
// distinct scenarios could collide when a string field contained the
// "|field=" separator sequence (found by FuzzScenarioKey).
// v4 adds the fill-reducing ordering of the direct backend: the
// ordering never changes metrics (solves are bit-identical per backend
// up to solver tolerance), but it moves factor/solve timing, so timing
// studies must never alias across orderings.
const keyVersion = "scenario/v4"

// Key returns the content address of the scenario: a SHA-256 over the
// canonical encoding of every normalized field. The encoding is
// injective — string fields are length-prefixed, field order and float
// formatting are fixed — so distinct normalized scenarios always hash
// distinct inputs.
//
// The encoder appends into a stack buffer and hashes with the one-shot
// sha256.Sum256, so a cache hit costs a couple of allocations instead
// of a dozen (the encoded bytes are identical to the historical
// fmt.Fprintf form — cache keys are stable across the rewrite, pinned
// by TestScenarioKeyEncodingStable).
func (s Scenario) Key() string {
	s = s.Normalized()
	var arr [224]byte
	b := arr[:0]
	b = append(b, keyVersion...)
	b = append(b, "|tiers="...)
	b = strconv.AppendInt(b, int64(s.Tiers), 10)
	b = appendLenPrefixed(b, "|cooling=", s.Cooling)
	b = appendLenPrefixed(b, "|policy=", s.Policy)
	b = appendLenPrefixed(b, "|workload=", s.Workload)
	b = append(b, "|steps="...)
	b = strconv.AppendInt(b, int64(s.Steps), 10)
	b = append(b, "|grid="...)
	b = strconv.AppendInt(b, int64(s.Grid), 10)
	b = append(b, "|seed="...)
	b = strconv.AppendInt(b, s.Seed, 10)
	b = append(b, "|threshold="...)
	b = appendCanonFloat(b, s.ThresholdC)
	b = append(b, "|flowlevels="...)
	b = strconv.AppendInt(b, int64(s.FlowQuantLevels), 10)
	b = append(b, "|noise="...)
	b = appendCanonFloat(b, s.SensorNoiseStdC)
	b = appendLenPrefixed(b, "|solver=", s.Solver)
	b = appendLenPrefixed(b, "|ordering=", s.Ordering)
	b = append(b, "|record="...)
	b = strconv.AppendBool(b, s.Record)
	sum := sha256.Sum256(b)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// appendLenPrefixed appends "<label><len(v)>:<v>" — the injective
// string-field encoding of the key format.
func appendLenPrefixed(b []byte, label, v string) []byte {
	b = append(b, label...)
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	b = append(b, v...)
	return b
}

// appendCanonFloat renders a float with the shortest exact
// representation. Negative zero compares equal to zero (and normalizes
// like it), so it must encode like it too.
func appendCanonFloat(b []byte, v float64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Shared carries the cross-scenario sharing caches of one sweep group:
// solver preparations (factorizations, preconditioners) and — for the
// lockstep batch engine — the matrix assemblies themselves. Both are
// pure plumbing: they are not part of a scenario's identity (Key) and
// never change its metrics; the zero value solves standalone.
type Shared struct {
	// Prep shares solver preparations (see mat.PrepCache).
	Prep *mat.PrepCache
	// Assemblies shares matrix assemblies across structurally identical
	// scenarios (see thermal.AssemblyCache).
	Assemblies *thermal.AssemblyCache
}

// Run executes the scenario standalone on a fresh System and returns
// its metrics — the solo oracle every sweep strategy is held to. The
// context is checked before the (uninterruptible) solve starts; pools
// use this to skip queued scenarios after cancellation.
func (s Scenario) Run(ctx context.Context) (*sim.Metrics, error) {
	s = s.Normalized()
	sys, tr, err := s.system(ctx, Shared{})
	if err != nil {
		return nil, err
	}
	if s.Record {
		return sys.RunTraceRecorded(tr)
	}
	return sys.RunTrace(tr)
}

// system validates the scenario and builds its System and trace.
func (s Scenario) system(ctx context.Context, sh Shared) (*core.System, *workload.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The compute fault point sits on every scenario execution path —
	// direct runs and the lockstep batch engine's runner construction
	// both come through here. Injected errors surface like any scenario
	// failure: reported per point, never memoized, never poisoning the
	// single-flight cache.
	if err := fault.Do("jobs.compute"); err != nil {
		return nil, nil, err
	}
	cooling, err := ParseCooling(s.Cooling)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(core.Options{
		Tiers:           s.Tiers,
		Cooling:         cooling,
		Policy:          s.Policy,
		ThresholdC:      s.ThresholdC,
		Grid:            s.Grid,
		FlowQuantLevels: s.FlowQuantLevels,
		SensorNoiseStdC: s.SensorNoiseStdC,
		Solver:          s.Solver,
		Ordering:        s.Ordering,
		Prep:            sh.Prep,
		Assemblies:      sh.Assemblies,
	})
	if err != nil {
		return nil, nil, err
	}
	tr, err := core.GenerateTrace(s.Workload, sys.Threads(), s.Steps, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	return sys, tr, nil
}

// NewRunner builds the scenario's resumable co-simulation runner — the
// unit the lockstep batch sweep engine advances interval by interval
// (sim.RunBatch). Driving the runner to completion yields exactly
// Run's metrics.
func (s Scenario) NewRunner(ctx context.Context, sh Shared) (*sim.Runner, error) {
	s = s.Normalized()
	sys, tr, err := s.system(ctx, sh)
	if err != nil {
		return nil, err
	}
	return sys.NewTraceRunner(tr, s.Record)
}

// Metrics runs the scenario through the cache: a repeated request for
// the same normalized configuration returns the memoized result (a
// defensive copy — callers may mutate it freely) instead of re-solving.
// The boolean reports a cache hit. A nil cache always computes.
func (c *Cache) Metrics(ctx context.Context, s Scenario) (*sim.Metrics, bool, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, false, err
	}
	v, hit, err := c.GetOrComputeCtx(ctx, s.Key(), func() (any, error) {
		return s.Run(ctx)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*sim.Metrics).Clone(), hit, nil
}
