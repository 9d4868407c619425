package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/mat"
)

// tinyGrid is an affordable transient batch spanning two lockstep
// groups (air + liquid, default bicgstab backend) with several scenarios
// per group.
func tinyGrid() Grid {
	return Grid{
		Coolings:  []string{"air", "liquid"},
		Policies:  []string{"LB", "LC_FUZZY"},
		Workloads: []string{"web", "light"},
		Steps:     5,
		Res:       8,
	}
}

func TestEngineRunMatchesPlainScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep equivalence is not short")
	}
	scenarios, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Pool: jobs.NewPool(4)}
	rep, err := eng.RunTransient(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != len(scenarios) || len(rep.Results) != len(scenarios) {
		t.Fatalf("report covers %d/%d scenarios", len(rep.Results), len(scenarios))
	}
	// Factorization sharing must be invisible in the metrics: each
	// scenario's result is byte-identical to a standalone run.
	for i, s := range scenarios {
		want, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Results[i].Metrics, want) {
			t.Fatalf("scenario %d diverges from its standalone run", i)
		}
	}
	// The batch shares: physically fewer factorizations than the sum of
	// the logical per-scenario counters.
	if rep.Prep.Factorizations >= rep.Solver.Factorizations {
		t.Fatalf("no sharing: paid %d factorizations, logical total %d",
			rep.Prep.Factorizations, rep.Solver.Factorizations)
	}
	if rep.Prep.Shares == 0 {
		t.Fatal("no factorization was shared across the batch")
	}
	// Two structural groups: air and liquid.
	if len(rep.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(rep.Groups))
	}
}

func TestEngineRunByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep equivalence is not short")
	}
	scenarios, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := (&Engine{Pool: jobs.NewPool(1)}).RunTransient(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Engine{Pool: jobs.NewPool(8)}).RunTransient(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatal("parallel sweep report diverges from the one-worker report")
	}
}

func TestEngineDeduplicatesIdenticalScenarios(t *testing.T) {
	s := jobs.Scenario{Steps: 4, Grid: 8}
	batch := []jobs.Scenario{s, s.Normalized(), s} // three spellings, one scenario
	rep, err := (&Engine{}).RunTransient(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].CacheHit || !rep.Results[1].CacheHit || !rep.Results[2].CacheHit {
		t.Fatalf("dedup flags wrong: %v %v %v",
			rep.Results[0].CacheHit, rep.Results[1].CacheHit, rep.Results[2].CacheHit)
	}
	if rep.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", rep.CacheHits)
	}
	if !reflect.DeepEqual(rep.Results[0].Metrics, rep.Results[1].Metrics) {
		t.Fatal("duplicate scenarios returned different metrics")
	}
	// Duplicates must not alias one Metrics value.
	rep.Results[0].Metrics.PeakTempC = -1
	if rep.Results[1].Metrics.PeakTempC == -1 {
		t.Fatal("duplicate results alias the same Metrics")
	}
}

func TestEngineValidatesUpFront(t *testing.T) {
	_, err := (&Engine{}).RunTransient(context.Background(), []jobs.Scenario{{Tiers: 3}}, nil)
	if err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := (&Engine{}).RunTransient(context.Background(), nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scenarios, _ := tinyGrid().Expand()
	if _, err := (&Engine{}).RunTransient(ctx, scenarios, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
}

func TestEngineStreamsEveryResult(t *testing.T) {
	scenarios := []jobs.Scenario{
		{Steps: 4, Grid: 8},
		{Steps: 4, Grid: 8, Workload: "light"},
		{Steps: 4, Grid: 8}, // duplicate of scenario 0
	}
	seen := map[int]bool{}
	rep, err := (&Engine{Pool: jobs.NewPool(2)}).RunTransient(context.Background(), scenarios, func(r Result) {
		if seen[r.Index] {
			panic("result streamed twice")
		}
		seen[r.Index] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(scenarios))
	}
	if rep.Results[2].Index != 2 {
		t.Fatal("report order corrupted")
	}
}

// TestSteadySweepSharedFactorizations is the PR acceptance check: a
// ≥50-point flow × utilization sweep on a fixed stack performs fewer
// factorizations than scenarios, and every point is byte-identical to
// the plain unshared path.
func TestSteadySweepSharedFactorizations(t *testing.T) {
	if testing.Short() {
		t.Skip("steady sweep acceptance is not short")
	}
	sw := SteadySweep{
		Tiers: 2, Grid: 8, Solver: mat.BackendDirect,
		Utils:         []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1},
		FlowsMlPerMin: []float64{10, 15, 20, 25, 32.3},
	}
	n := len(sw.Utils) * len(sw.FlowsMlPerMin)
	if n < 50 {
		t.Fatalf("acceptance sweep has %d scenarios, want >= 50", n)
	}
	eng := &Engine{Pool: jobs.NewPool(8)}
	rep, err := eng.RunSteady(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Scenarios != n {
		t.Fatalf("report: %d scenarios, %d errors", rep.Scenarios, rep.Errors)
	}
	if rep.Prep.Factorizations >= n {
		t.Fatalf("sweep paid %d factorizations for %d scenarios — no sharing", rep.Prep.Factorizations, n)
	}
	if want := len(sw.FlowsMlPerMin); rep.Prep.Factorizations != want {
		t.Fatalf("paid %d factorizations, want one per distinct flow (%d)", rep.Prep.Factorizations, want)
	}
	if rep.Prep.Shares != n-len(sw.FlowsMlPerMin) {
		t.Fatalf("shares = %d, want %d", rep.Prep.Shares, n-len(sw.FlowsMlPerMin))
	}

	// Byte-identical to the sequential, unshared reference path.
	for i, p := range rep.Points {
		util, flow := sw.Utils[i/len(sw.FlowsMlPerMin)], sw.FlowsMlPerMin[i%len(sw.FlowsMlPerMin)]
		if p.Util != util || p.FlowMlPerMin != flow {
			t.Fatalf("point %d is (%g, %g), want (%g, %g)", i, p.Util, p.FlowMlPerMin, util, flow)
		}
		sys, err := core.NewSystem(core.Options{Tiers: sw.Tiers, Cooling: core.Liquid, Grid: sw.Grid, Solver: sw.Solver})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Steady(util, flow)
		if err != nil {
			t.Fatal(err)
		}
		if p.PeakC != snap.PeakC || p.TotalPowerW != snap.TotalPowerW ||
			!reflect.DeepEqual(p.TierPeakC, snap.TierPeakC) {
			t.Fatalf("point %d (util %g, flow %g) diverges from the unshared path: %+v vs %+v",
				i, util, flow, p, snap)
		}
	}

	// And byte-identical across worker counts.
	seq, err := (&Engine{Pool: jobs.NewPool(1)}).RunSteady(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, seq) {
		t.Fatal("parallel steady sweep diverges from the one-worker sweep")
	}
}

func TestSteadySweepValidation(t *testing.T) {
	eng := &Engine{}
	cases := []SteadySweep{
		{},
		{Utils: []float64{0.5}},
		{Utils: []float64{1.5}, FlowsMlPerMin: []float64{20}},
		{Utils: []float64{0.5}, FlowsMlPerMin: []float64{-1}},
		{Utils: []float64{0.5}, FlowsMlPerMin: []float64{20}, Cooling: "steam"},
		{Utils: []float64{0.5}, FlowsMlPerMin: []float64{20}, Solver: "cray"},
		{Utils: []float64{0.5}, FlowsMlPerMin: []float64{20}, Grid: 100000},
	}
	for i, sw := range cases {
		if _, err := eng.RunSteady(context.Background(), sw, nil); err == nil {
			t.Errorf("case %d: invalid sweep accepted", i)
		}
	}
}

func TestStructuralKeyGroupsByStructureOnly(t *testing.T) {
	base := jobs.Scenario{Tiers: 2, Cooling: "liquid", Grid: 8}
	same := []jobs.Scenario{
		base,
		{Tiers: 2, Cooling: "liquid", Grid: 8, Policy: "LC_FUZZY", Workload: "db", Seed: 7, Steps: 99},
	}
	for _, s := range same {
		if StructuralKey(s) != StructuralKey(base) {
			t.Fatalf("non-structural field changed the structural key: %+v", s)
		}
	}
	diff := []jobs.Scenario{
		{Tiers: 4, Cooling: "liquid", Grid: 8},
		{Tiers: 2, Cooling: "air", Grid: 8},
		{Tiers: 2, Cooling: "liquid", Grid: 12},
		{Tiers: 2, Cooling: "liquid", Grid: 8, Solver: "direct"},
	}
	for _, s := range diff {
		if StructuralKey(s) == StructuralKey(base) {
			t.Fatalf("structural field did not change the structural key: %+v", s)
		}
	}
}
