package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fluids"
	"repro/internal/power"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cores() != 8 {
		t.Errorf("default system cores = %d, want 8", sys.Cores())
	}
	if sys.Threads() != 32 {
		t.Errorf("threads = %d, want 32", sys.Threads())
	}
	if sys.Policy() != "LB" {
		t.Errorf("default policy = %s", sys.Policy())
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{Tiers: 3}); err == nil {
		t.Error("3 tiers must fail (paper studies 2 and 4)")
	}
	if _, err := NewSystem(Options{Policy: "NOPE"}); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestSizeBounds: NewSystem and GenerateTrace accept every size up to
// the bounds and reject one past them (and below the minimum) before
// allocating anything sized by the request.
func TestSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		grid, levels int
		ok           bool
	}{
		{0, 0, true}, {MinGrid, MinFlowLevels, true}, {MaxGrid, MaxFlowLevels, true},
		{MinGrid - 1, 8, false}, {MaxGrid + 1, 8, false}, {100000, 8, false},
		{16, MinFlowLevels - 1, false}, {16, MaxFlowLevels + 1, false}, {16, 2000000000, false},
	} {
		_, err := NewSystem(Options{Cooling: Liquid, Policy: "LC_FUZZY", Grid: tc.grid, FlowQuantLevels: tc.levels})
		if (err == nil) != tc.ok {
			t.Errorf("NewSystem(grid %d, flow levels %d) error = %v, want ok=%v", tc.grid, tc.levels, err, tc.ok)
		}
	}
	for _, tc := range []struct {
		steps int
		ok    bool
	}{
		{MinSteps, true}, {MaxSteps, true}, {MinSteps - 1, false}, {MaxSteps + 1, false}, {2000000000, false},
	} {
		_, err := GenerateTrace("web", 32, tc.steps, 1)
		if (err == nil) != tc.ok {
			t.Errorf("GenerateTrace(%d steps) error = %v, want ok=%v", tc.steps, err, tc.ok)
		}
	}
}

func TestMakePolicy(t *testing.T) {
	for _, name := range Policies() {
		p, err := MakePolicy(name, 85)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p == nil {
			t.Errorf("%s: nil policy", name)
		}
	}
}

// TestCheckPolicyMatchesMakePolicy pins the cheap verdict to the real
// one: for every policy and an unknown name, on edge thresholds and a
// 0.5 °C grid up to 130 °C, CheckPolicy accepts exactly the (policy,
// threshold) pairs MakePolicy builds.
func TestCheckPolicyMatchesMakePolicy(t *testing.T) {
	thresholds := []float64{0, 0.5, 30, 54.5, 55, 85, 119.5, 120, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	for th := 0.5; th <= 130; th += 0.5 {
		thresholds = append(thresholds, th)
	}
	for _, name := range append(Policies(), "NOPE") {
		for _, th := range thresholds {
			_, makeErr := MakePolicy(name, th)
			checkErr := CheckPolicy(name, th)
			if (makeErr == nil) != (checkErr == nil) {
				t.Errorf("%s at %v °C: MakePolicy error %v, CheckPolicy error %v", name, th, makeErr, checkErr)
			}
		}
	}
	// Anchor the verdicts, so an always-accepting or always-rejecting
	// pair of functions cannot pass the comparison above.
	for _, tc := range []struct {
		name string
		th   float64
		ok   bool
	}{
		{"LC_FUZZY", 0, true}, // the 85 °C default
		{"LC_FUZZY", 54.5, false},
		{"LC_FUZZY", 55, true},
		{"LC_FUZZY_S", 119.5, true},
		{"LC_FUZZY_PC", 120, false},
		{"LC_FUZZY", math.NaN(), false},
		{"LB", math.NaN(), true},
		{"NOPE", 85, false},
	} {
		if err := CheckPolicy(tc.name, tc.th); (err == nil) != tc.ok {
			t.Errorf("CheckPolicy(%s, %v) = %v, want ok=%v", tc.name, tc.th, err, tc.ok)
		}
	}
}

// TestCheckWorkloadMatchesGenerateTrace pins the workload-name check to
// the trace generator it stands in for.
func TestCheckWorkloadMatchesGenerateTrace(t *testing.T) {
	for _, name := range append(Workloads(), "nope", "", "WEB") {
		_, genErr := GenerateTrace(name, 32, 2, 1)
		checkErr := CheckWorkload(name)
		if (genErr == nil) != (checkErr == nil) {
			t.Errorf("%q: GenerateTrace error %v, CheckWorkload error %v", name, genErr, checkErr)
		}
	}
	if len(Workloads()) != 5 || CheckWorkload("light") != nil || CheckWorkload("nope") == nil {
		t.Errorf("workload table = %v", Workloads())
	}
}

func TestGenerateTrace(t *testing.T) {
	for _, name := range []string{"web", "db", "mm", "peak"} {
		tr, err := GenerateTrace(name, 32, 10, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Steps() != 10 || tr.Threads() != 32 {
			t.Errorf("%s: shape %dx%d", name, tr.Steps(), tr.Threads())
		}
	}
	if _, err := GenerateTrace("nope", 32, 10, 1); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestRunTraceEndToEnd(t *testing.T) {
	sys, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Policy: "LC_FUZZY", Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace("web", sys.Threads(), 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakTempC <= 27 || m.PeakTempC >= 85 {
		t.Errorf("fuzzy LC peak = %v °C", m.PeakTempC)
	}
	if m.PumpEnergyJ <= 0 {
		t.Error("no pump energy recorded")
	}
	if _, err := sys.RunTrace(nil); err == nil {
		t.Error("nil trace must fail")
	}
}

func TestSteadySnapshot(t *testing.T) {
	sys, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.Steady(1, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := sys.Steady(0, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	if full.PeakC <= idle.PeakC {
		t.Errorf("full-load peak %v not above idle %v", full.PeakC, idle.PeakC)
	}
	if len(full.TierPeakC) != 2 {
		t.Errorf("tier peaks = %v", full.TierPeakC)
	}
	if full.TotalPowerW <= idle.TotalPowerW {
		t.Error("power ordering wrong")
	}
	starved, err := sys.Steady(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if starved.PeakC <= full.PeakC {
		t.Errorf("min-flow peak %v not above max-flow %v", starved.PeakC, full.PeakC)
	}
}

func TestSteadyWithRefrigerantCoolant(t *testing.T) {
	// The coolant is pluggable: single-phase R-134a (worse than water).
	sysW, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	sysR, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Grid: 8, Coolant: fluids.R134a()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sysW.Steady(1, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sysR.Steady(1, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakC <= w.PeakC {
		t.Errorf("single-phase refrigerant %v °C should run hotter than water %v °C", r.PeakC, w.PeakC)
	}
}

func TestSteadyCoupledConverges(t *testing.T) {
	sys, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.SteadyCoupled(1.0, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	// The coupled fixed point must sit above the uncoupled solve (its
	// leakage is evaluated at the true temperatures, not the 85 °C
	// calibration point is not relevant here — what matters is
	// self-consistency) and well below runaway.
	if snap.PeakC < 30 || snap.PeakC > 100 {
		t.Fatalf("coupled peak %.1f °C implausible", snap.PeakC)
	}
	if snap.TotalPowerW <= 0 {
		t.Fatal("no power at the fixed point")
	}
	if len(snap.TierPeakC) != 2 {
		t.Fatalf("tier peaks = %d, want 2", len(snap.TierPeakC))
	}
}

func TestSteadyCoupledMoreFlowCooler(t *testing.T) {
	sys, err := NewSystem(Options{Tiers: 2, Cooling: Liquid, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := sys.SteadyCoupled(1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sys.SteadyCoupled(1.0, 32.3)
	if err != nil {
		t.Fatal(err)
	}
	if hi.PeakC >= lo.PeakC {
		t.Fatalf("max flow peak %.1f not below min flow %.1f", hi.PeakC, lo.PeakC)
	}
}

func TestSteadyCoupledStackedAirUnmanageable(t *testing.T) {
	// With the calibrated (saturating) leakage law the 4-tier air-cooled
	// stack converges — but far beyond operating limits, the paper's
	// "little opportunity for any thermal management technique" regime.
	sys, err := NewSystem(Options{Tiers: 4, Cooling: Air, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.SteadyCoupled(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PeakC < 150 {
		t.Fatalf("coupled 4-tier air peak %.1f °C, expected unmanageable (>150)", snap.PeakC)
	}
}

func TestSteadyCoupledRunawayOnLeakyProcess(t *testing.T) {
	// A leaky process corner (10x reference leakage, doubling every
	// ~14 K) on the stacked air-cooled package has no finite fixed
	// point: the solver must report thermal runaway, not loop forever
	// or return a fantasy temperature.
	params := power.Default()
	params.LeakRefWPerMM2 *= 10
	params.LeakBeta = 0.05
	sys, err := NewSystem(Options{Tiers: 4, Cooling: Air, Grid: 8, Power: &params})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.SteadyCoupled(1.0, 0)
	if err == nil {
		t.Fatal("expected thermal runaway on the leaky corner")
	}
	if !errors.Is(err, ErrThermalRunaway) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestSensorNoiseOption(t *testing.T) {
	sys, err := NewSystem(Options{
		Tiers: 2, Cooling: Liquid, Policy: "LC_FUZZY", Grid: 8,
		SensorNoiseStdC: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace("web", sys.Threads(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.HotspotFracMax > 0 {
		t.Fatalf("noisy sensors should not create hot spots at this load: %v", m.HotspotFracMax)
	}
	if _, err := NewSystem(Options{SensorNoiseStdC: -1}); err == nil {
		// Validation happens in sim.Run; the run itself must fail.
		s2, _ := NewSystem(Options{Tiers: 2, Cooling: Liquid, SensorNoiseStdC: -1})
		if _, err := s2.RunTrace(tr); err == nil {
			t.Fatal("negative noise accepted")
		}
	}
}
