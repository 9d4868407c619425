package jobs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzScenarioKey pins the cache-key contract under arbitrary field
// permutations: hashing is deterministic, normalization-invariant, and
// injective — two scenarios whose normalized forms differ must never
// share a key (a collision would silently serve one configuration's
// physics for another). The injectivity check is what caught the v2
// encoding's "|field=" separator collision.
func FuzzScenarioKey(f *testing.F) {
	f.Add(2, "liquid", "LC_FUZZY", "web", 300, 16, int64(1), 85.0, 8, 0.0, "direct", false,
		4, "air", "LB", "db", 60, 8, int64(2), 80.0, 4, 0.1, "gmres", true)
	f.Add(0, "", "", "", 0, 0, int64(0), 0.0, 0, 0.0, "", false,
		0, "", "", "", 0, 0, int64(0), 0.0, 0, 0.0, "", false)
	// A v2-encoding collision shape: a separator sequence smuggled into
	// one string field versus split across two.
	f.Add(2, "air", "a|workload=b", "c", 1, 2, int64(1), 1.0, 2, 0.0, "", false,
		2, "air", "a", "b|workload=c", 1, 2, int64(1), 1.0, 2, 0.0, "", false)
	f.Fuzz(func(t *testing.T,
		tiers1 int, cooling1, policy1, workload1 string, steps1, grid1 int, seed1 int64,
		threshold1 float64, levels1 int, noise1 float64, solver1 string, record1 bool,
		tiers2 int, cooling2, policy2, workload2 string, steps2, grid2 int, seed2 int64,
		threshold2 float64, levels2 int, noise2 float64, solver2 string, record2 bool) {
		if math.IsNaN(threshold1) || math.IsNaN(noise1) || math.IsNaN(threshold2) || math.IsNaN(noise2) {
			t.Skip("NaN is never equal to itself; key equality is undefined")
		}
		s1 := Scenario{
			Tiers: tiers1, Cooling: cooling1, Policy: policy1, Workload: workload1,
			Steps: steps1, Grid: grid1, Seed: seed1, ThresholdC: threshold1,
			FlowQuantLevels: levels1, SensorNoiseStdC: noise1, Solver: solver1, Record: record1,
		}
		s2 := Scenario{
			Tiers: tiers2, Cooling: cooling2, Policy: policy2, Workload: workload2,
			Steps: steps2, Grid: grid2, Seed: seed2, ThresholdC: threshold2,
			FlowQuantLevels: levels2, SensorNoiseStdC: noise2, Solver: solver2, Record: record2,
		}
		k1, k2 := s1.Key(), s2.Key()
		if k1 != s1.Key() {
			t.Fatal("Key is not deterministic")
		}
		if s1.Normalized().Key() != k1 {
			t.Fatal("Key is not normalization-invariant")
		}
		if reflect.DeepEqual(s1.Normalized(), s2.Normalized()) {
			if k1 != k2 {
				t.Fatalf("equal normalized scenarios hash differently:\n%+v\n%+v", s1, s2)
			}
		} else if k1 == k2 {
			t.Fatalf("distinct scenarios collide on key %s:\n%+v\n%+v", k1, s1.Normalized(), s2.Normalized())
		}
	})
}

// computeAccepts is the compute path's own verdict on a scenario: the
// sensor-noise bound the simulator needs plus the constructors
// Scenario.Run calls — NewSystem (stack, grid, flow levels, policy,
// solver, ordering) and GenerateTrace (workload, trace length).
func computeAccepts(s Scenario) bool {
	s = s.Normalized()
	if s.SensorNoiseStdC < 0 {
		return false
	}
	cooling, err := ParseCooling(s.Cooling)
	if err != nil {
		return false
	}
	sys, err := core.NewSystem(core.Options{
		Tiers: s.Tiers, Cooling: cooling, Policy: s.Policy, ThresholdC: s.ThresholdC,
		Grid: s.Grid, FlowQuantLevels: s.FlowQuantLevels, Solver: s.Solver, Ordering: s.Ordering,
	})
	if err != nil {
		return false
	}
	_, err = core.GenerateTrace(s.Workload, sys.Threads(), s.Steps, s.Seed)
	return err == nil
}

// FuzzScenarioValidate pins validation to the compute path: Validate
// builds no system and no trace, yet must accept exactly the scenarios
// whose system and trace construction succeed — a scenario it
// lets through must not fail to build, and one it rejects must not be
// runnable.
func FuzzScenarioValidate(f *testing.F) {
	f.Add(2, "liquid", "LC_FUZZY", "web", 10, 8, int64(1), 85.0, 8, 0.0, "direct", "auto")
	f.Add(0, "", "", "", 0, 0, int64(0), 0.0, 0, 0.0, "", "")
	f.Add(4, "air", "LC_FUZZY_S", "db", 1, 2, int64(7), 54.5, 2, 0.5, "gmres", "nd")
	f.Add(2, "liquid", "LC_FUZZY_PC", "peak", 3, 8, int64(1), 55.0, 8, 0.0, "", "rcm")
	f.Add(2, "liquid", "LC_FUZZY", "light", 3, 8, int64(1), 120.0, 8, 0.0, "bicgstab", "")
	f.Add(2, "air", "LB", "nope", 3, 8, int64(1), -1.0, 8, 0.0, "", "")
	f.Add(2, "air", "LC_PID", "mm", 3, 8, int64(1), math.NaN(), 8, 0.0, "quantum", "")
	f.Add(3, "helium", "YOLO", "web", -1, 1, int64(1), 85.0, 1, -1.0, "", "natural")
	// The size bounds, each at and one past its limit.
	f.Add(4, "liquid", "LC_FUZZY_PC", "peak", core.MaxSteps, core.MaxGrid, int64(1), 85.0, core.MaxFlowLevels, 0.0, "direct", "")
	f.Add(2, "liquid", "LC_FUZZY", "web", core.MaxSteps+1, 8, int64(1), 85.0, 8, 0.0, "", "")
	f.Add(2, "liquid", "LC_FUZZY", "web", 10, core.MaxGrid+1, int64(1), 85.0, 8, 0.0, "", "")
	f.Add(2, "liquid", "LC_FUZZY", "web", 10, 8, int64(1), 85.0, core.MaxFlowLevels+1, 0.0, "", "")
	f.Add(2, "air", "LB", "web", 2000000000, 100000, int64(1), 85.0, 2000000000, 0.0, "", "")
	f.Fuzz(func(t *testing.T, tiers int, cooling, policy, workload string, steps, grid int, seed int64,
		threshold float64, levels int, noise float64, solver, ordering string) {
		s := Scenario{
			Tiers: tiers, Cooling: cooling, Policy: policy, Workload: workload,
			Steps: steps, Grid: grid, Seed: seed, ThresholdC: threshold,
			FlowQuantLevels: levels, SensorNoiseStdC: noise, Solver: solver, Ordering: ordering,
		}
		err := s.Validate()
		if want := computeAccepts(s); (err == nil) != want {
			t.Fatalf("Validate() = %v, but the compute path accepts=%v for %+v", err, want, s)
		}
	})
}
