package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// quickScenario is a fast-but-real configuration for cache round trips.
func quickScenario() Scenario {
	return Scenario{Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web", Steps: 2, Grid: 8, Seed: 1}
}

func TestScenarioKeyDeterministic(t *testing.T) {
	a := quickScenario()
	b := quickScenario()
	if a.Key() != b.Key() {
		t.Fatal("identical scenarios hash to different keys")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a.Key())
	}
}

// legacyKey is the historical fmt.Fprintf-based encoder Key replaced
// with an allocation-light appender: the bytes hashed must be identical
// so that persisted cache entries and cross-version deployments keep
// their content addresses.
func legacyKey(s Scenario) string {
	s = s.Normalized()
	canonFloat := func(v float64) string {
		if v == 0 {
			return "0"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|tiers=%d|cooling=%d:%s|policy=%d:%s|workload=%d:%s|steps=%d|grid=%d|seed=%d|threshold=%s|flowlevels=%d|noise=%s|solver=%d:%s|ordering=%d:%s|record=%t",
		keyVersion, s.Tiers,
		len(s.Cooling), s.Cooling, len(s.Policy), s.Policy, len(s.Workload), s.Workload,
		s.Steps, s.Grid, s.Seed,
		canonFloat(s.ThresholdC), s.FlowQuantLevels, canonFloat(s.SensorNoiseStdC),
		len(s.Solver), s.Solver, len(s.Ordering), s.Ordering, s.Record)
	return hex.EncodeToString(h.Sum(nil))
}

func TestScenarioKeyEncodingStable(t *testing.T) {
	cases := []Scenario{
		{},
		quickScenario(),
		{Tiers: 4, Cooling: "liquid", Policy: "LC_FUZZY", Workload: "db", Steps: 17, Grid: 12, Seed: -3},
		{ThresholdC: 92.5, FlowQuantLevels: 3, SensorNoiseStdC: 0.25, Solver: "direct", Record: true},
		{Policy: "LC_PID", Workload: "a|b=c", ThresholdC: 1e-9},
	}
	for _, sc := range cases {
		if got, want := sc.Key(), legacyKey(sc); got != want {
			t.Fatalf("key encoding drifted for %+v: %s vs %s", sc, got, want)
		}
	}
}

// TestCacheHitAllocs guards the pure-hit fast path: one allocation for
// the hex key, one for the defensive metrics clone. A liquid LC_FUZZY
// hit (the perfbench serve-mix hot-set shape) allocates no more than
// an LB hit: validation checks the fuzzy threshold without building
// the controller.
func TestCacheHitAllocs(t *testing.T) {
	hitAllocs := func(sc Scenario) float64 {
		cache := NewCache(0)
		if _, _, err := cache.Metrics(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			m, hit, err := cache.Metrics(context.Background(), sc)
			if err != nil || !hit || m == nil {
				t.Fatal("expected a cache hit")
			}
		})
	}
	lb := hitAllocs(quickScenario())
	if lb > 2 {
		t.Fatalf("cache hit allocates %.1f times, want <= 2", lb)
	}
	fuzzy := quickScenario()
	fuzzy.Cooling, fuzzy.Policy = "liquid", "LC_FUZZY"
	if fz := hitAllocs(fuzzy); fz > lb {
		t.Fatalf("LC_FUZZY cache hit allocates %.1f times, LB %.1f", fz, lb)
	}
}

func TestScenarioKeyNormalizesDefaults(t *testing.T) {
	// A scenario with explicit defaults and one relying on zero values
	// must be the same cache entry.
	explicit := Scenario{
		Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web",
		Steps: 300, Grid: 16, Seed: 1, ThresholdC: 85, FlowQuantLevels: 8,
	}
	if explicit.Key() != (Scenario{}).Key() {
		t.Fatal("explicit defaults and zero-value scenario hash differently")
	}
}

func TestScenarioKeyChangesWithEveryField(t *testing.T) {
	base := quickScenario()
	mutations := map[string]Scenario{}
	for name, mutate := range map[string]func(*Scenario){
		"Tiers":           func(s *Scenario) { s.Tiers = 4 },
		"Cooling":         func(s *Scenario) { s.Cooling = "liquid" },
		"Policy":          func(s *Scenario) { s.Policy = "TDVFS_LB" },
		"Workload":        func(s *Scenario) { s.Workload = "db" },
		"Steps":           func(s *Scenario) { s.Steps = 3 },
		"Grid":            func(s *Scenario) { s.Grid = 10 },
		"Seed":            func(s *Scenario) { s.Seed = 2 },
		"ThresholdC":      func(s *Scenario) { s.ThresholdC = 80 },
		"FlowQuantLevels": func(s *Scenario) { s.FlowQuantLevels = 4 },
		"SensorNoiseStdC": func(s *Scenario) { s.SensorNoiseStdC = 0.3 },
		"Solver":          func(s *Scenario) { s.Solver = "direct" },
		"Record":          func(s *Scenario) { s.Record = true },
	} {
		sc := base
		mutate(&sc)
		mutations[name] = sc
	}
	seen := map[string]string{base.Key(): "base"}
	for name, sc := range mutations {
		k := sc.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

func TestScenarioValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"defaults", Scenario{}, true},
		{"quick", quickScenario(), true},
		{"bad tiers", Scenario{Tiers: 3}, false},
		{"bad cooling", Scenario{Cooling: "helium"}, false},
		{"bad policy", Scenario{Policy: "YOLO"}, false},
		{"bad steps", Scenario{Steps: -1}, false},
		{"bad grid", Scenario{Grid: 1}, false},
		{"bad noise", Scenario{SensorNoiseStdC: -1}, false},
		{"bad flow levels", Scenario{FlowQuantLevels: 1}, false},
		{"negative flow levels", Scenario{FlowQuantLevels: -7}, false},
		{"direct solver", Scenario{Solver: "direct"}, true},
		{"gmres solver", Scenario{Solver: "gmres"}, true},
		{"bad solver", Scenario{Solver: "quantum"}, false},
	} {
		if err := tc.sc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestScenarioSolverNormalizationAndEquivalence(t *testing.T) {
	// An explicit default backend and an omitted one are the same cache
	// entry; metrics across backends agree within solver tolerance.
	implicit := quickScenario()
	explicit := quickScenario()
	explicit.Solver = "bicgstab"
	if implicit.Key() != explicit.Key() {
		t.Fatal("omitted and explicit default solver hash differently")
	}
	ctx := context.Background()
	base, err := implicit.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base.Solver.Backend != "bicgstab" || base.Solver.Solves == 0 {
		t.Fatalf("metrics did not record solver work: %+v", base.Solver)
	}
	direct := quickScenario()
	direct.Solver = "direct"
	m, err := direct.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solver.Backend != "direct" {
		t.Fatalf("direct run recorded backend %q", m.Solver.Backend)
	}
	// Metrics integrate hundreds of 1e-9-relative-residual solves, so
	// backends agree to solver tolerance, not bit-exactly.
	if d := m.PeakTempC - base.PeakTempC; d > 1e-3 || d < -1e-3 {
		t.Errorf("direct vs bicgstab peak differs by %g K", d)
	}
}

func TestCacheMetricsRoundTrip(t *testing.T) {
	c := NewCache(0)
	ctx := context.Background()
	sc := quickScenario()

	m1, hit, err := c.Metrics(ctx, sc)
	if err != nil {
		t.Fatalf("first Metrics: %v", err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	m2, hit, err := c.Metrics(ctx, sc)
	if err != nil {
		t.Fatalf("second Metrics: %v", err)
	}
	if !hit {
		t.Fatal("identical second request missed the cache")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("cache hit returned different metrics")
	}
	if m1 == m2 {
		t.Fatal("cache handed out the memoized pointer; want a defensive copy")
	}
	// Mutating the returned copy must not poison the cache.
	m2.PeakTempC = -1
	m3, _, err := c.Metrics(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if m3.PeakTempC == -1 {
		t.Fatal("caller mutation leaked into the cache")
	}
}

func TestCacheMetricsRejectsInvalid(t *testing.T) {
	c := NewCache(0)
	if _, _, err := c.Metrics(context.Background(), Scenario{Tiers: 5}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if c.Len() != 0 {
		t.Fatal("invalid scenario left a cache entry")
	}
}

func TestScenarioRunMatchesDirectCoreRun(t *testing.T) {
	// The scenario path (fresh System per run) must reproduce the
	// direct core path bit for bit — determinism is what makes the
	// content-addressed cache sound.
	sc := quickScenario()
	m1, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("same scenario produced different metrics across runs")
	}
}

func TestScenarioRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quickScenario().Run(ctx); err == nil {
		t.Fatal("Run on canceled context succeeded")
	}
}
