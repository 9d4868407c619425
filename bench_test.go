// Package repro holds the top-level benchmark harness: one benchmark per
// table/figure/claim of the paper (see README.md for the experiment
// index) plus performance benchmarks of the core solvers. Regenerate the
// full-size tables with cmd/experiments; these benchmarks exercise the
// same code paths at reduced fidelity so `go test -bench=.` stays fast.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/cfdref"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/power"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// --- T1: Table I ---

func BenchmarkTableIModelBuild(b *testing.B) {
	st := floorplan.Niagara2Tier()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.BuildStack(st, thermal.StackOptions{
			Mode:          thermal.LiquidCooled,
			FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F1: Fig. 1 layouts ---

func BenchmarkFig1Rasterize(b *testing.B) {
	fp := floorplan.NiagaraCoreTier()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Rasterize(16, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F4: fluid focusing ---

func BenchmarkFig4FluidFocus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F6/F7: the policy study (one representative row each) ---

func benchPolicyRun(b *testing.B, cooling core.Cooling, pol string) {
	b.Helper()
	sys, err := core.NewSystem(core.Options{Tiers: 2, Cooling: cooling, Policy: pol, Grid: 8})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.GenerateTrace("web", sys.Threads(), 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6HotspotStudy(b *testing.B) { benchPolicyRun(b, core.Air, "LB") }

func BenchmarkFig7EnergyStudy(b *testing.B) { benchPolicyRun(b, core.Liquid, "LC_FUZZY") }

// --- Scenario-execution subsystem (internal/jobs) ---

// BenchmarkStudyPool measures the 28-scenario Fig. 6/7 study the way
// POST /v1/studies computes it: steps 12, grid 8, the default solver
// backend, on a GOMAXPROCS-wide pool and without a result cache.
func BenchmarkStudyPool(b *testing.B) {
	pool := jobs.NewPool(0)
	opt := exp.Options{Steps: 12, Grid: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunStudyOn(context.Background(), pool, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures serving a memoized scenario from the
// content-addressed result cache (validation + key hash + lookup +
// defensive copy) against re-solving it; the cold solve is primed
// outside the timer.
func BenchmarkCacheHit(b *testing.B) {
	benchCacheHit(b, jobs.Scenario{Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web", Steps: 4, Grid: 8, Seed: 1})
}

// BenchmarkCacheHitFuzzy is BenchmarkCacheHit on the shape of the
// perfbench serve-mix hot set: liquid cooling under the LC_FUZZY
// controller, whose validation must not build the controller.
func BenchmarkCacheHitFuzzy(b *testing.B) {
	benchCacheHit(b, jobs.Scenario{Tiers: 2, Cooling: "liquid", Policy: "LC_FUZZY", Workload: "web", Steps: 10, Grid: 8, Seed: 1})
}

func benchCacheHit(b *testing.B, sc jobs.Scenario) {
	b.Helper()
	cache := jobs.NewCache(0)
	if _, _, err := cache.Metrics(context.Background(), sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, hit, err := cache.Metrics(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		if !hit || m == nil {
			b.Fatal("expected a cache hit")
		}
	}
}

// --- Batched sweep engine (internal/sweep) ---

// sweepBenchCase is the 50-point flow × utilization steady sweep of the
// acceptance criteria: 10 utilizations × 5 flows on the fixed 2-tier
// liquid stack with the factor-once direct backend.
func sweepBenchCase() sweep.SteadySweep {
	return sweep.SteadySweep{
		Tiers: 2, Grid: 16, Solver: "direct",
		Utils:         []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1},
		FlowsMlPerMin: []float64{10, 15, 20, 25, 32.3},
	}
}

// BenchmarkSweepShared measures the 50-point sweep through the engine's
// per-group factor cache: one factorisation per distinct flow (5 total)
// serves all 50 points. Compare against BenchmarkSweepUnshared — the
// ns/op ratio is the factorization-sharing speedup on this machine.
func BenchmarkSweepShared(b *testing.B) {
	eng := &sweep.Engine{Pool: jobs.NewPool(1)} // one worker: isolate sharing from parallelism
	sw := sweepBenchCase()
	for i := 0; i < b.N; i++ {
		rep, err := eng.RunSteady(context.Background(), sw, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 || rep.Prep.Factorizations != len(sw.FlowsMlPerMin) {
			b.Fatalf("sweep: %d errors, %d factorizations", rep.Errors, rep.Prep.Factorizations)
		}
	}
}

// BenchmarkSweepUnshared is the per-scenario baseline: the same 50
// points, each solving on a fresh System with private preparation.
func BenchmarkSweepUnshared(b *testing.B) {
	sw := sweepBenchCase()
	for i := 0; i < b.N; i++ {
		for _, util := range sw.Utils {
			for _, flow := range sw.FlowsMlPerMin {
				sys, err := core.NewSystem(core.Options{Tiers: sw.Tiers, Cooling: core.Liquid, Grid: sw.Grid, Solver: sw.Solver})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Steady(util, flow); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Batched transient sweep engine (lockstep multi-RHS stepping) ---

// transientSweepBatch is the 50-scenario transient policy sweep of the
// acceptance criteria: the paper's flow-control policy comparison —
// the fuzzy controller versus the classical PID loop — across 25 trace
// seeds each, on the 2-tier liquid stack at the default grid with the
// direct backend. Both policies actuate the pump every control
// interval, the regime the lockstep engine targets: the per-scenario
// baseline reassembles and re-touches the factorization on every
// actuation of every scenario, while the batch engine shares each
// distinct (flow, dt) system group-wide and advances all co-located
// scenarios through one blocked multi-RHS solve per step.
func transientSweepBatch() []jobs.Scenario {
	var out []jobs.Scenario
	for _, p := range []string{"LC_FUZZY", "LC_PID"} {
		for seed := int64(1); seed <= 25; seed++ {
			out = append(out, jobs.Scenario{
				Tiers: 2, Cooling: "liquid", Policy: p, Workload: "web",
				Steps: 12, Grid: 16, Solver: "direct", Seed: seed,
			})
		}
	}
	return out
}

// BenchmarkTransientSweepBatched measures the 50-scenario transient
// sweep through the lockstep batch engine (sweep.Engine.RunTransient):
// one worker, one chunk, blocked multi-RHS stepping with group-wide
// factorization and assembly sharing. Compare against
// BenchmarkTransientSweepUnbatched — the ns/op ratio is the lockstep
// batching speedup on this machine.
func BenchmarkTransientSweepBatched(b *testing.B) {
	benchTransientSweep(b, jobs.NewPool(1), 50, true)
}

// benchTransientSweep runs the 50-scenario sweep through the lockstep
// batch engine on pool at the given width, checking every run computed
// without errors and blocked its solves exactly when blocked says it
// should. Each iteration runs on a fresh engine: an engine hands every
// sweep's factorizations and assemblies to the next one, so a reused
// engine would time warm sweeps (BenchmarkTransientSweepWarm times
// those).
func benchTransientSweep(b *testing.B, pool *jobs.Pool, width int, blocked bool) {
	b.Helper()
	batch := transientSweepBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &sweep.Engine{Pool: pool, BatchWidth: width}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 || (rep.Batch.BatchedColumns > 0) != blocked {
			b.Fatalf("sweep: %d errors, batch %+v", rep.Errors, rep.Batch)
		}
	}
}

// BenchmarkTransientSweepUnbatched is the per-scenario baseline: the
// same 50 scenarios through the same engine at width 1 (group-wide
// factorization and assembly sharing, every scenario stepped solo), on
// the same single worker.
func BenchmarkTransientSweepUnbatched(b *testing.B) {
	benchTransientSweep(b, jobs.NewPool(1), 1, false)
}

// BenchmarkTransientSweepPool runs the same 50 scenarios the way
// POST /v1/sweeps does: RunTransient at the default width on a pool
// with one worker per CPU. The one-worker sweep benchmarks above cannot
// show how the group's chunks spread across workers; this one does (the
// 50-scenario group runs as two chunks of 25).
func BenchmarkTransientSweepPool(b *testing.B) {
	benchTransientSweep(b, jobs.NewPool(0), 0, true)
}

// BenchmarkTransientSweepWarm times the path POST /v1/sweeps takes when
// the service has swept before: the 50-scenario sweep with fresh trace
// seeds each iteration, at the default width on a pool with one worker
// per CPU, on one engine warmed by one sweep before the timer starts.
// Each sweep adopts the previous one's factorizations and assemblies;
// the seeds change, so every scenario still computes.
func BenchmarkTransientSweepWarm(b *testing.B) {
	eng := &sweep.Engine{Pool: jobs.NewPool(0)}
	batch := transientSweepBatch()
	run := func(seed0 int64) {
		for k := range batch {
			batch[k].Seed = seed0 + int64(k%25)
		}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 || rep.CacheHits != 0 {
			b.Fatalf("sweep: %d errors, %d cache hits", rep.Errors, rep.CacheHits)
		}
	}
	run(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(int64(i+1)*100 + 1)
	}
}

// --- The results query surface ---

// BenchmarkResultsQuery measures the query surface end to end over the
// 50-row policy sweep: parse the expression, filter + sort + project
// the records, render the table — the full /v1/results/query hot path
// minus HTTP.
func BenchmarkResultsQuery(b *testing.B) {
	eng := &sweep.Engine{Pool: jobs.NewPool(1)}
	rep, err := eng.RunTransient(context.Background(), transientSweepBatch(), nil)
	if err != nil {
		b.Fatal(err)
	}
	records := make([]query.Record, 0, len(rep.Results))
	for _, r := range rep.Results {
		records = append(records, query.FromResult("sw-bench", r))
	}
	formatter, err := query.NewFormatter("table")
	if err != nil {
		b.Fatal(err)
	}
	const expr = "max_temp>60 sort:-pump_power limit:10 fields:index,policy,seed,max_temp,pump_power"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(expr)
		if err != nil {
			b.Fatal(err)
		}
		rows := q.Run(records)
		if len(rows) == 0 || len(rows) > 10 {
			b.Fatalf("query returned %d rows", len(rows))
		}
		if err := formatter.Format(io.Discard, q.Fields, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultsQueryRepeat times the path a repeated query takes:
// serve-mix's query through Server.Handler() (httptest, no network)
// over one registered 256-row sweep, liquid LC_FUZZY on grid 8 for 10
// steps. After the first request every answer comes from the answer
// cache: parse, validate, one lookup, write.
func BenchmarkResultsQueryRepeat(b *testing.B) {
	srv := server.New(server.Options{})
	defer srv.Close()
	h := srv.Handler()
	seeds := make([]int64, 256)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	body, err := json.Marshal(map[string]any{"grid": map[string]any{
		"coolings": []string{"liquid"}, "policies": []string{"LC_FUZZY"},
		"seeds": seeds, "steps": 10, "grid": 8,
	}})
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	target := "/v1/results/query?q=" + url.QueryEscape("max_temp>60 sort:-pump_power limit:10 fields:index,policy,seed,max_temp,pump_power")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
	}
}

// --- F8: two-phase hot-spot test ---

func BenchmarkFig8TwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C1: heat-removal scaling ---

func BenchmarkScalingClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Scaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C2: structure modulation ---

func BenchmarkModulationClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Modulation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C3: pin-fin exploration ---

func BenchmarkPinFinExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PinFin(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C4: compact vs reference. The ns/op ratio of the following pair is
// the reproduction's speed-up figure; BenchmarkSpeedupClaim runs the
// packaged comparison end to end. ---

func speedupFixtures(b *testing.B) (*thermal.StackModel, *cfdref.Reference, [][]float64) {
	return speedupFixturesSolver(b, "")
}

func speedupFixturesSolver(b *testing.B, solver string) (*thermal.StackModel, *cfdref.Reference, [][]float64) {
	b.Helper()
	st := floorplan.Niagara2Tier()
	opt := thermal.StackOptions{
		Mode:          thermal.LiquidCooled,
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		Nx:            12, Ny: 12,
		Solver: solver,
	}
	compact, err := thermal.BuildStack(st, opt)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := cfdref.New(st, opt, 4)
	if err != nil {
		b.Fatal(err)
	}
	utils := make([]float64, st.CoreCount())
	for i := range utils {
		utils[i] = 1
	}
	powers, err := power.NewDefaultModel().StackPowers(st, power.StackState{CoreUtil: utils})
	if err != nil {
		b.Fatal(err)
	}
	return compact, ref, powers
}

func BenchmarkCompactSteady(b *testing.B) {
	compact, _, powers := speedupFixtures(b)
	pm, err := compact.PowerMapFromUnits(powers)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compact.Model.SteadyState(pm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceSteady(b *testing.B) {
	_, ref, powers := speedupFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ref.SteadyUnitTemps(powers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedupClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Speedup(2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C5: two-phase vs water ---

func BenchmarkTwoPhaseVsWater(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TwoPhaseVsWater(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C7: single-phase fluid temperature rise ---

func BenchmarkFluidTemperatureRise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.FluidDT(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver performance ---

// benchTransientStep measures one backward-Euler step of the
// liquid-cooled stack at the given tier count, on the given solver
// backend — the hot path of every scenario's sensing loop.
func benchTransientStep(b *testing.B, tiers int, solver string) {
	b.Helper()
	st := floorplan.Niagara2Tier()
	if tiers == 4 {
		st = floorplan.Niagara4Tier()
	}
	sm, err := thermal.BuildStack(st, thermal.StackOptions{
		Mode:          thermal.LiquidCooled,
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		Solver:        solver,
	})
	if err != nil {
		b.Fatal(err)
	}
	utils := make([]float64, st.CoreCount())
	for i := range utils {
		utils[i] = 0.8
	}
	powers, err := power.NewDefaultModel().StackPowers(st, power.StackState{CoreUtil: utils})
	if err != nil {
		b.Fatal(err)
	}
	pm, err := sm.PowerMapFromUnits(powers)
	if err != nil {
		b.Fatal(err)
	}
	f, err := sm.Model.SteadyState(pm, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sm.Model.NewTransientFrom(0.1, f)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Step(pm); err != nil { // build LHS + workspace outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStep(b *testing.B) { benchTransientStep(b, 2, "") }

func BenchmarkTransientStepDirect(b *testing.B) { benchTransientStep(b, 2, "direct") }

func BenchmarkTransientStep4Tier(b *testing.B) { benchTransientStep(b, 4, "") }

func BenchmarkTransientStep4TierDirect(b *testing.B) { benchTransientStep(b, 4, "direct") }

// activeStepFixture builds the 4-tier liquid stack and a power-map
// factory for the active-regime step benchmarks.
func activeStepFixture(b *testing.B, solver string) (*thermal.StackModel, func(util float64) thermal.PowerMap) {
	b.Helper()
	st := floorplan.Niagara4Tier()
	sm, err := thermal.BuildStack(st, thermal.StackOptions{
		Mode:          thermal.LiquidCooled,
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		Solver:        solver,
	})
	if err != nil {
		b.Fatal(err)
	}
	pmodel := power.NewDefaultModel()
	mkPM := func(util float64) thermal.PowerMap {
		utils := make([]float64, st.CoreCount())
		for i := range utils {
			utils[i] = util
		}
		powers, err := pmodel.StackPowers(st, power.StackState{CoreUtil: utils})
		if err != nil {
			b.Fatal(err)
		}
		pm, err := sm.PowerMapFromUnits(powers)
		if err != nil {
			b.Fatal(err)
		}
		return pm
	}
	return sm, mkPM
}

// benchTransientStepActive alternates between two power maps every
// step — the bang-bang epoch pattern of the management policies. The
// stepper's solved-system memo locks onto the period-2 cycle once the
// state bit-converges: each step then verifies the staged rhs against
// the remembered systems and adopts the accepted solution, so the
// steady regime of a quantised control loop costs a few vector
// compares instead of a solve. BenchmarkTransientStepSolve pins the
// genuine-solve path this memo bypasses.
func benchTransientStepActive(b *testing.B, solver string) {
	b.Helper()
	sm, mkPM := activeStepFixture(b, solver)
	pms := [2]thermal.PowerMap{mkPM(0.3), mkPM(0.9)}
	f, err := sm.Model.SteadyState(pms[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sm.Model.NewTransientFrom(0.1, f)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Step(pms[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(pms[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStepActive(b *testing.B) { benchTransientStepActive(b, "") }

func BenchmarkTransientStepActiveDirect(b *testing.B) { benchTransientStepActive(b, "direct") }

// benchTransientStepSolve drives a non-repeating power drift (97
// distinct levels) so no memo ever hits and every step performs a
// genuine solve: iterative backends iterate from the warm start, the
// direct backend runs its two triangular sweeps. This is the solve-path
// sentinel the solved-system memo must not be allowed to hide.
func benchTransientStepSolve(b *testing.B, solver string) {
	b.Helper()
	sm, mkPM := activeStepFixture(b, solver)
	pms := make([]thermal.PowerMap, 97)
	for i := range pms {
		pms[i] = mkPM(0.3 + 0.6*float64(i)/96)
	}
	f, err := sm.Model.SteadyState(pms[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sm.Model.NewTransientFrom(0.1, f)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Step(pms[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(pms[i%97]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStepSolve(b *testing.B) { benchTransientStepSolve(b, "") }

func BenchmarkTransientStepSolveDirect(b *testing.B) { benchTransientStepSolve(b, "direct") }

// benchFlowChangeStep measures the management loop's actuation step —
// SetFlowPerCavity followed by a transient step — alternating between
// two quantised pump levels, the regime of the paper's flow-control
// policies. With the incremental pipeline the revisited levels hit the
// assembly and preparation memos, so the step costs one genuine solve
// instead of a full re-stamp, re-sort and refactorisation (formerly
// ~10.7 ms on bicgstab and ~126 ms on the direct backend per change).
func benchFlowChangeStep(b *testing.B, solver string) {
	b.Helper()
	sm, mkPM := activeStepFixture(b, solver)
	pm := mkPM(0.8)
	f, err := sm.Model.SteadyState(pm, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sm.Model.NewTransientFrom(0.1, f)
	if err != nil {
		b.Fatal(err)
	}
	flows := [2]float64{units.MlPerMinToM3PerS(32.3), units.MlPerMinToM3PerS(20)}
	for _, q := range flows {
		// Prime both quantised levels outside the timer: the loop then
		// measures the steady actuation regime (memo adoptions + solves),
		// not the first-visit preparations.
		if err := sm.SetFlowPerCavity(q); err != nil {
			b.Fatal(err)
		}
		if err := tr.Step(pm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.SetFlowPerCavity(flows[i%2]); err != nil {
			b.Fatal(err)
		}
		if err := tr.Step(pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowChangeStep(b *testing.B) { benchFlowChangeStep(b, "") }

func BenchmarkFlowChangeStepDirect(b *testing.B) { benchFlowChangeStep(b, "direct") }

// benchFlowChangeFresh cycles through 97 distinct flow levels so every
// change misses the memos and exercises the numeric-refresh pipeline
// itself: cavity-segment restamp on the frozen pattern, in-place
// C/dt+G combination and numeric-only refactorisation of the
// superseded factors.
func benchFlowChangeFresh(b *testing.B, solver string) {
	b.Helper()
	sm, mkPM := activeStepFixture(b, solver)
	pm := mkPM(0.8)
	f, err := sm.Model.SteadyState(pm, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sm.Model.NewTransientFrom(0.1, f)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Step(pm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := units.MlPerMinToM3PerS(20 + float64(i%97)*0.1)
		if err := sm.SetFlowPerCavity(q); err != nil {
			b.Fatal(err)
		}
		if err := tr.Step(pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowChangeFresh(b *testing.B) { benchFlowChangeFresh(b, "") }

func BenchmarkFlowChangeFreshDirect(b *testing.B) { benchFlowChangeFresh(b, "direct") }

// BenchmarkSteadyDirect is BenchmarkCompactSteady on the direct backend:
// the factorisation happens once at the first solve, every subsequent
// steady solve is two triangular sweeps.
func BenchmarkSteadyDirect(b *testing.B) {
	compact, _, powers := speedupFixturesSolver(b, "direct")
	pm, err := compact.PowerMapFromUnits(powers)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := compact.Model.SteadyState(pm, nil); err != nil { // factor outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compact.Model.SteadyState(pm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.WebServer.Generate(32, 300, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSVCharacterization regenerates the §II-B daisy-chain
// characterization campaign (4 demonstrator designs × 200 chains).
func BenchmarkTSVCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TSVStudy(1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitFlow regenerates the §III once-through vs split-flow
// comparison on the Fig. 8 test vehicle.
func BenchmarkSplitFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SplitFlow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefrigerantSelection regenerates the §III candidate
// refrigerant ranking at the 130 W tier duty.
func BenchmarkRefrigerantSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Refrigerants(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodesign regenerates the §II-C electro-thermal co-design
// exploration (full factorial sweep + Pareto front + model validation).
func BenchmarkCodesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Codesign(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudy regenerates the flow-controller ablation
// (LB / LC_TTFLOW / LC_PID / LC_FUZZY on the 2-tier stack).
func BenchmarkAblationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablation(exp.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver ablation: BiCGSTAB vs GMRES(30) on the advective grid ---

// solverBenchSystem assembles a non-symmetric grid system with the same
// structure the cavity model produces (diffusive 5-point stencil plus an
// upwind advective pull), at roughly the 4-tier stack's node count.
func solverBenchSystem(n int) (*mat.Sparse, []float64) {
	b := mat.NewBuilder(n * n)
	idx := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			k := idx(i, j)
			b.Add(k, k, 4.8)
			if i > 0 {
				b.Add(k, idx(i-1, j), -1.8)
			}
			if i < n-1 {
				b.Add(k, idx(i+1, j), -1)
			}
			if j > 0 {
				b.Add(k, idx(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(k, idx(i, j+1), -1)
			}
		}
	}
	a := b.Build()
	rhs := make([]float64, n*n)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	return a, rhs
}

func BenchmarkSolverBiCGSTAB(b *testing.B) {
	a, rhs := solverBenchSystem(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.BiCGSTAB(a, rhs, mat.IterOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverGMRES(b *testing.B) {
	a, rhs := solverBenchSystem(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.GMRES(a, rhs, mat.IterOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverGMRESWithRCMILU(b *testing.B) {
	a, rhs := solverBenchSystem(64)
	perm := mat.RCM(a)
	pa, err := mat.Permute(a, perm)
	if err != nil {
		b.Fatal(err)
	}
	prhs := make([]float64, len(rhs))
	mat.PermuteVec(prhs, rhs, perm)
	ilu, err := mat.NewILU(pa)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.GMRES(pa, prhs, mat.IterOptions{Tol: 1e-8, Precond: ilu}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILUApply measures one ILU(0) preconditioner application —
// a forward and a backward triangular sweep — on the backward-Euler
// left-hand side C/dt + G of the 4-tier liquid stack at grid 8
// (n = 768) and the 0.1 s sensing step, the system the study's
// bicgstab solves precondition.
func BenchmarkILUApply(b *testing.B) {
	sm, err := thermal.BuildStack(floorplan.Niagara4Tier(), thermal.StackOptions{
		Nx: 8, Ny: 8,
		Mode:          thermal.LiquidCooled,
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
	})
	if err != nil {
		b.Fatal(err)
	}
	caps := sm.Model.Capacitances()
	capDt := make([]float64, len(caps))
	for i, c := range caps {
		capDt[i] = c / 0.1
	}
	lhs := sm.Model.ConductanceMatrix().AddDiagonal(capDt)
	ilu, err := mat.NewILU(lhs)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, lhs.N())
	for i := range v {
		v[i] = float64(i%13) - 6
	}
	dst := make([]float64, lhs.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ilu.Apply(dst, v)
	}
}

// --- Fill-reducing orderings on the 4-tier liquid stack system ---

// stackConductance assembles the real 4-tier liquid stack's
// steady-state conductance matrix — the left-hand side the ordering
// benchmarks below factor.
func stackConductance(b *testing.B) *mat.Sparse {
	b.Helper()
	sm, _ := activeStepFixture(b, "direct")
	return sm.Model.ConductanceMatrix()
}

// benchFactorOrdering pins the cold factorisation cost (ordering
// excluded — it is memoised per pattern in production) of one
// fill-reducing ordering on the stack system.
func benchFactorOrdering(b *testing.B, name string) {
	b.Helper()
	a := stackConductance(b)
	ch := mat.OrderMatrix(name, a)
	var fill float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := mat.NewSparseLUOrdered(a, ch)
		if err != nil {
			b.Fatal(err)
		}
		fill = f.FillRatio()
	}
	b.ReportMetric(fill, "fill-ratio")
}

func BenchmarkFactorNatural(b *testing.B) { benchFactorOrdering(b, mat.OrderingNatural) }

func BenchmarkFactorRCM(b *testing.B) { benchFactorOrdering(b, mat.OrderingRCM) }

func BenchmarkFactorAMD(b *testing.B) { benchFactorOrdering(b, mat.OrderingAMD) }

func BenchmarkFactorND(b *testing.B) { benchFactorOrdering(b, mat.OrderingND) }

// BenchmarkSerialRefactor pins the numeric-only refresh of the
// nd-ordered stack factors: one pass of the refactor kernel over the
// frozen fill pattern, which allocates nothing.
func BenchmarkSerialRefactor(b *testing.B) {
	a := stackConductance(b)
	f, err := mat.NewSparseLUOrdered(a, mat.OrderMatrix(mat.OrderingND, a))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Refactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNanofluids regenerates the coolant exploration (water,
// nanofluid loadings, dielectric) on the 2-tier stack.
func BenchmarkNanofluids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Nanofluids(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTierScaling regenerates the tier-count scaling sweep
// (1-6 tiers, air vs inter-tier liquid cooling).
func BenchmarkTierScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TierScaling(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageMargin regenerates the §III transient-storage
// comparison.
func BenchmarkStorageMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Storage(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridStudy regenerates the grid-resolution ablation.
func BenchmarkGridStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.GridStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerCavityStudy regenerates the per-cavity flow-control
// extension comparison on the 4-tier stack.
func BenchmarkPerCavityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PerCavity(exp.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowSweep regenerates the steady flow-rate trade-off figure.
func BenchmarkFlowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.FlowSweep(8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable result store (internal/store) ---

// storeBenchValue is a representative encoded sim.Metrics payload
// (~250 B without a time series), built through the real codec so the
// benchmarks measure what the cache tier actually writes.
func storeBenchValue(b *testing.B) []byte {
	b.Helper()
	return jobs.EncodeMetrics(&sim.Metrics{
		Policy: "LC_FUZZY", Stack: "niagara-2t", Mode: "liquid", Trace: "web",
		PeakTempC: 84.5, ChipEnergyJ: 1234.5, PumpEnergyJ: 17.5, TotalEnergyJ: 1252,
		SimulatedS: 300, Migrations: 12,
		Solver: mat.SolveStats{Backend: "direct", Factorizations: 1, Solves: 3000},
	})
}

// BenchmarkStorePut measures one durable write: WAL append + fsync
// (group commit has no partner here, so this is the worst case) + page
// apply. Dominated by the fsync — this is the per-result durability tax
// the write-through tier pays.
func BenchmarkStorePut(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := storeBenchValue(b)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("scenario/v3:%064d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures a read through the buffer pool with the
// working set resident: index lookup, page pin, entry copy, unpin.
func BenchmarkStoreGet(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := storeBenchValue(b)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("scenario/v3:%064d", i)
		if err := st.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := st.Get(keys[i%len(keys)])
		if err != nil || !ok || len(v) == 0 {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStoreReopen measures a restart with no writes since the last
// checkpoint: Open (META read, segment scan, WAL replay) and Close of a
// clean store holding 512 results on the default options.
func BenchmarkStoreReopen(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	val := storeBenchValue(b)
	for i := 0; i < 512; i++ {
		if err := st.Put(fmt.Sprintf("scenario/v3:%064d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHitDisk measures serving a scenario from the durable
// tier through the full cache path: memory miss, store read, decode,
// promotion. The 1-entry memory cache and two alternating keys force
// every access to the disk tier — compare with BenchmarkCacheHit (the
// memory tier) for the cost of surviving a restart.
func BenchmarkCacheHitDisk(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seed := jobs.NewCache(2)
	seed.SetStore(st)
	scA := jobs.Scenario{Tiers: 2, Cooling: "air", Policy: "LB", Workload: "web", Steps: 4, Grid: 8, Seed: 1}
	scB := scA
	scB.Seed = 2
	for _, sc := range []jobs.Scenario{scA, scB} {
		if _, _, err := seed.Metrics(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
	// Fresh 1-entry cache on the now-populated store: alternating keys
	// evict each other from memory, so every lookup goes to disk.
	cache := jobs.NewCache(1)
	cache.SetStore(st)
	scans := []jobs.Scenario{scA, scB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, hit, err := cache.Metrics(context.Background(), scans[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if !hit || m == nil {
			b.Fatal("expected a store hit")
		}
	}
}
