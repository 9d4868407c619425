package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/jobs"
)

// handoffShapes draws k structural shapes — stack, cooling, grid,
// solver and trace length, the fields a lockstep key names — from rng.
func handoffShapes(rng *rand.Rand, k, steps int) []jobs.Scenario {
	out := make([]jobs.Scenario, k)
	for i := range out {
		s := jobs.Scenario{
			Tiers:   []int{2, 4}[rng.Intn(2)],
			Cooling: []string{"air", "liquid"}[rng.Intn(2)],
			Grid:    []int{4, 6, 8, 16}[rng.Intn(4)],
			Solver:  []string{"direct", "bicgstab"}[rng.Intn(2)],
			Steps:   steps,
		}
		if s.Tiers == 4 && s.Grid > 8 {
			s.Grid = 8
		}
		out[i] = s
	}
	return out
}

// handoffBatch draws n scenarios on the given shapes, varying policy
// (the flow-control ones on liquid stacks only), workload and seed:
// batches drawn on one shape share its lockstep key and, through the
// quantised pump levels, most of their matrices.
func handoffBatch(rng *rand.Rand, shapes []jobs.Scenario, n int) []jobs.Scenario {
	policies := []string{"LB", "TDVFS_LB", "LC_FUZZY", "LC_PID"}
	workloads := []string{"web", "db", "mm"}
	out := make([]jobs.Scenario, n)
	for i := range out {
		s := shapes[rng.Intn(len(shapes))]
		if s.Cooling == "liquid" {
			s.Policy = policies[rng.Intn(4)]
		} else {
			s.Policy = policies[rng.Intn(2)]
		}
		s.Workload = workloads[rng.Intn(len(workloads))]
		s.Seed = 1 + rng.Int63n(1000)
		out[i] = s
	}
	return out
}

// handoffBatches returns seeded generated batches: a, b and c share
// lockstep keys (c adds one of d's), d's keys are its own (another
// trace length).
func handoffBatches(seed int64) map[string][]jobs.Scenario {
	rng := rand.New(rand.NewSource(seed))
	shared := handoffShapes(rng, 2, 2+rng.Intn(2))
	other := handoffShapes(rng, 1, 4)
	return map[string][]jobs.Scenario{
		"a": handoffBatch(rng, shared, 6),
		"b": handoffBatch(rng, shared, 6),
		"c": handoffBatch(rng, append(shared, other...), 6),
		"d": handoffBatch(rng, other, 4),
	}
}

// TestRunTransientHandoffMatchesRun pins byte identity across engine
// histories: on seeded generated batches, every sweep's per-scenario
// results equal those of the batch alone on a fresh one-worker engine
// (which the width and worker tests pin to solo jobs.Scenario.Run) — on
// a fresh engine, on an engine warmed by one to three other sweeps (of
// the same and of other lockstep keys), and for two sweeps running
// concurrently on one warmed engine — at one and two workers.
func TestRunTransientHandoffMatchesRun(t *testing.T) {
	for _, seed := range []int64{23, 57, 24} {
		batches := handoffBatches(seed)
		want := map[string][]byte{}
		for name, batch := range batches {
			ref, err := (&Engine{Pool: jobs.NewPool(1)}).RunTransient(context.Background(), batch, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = resultsJSON(t, ref.Results)
		}
		// run returns an error instead of failing the test, so the
		// concurrent sweeps below can call it off the test goroutine.
		run := func(eng *Engine, name string) error {
			rep, err := eng.RunTransient(context.Background(), batches[name], nil)
			if err != nil {
				return err
			}
			got, err := json.Marshal(rep.Results)
			if err != nil {
				return err
			}
			if string(got) != string(want[name]) {
				return fmt.Errorf("batch %s: results differ from a fresh engine's", name)
			}
			return nil
		}
		for _, workers := range []int{1, 2} {
			for _, history := range [][]string{{}, {"b"}, {"d", "b", "c"}} {
				eng := &Engine{Pool: jobs.NewPool(workers)}
				for _, name := range append(history, "a") {
					if err := run(eng, name); err != nil {
						t.Fatalf("seed %d workers %d history %v: %v", seed, workers, history, err)
					}
				}
			}
			eng := &Engine{Pool: jobs.NewPool(workers)}
			if err := run(eng, "c"); err != nil {
				t.Fatal(err)
			}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for k, name := range []string{"a", "b"} {
				wg.Add(1)
				go func(k int, name string) {
					defer wg.Done()
					errs[k] = run(eng, name)
				}(k, name)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("seed %d workers %d concurrent: %v", seed, workers, err)
				}
			}
		}
	}
}

// TestRunTransientHandoffCounters pins what the handoff saves and its
// one-generation bound. Repeating a sweep (no result cache, so it
// recomputes) pays no factorization and no assembly, with identical
// results; after a sweep of other lockstep keys, the engine remembers
// only that one, so the first sweep again pays exactly what it paid on
// a fresh engine — its whole report is byte-identical.
func TestRunTransientHandoffCounters(t *testing.T) {
	batches := handoffBatches(24) // its a runs LC_PID on a grid-16 liquid direct stack
	eng := &Engine{Pool: jobs.NewPool(2)}
	report := func(name string) (*Report, []byte) {
		t.Helper()
		rep, err := eng.RunTransient(context.Background(), batches[name], nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("batch %s: %d errors", name, rep.Errors)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, raw
	}
	first, firstRaw := report("a")
	if first.Prep.Factorizations == 0 || first.Batch.Assemblies.Assemblies == 0 {
		t.Fatalf("fresh sweep paid nothing: prep %+v, assemblies %+v", first.Prep, first.Batch.Assemblies)
	}
	again, _ := report("a")
	if again.Prep.Factorizations != 0 || again.Prep.Refactors != 0 || again.Batch.Assemblies.Assemblies != 0 {
		t.Fatalf("repeated sweep paid prep %+v, assemblies %+v; want none", again.Prep, again.Batch.Assemblies)
	}
	if again.Prep.Shares <= first.Prep.Shares {
		t.Fatalf("repeated sweep shares %d, want more than the fresh sweep's %d", again.Prep.Shares, first.Prep.Shares)
	}
	if string(resultsJSON(t, again.Results)) != string(resultsJSON(t, first.Results)) {
		t.Fatal("repeated sweep's results differ")
	}
	for i := range again.Groups {
		if again.Groups[i].Distinct != first.Groups[i].Distinct {
			t.Fatalf("group %s: %d distinct matrices, fresh sweep %d",
				again.Groups[i].Key, again.Groups[i].Distinct, first.Groups[i].Distinct)
		}
	}
	report("d")
	if _, raw := report("a"); string(raw) != string(firstRaw) {
		t.Fatalf("after a sweep of other keys the report differs from a fresh engine's:\n%s\n%s", raw, firstRaw)
	}
}
