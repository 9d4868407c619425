package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/mat"
)

// transientTestBatch is a small but structurally diverse batch: three
// lockstep groups (liquid/direct, air/direct, liquid/bicgstab), flow
// actuation policies that diverge matrices mid-run, and a duplicate
// scenario.
func transientTestBatch() []jobs.Scenario {
	base := jobs.Scenario{Tiers: 2, Cooling: "liquid", Workload: "web", Steps: 3, Grid: 8, Solver: "direct"}
	with := func(mut func(*jobs.Scenario)) jobs.Scenario {
		s := base
		mut(&s)
		return s
	}
	return []jobs.Scenario{
		base,
		with(func(s *jobs.Scenario) { s.Policy = "LC_FUZZY" }),
		with(func(s *jobs.Scenario) { s.Policy = "LC_PID" }),
		with(func(s *jobs.Scenario) { s.Policy = "LC_FUZZY"; s.Seed = 7 }),
		with(func(s *jobs.Scenario) { s.Cooling = "air"; s.Policy = "TDVFS_LB" }),
		with(func(s *jobs.Scenario) { s.Cooling = "air" }),
		with(func(s *jobs.Scenario) { s.Solver = "bicgstab"; s.Policy = "LC_TTFLOW" }),
		base, // duplicate of scenario 0
	}
}

// soloResults is the oracle every transient sweep is held to: each
// scenario run alone through jobs.Scenario.Run, with the result the
// engine must report for it — later copies of a content-identical
// scenario flagged as cache hits — and the batch's solver aggregate.
func soloResults(t *testing.T, batch []jobs.Scenario) ([]Result, mat.SolveStats) {
	t.Helper()
	out := make([]Result, len(batch))
	var agg mat.SolveStats
	seen := map[string]bool{}
	for i, s := range batch {
		n := s.Normalized()
		m, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Result{Index: i, Key: n.Key(), Group: TransientKey(n), Scenario: n, Metrics: m, CacheHit: seen[n.Key()]}
		seen[n.Key()] = true
		agg.Accumulate(m.Solver)
	}
	return out, agg
}

// resultsJSON renders per-scenario outcomes for byte comparison.
func resultsJSON(t *testing.T, rs []Result) []byte {
	t.Helper()
	raw, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunTransientMatchesRun pins the headline equivalence: the lockstep
// batch engine returns byte-identical per-scenario results to solo
// jobs.Scenario.Run, for every batch width and worker count.
func TestRunTransientMatchesRun(t *testing.T) {
	batch := transientTestBatch()
	ref, refSolver := soloResults(t, batch)
	want := resultsJSON(t, ref)
	wantHits := 0
	for _, r := range ref {
		if r.CacheHit {
			wantHits++
		}
	}

	for _, tc := range []struct{ width, workers int }{
		{1, 1}, {2, 1}, {3, 4}, {50, 1}, {50, 4}, {-1, 2},
	} {
		eng := &Engine{Pool: jobs.NewPool(tc.workers), Cache: jobs.NewCache(0), BatchWidth: tc.width}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			t.Fatalf("width=%d workers=%d: %v", tc.width, tc.workers, err)
		}
		if got := resultsJSON(t, rep.Results); string(got) != string(want) {
			t.Fatalf("width=%d workers=%d: results differ from solo runs:\n%s\n%s", tc.width, tc.workers, got, want)
		}
		if rep.Solver != refSolver {
			t.Fatalf("width=%d workers=%d: solver aggregate %+v != %+v", tc.width, tc.workers, rep.Solver, refSolver)
		}
		if rep.CacheHits != wantHits || rep.Errors != 0 {
			t.Fatalf("width=%d workers=%d: hits=%d errors=%d (want hits=%d)",
				tc.width, tc.workers, rep.CacheHits, rep.Errors, wantHits)
		}
	}
}

// TestRunTransientWidthRule pins the width rule on one batch holding a
// 50-scenario direct group, a 9-scenario bicgstab group and a
// 5-scenario gmres group: the direct group runs as two even chunks of
// 25, every iterative scenario as a chunk of its own, and every result
// is byte-identical to a solo run.
func TestRunTransientWidthRule(t *testing.T) {
	var batch []jobs.Scenario
	add := func(solver string, n int) {
		for seed := int64(1); seed <= int64(n); seed++ {
			batch = append(batch, jobs.Scenario{
				Tiers: 2, Cooling: "liquid", Policy: "LC_FUZZY", Workload: "web",
				Steps: 2, Grid: 8, Solver: solver, Seed: seed,
			})
		}
	}
	add("direct", 50)
	add("bicgstab", 9)
	add("gmres", 5)
	eng := &Engine{Pool: jobs.NewPool(2), Cache: jobs.NewCache(0)}
	rep, err := eng.RunTransient(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || len(rep.Groups) != 3 {
		t.Fatalf("%d errors, %d groups", rep.Errors, len(rep.Groups))
	}
	if want := 2 + 9 + 5; rep.Batch.Chunks != want {
		t.Fatalf("%d chunks, want %d (direct 25+25, iterative solo)", rep.Batch.Chunks, want)
	}
	if rep.Batch.BatchSolves == 0 {
		t.Fatalf("direct chunks never blocked: %+v", rep.Batch.BatchStats)
	}
	ref, _ := soloResults(t, batch)
	for i, r := range rep.Results {
		if got, want := resultsJSON(t, []Result{r}), resultsJSON(t, ref[i:i+1]); string(got) != string(want) {
			t.Fatalf("scenario %d (%s): result differs from its solo run:\n%s\n%s", i, r.Scenario.Solver, got, want)
		}
	}
}

// TestRunTransientWidthInvariantReports pins full-report determinism for
// a fixed width across worker counts (the Batch section varies only
// with the chunking, never with scheduling).
func TestRunTransientWidthInvariantReports(t *testing.T) {
	batch := transientTestBatch()
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		eng := &Engine{Pool: jobs.NewPool(workers), Cache: jobs.NewCache(0), BatchWidth: 4}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
			continue
		}
		if string(raw) != string(want) {
			t.Fatalf("workers=%d: full report differs:\n%s\n%s", workers, raw, want)
		}
	}
}

// TestRunTransientBatching checks the sweep actually locksteps: one
// structural group of many scenarios reports blocked multi-RHS solves,
// factorization sharing and assembly sharing.
func TestRunTransientBatching(t *testing.T) {
	var batch []jobs.Scenario
	for seed := int64(1); seed <= 8; seed++ {
		batch = append(batch, jobs.Scenario{
			Tiers: 2, Cooling: "liquid", Policy: "LC_FUZZY", Workload: "web",
			Steps: 3, Grid: 8, Solver: "direct", Seed: seed,
		})
	}
	eng := &Engine{Pool: jobs.NewPool(1), Cache: jobs.NewCache(0), BatchWidth: 8}
	rep, err := eng.RunTransient(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("want one lockstep group, got %d", len(rep.Groups))
	}
	b := rep.Batch
	if b == nil || b.Chunks != 1 {
		t.Fatalf("batch section %+v", b)
	}
	if b.BatchSolves == 0 || b.BatchedColumns <= b.BatchSolves {
		t.Fatalf("no blocked multi-RHS stepping: %+v", b.BatchStats)
	}
	if b.Assemblies.Shares == 0 {
		t.Fatalf("no assembly sharing: %+v", b.Assemblies)
	}
	if rep.Prep.Shares == 0 {
		t.Fatalf("no factorization sharing: %+v", rep.Prep)
	}
	// Every scenario's solver counters rode through untouched: the
	// logical totals must match what an unshared run would report.
	for _, r := range rep.Results {
		if r.Metrics == nil || r.Metrics.Solver.Solves == 0 {
			t.Fatalf("scenario %d missing solver stats", r.Index)
		}
	}
}

// TestRunTransientCacheFill checks batch-aware result-cache fills: a
// second identical sweep is served entirely from the cache, and the
// cached metrics equal the computed ones.
func TestRunTransientCacheFill(t *testing.T) {
	batch := transientTestBatch()
	cache := jobs.NewCache(0)
	eng := &Engine{Pool: jobs.NewPool(2), Cache: cache, BatchWidth: 4}
	first, err := eng.RunTransient(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.RunTransient(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.Scenarios {
		t.Fatalf("second sweep: %d/%d cache hits", second.CacheHits, second.Scenarios)
	}
	for i := range first.Results {
		a, b := first.Results[i].Metrics, second.Results[i].Metrics
		if a == nil || b == nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %d: cached metrics differ", i)
		}
	}
}

// TestRunTransientStreams checks the streaming callback observes every
// result exactly once, matching the report.
func TestRunTransientStreams(t *testing.T) {
	batch := transientTestBatch()
	eng := &Engine{Pool: jobs.NewPool(2), Cache: jobs.NewCache(0)}
	seen := map[int]int{}
	rep, err := eng.RunTransient(context.Background(), batch, func(r Result) {
		seen[r.Index]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != rep.Scenarios {
		t.Fatalf("streamed %d of %d results", len(seen), rep.Scenarios)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("result %d streamed %d times", i, n)
		}
	}
}

// TestRunTransientCancel checks context cancellation surfaces like Run.
func TestRunTransientCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Pool: jobs.NewPool(1)}
	if _, err := eng.RunTransient(ctx, transientTestBatch(), nil); err == nil {
		t.Fatal("canceled sweep did not fail")
	}
}

// TestRunTransientFailFast checks the fail-fast path: the first
// scenario failure (an injected compute fault — validation rejects
// every scenario that would fail to build) cancels the batch, the
// report carries the root cause, and skipped scenarios are labeled.
func TestRunTransientFailFast(t *testing.T) {
	var batch []jobs.Scenario
	for seed := int64(1); seed <= 6; seed++ {
		batch = append(batch, jobs.Scenario{
			Tiers: 2, Cooling: "air", Workload: "web", Steps: 2, Grid: 8, Solver: "direct", Seed: seed,
		})
	}
	// The scenarios are direct, so they chunk at the engine width: one
	// worker runs the width-2 chunks {0,1}, {2,3}, {4,5} in order
	// and builds each chunk's runners in key order, so the third build
	// — the one the fault hits — is whichever of 2 and 3 has the
	// smaller key.
	failed := 2
	if batch[3].Key() < batch[2].Key() {
		failed = 3
	}
	t.Cleanup(fault.Disable)
	fault.Enable(fault.New(1, fault.Rule{Point: "jobs.compute", Mode: fault.ModeError, After: 2, Times: 1}))
	eng := &Engine{Pool: jobs.NewPool(1), FailFast: true, BatchWidth: 2, PrepEntries: -1}
	rep, err := eng.RunTransient(context.Background(), batch, nil)
	var injected *fault.Error
	if !errors.As(err, &injected) {
		t.Fatalf("fail-fast sweep error = %v, want the injected fault", err)
	}
	if rep == nil || rep.Errors == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if first := rep.FirstFailure(); first != failed {
		t.Fatalf("FirstFailure = %d, want %d", first, failed)
	}
	for i, r := range rep.Results {
		switch {
		case i < 2:
			if r.Err != nil {
				t.Errorf("scenario %d ran before the failure but failed: %v", i, r.Err)
			}
		case i == failed:
			if !errors.As(r.Err, &injected) {
				t.Errorf("failing scenario %d error = %v", i, r.Err)
			}
		default:
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("scenario %d after the failure: error %v, want a cancellation", i, r.Err)
			}
		}
	}
}

// TestRunTransientConcurrentOverlap runs two sweeps with overlapping
// scenario sets in opposite orders concurrently on one shared result
// cache. The chunks reserve their single-flight slots in global key
// order, so the cross-sweep joins cannot form a hold-and-wait cycle —
// this test deadlocks (and times out) if that ordering discipline is
// ever lost.
func TestRunTransientConcurrentOverlap(t *testing.T) {
	var fwd []jobs.Scenario
	for seed := int64(1); seed <= 6; seed++ {
		fwd = append(fwd, jobs.Scenario{
			Tiers: 2, Cooling: "air", Workload: "web", Steps: 1, Grid: 8, Seed: seed,
		})
	}
	rev := make([]jobs.Scenario, len(fwd))
	for i := range fwd {
		rev[len(fwd)-1-i] = fwd[i]
	}
	for round := 0; round < 5; round++ {
		cache := jobs.NewCache(0)
		eng := &Engine{Pool: jobs.NewPool(4), Cache: cache, BatchWidth: 2}
		done := make(chan error, 2)
		for _, batch := range [][]jobs.Scenario{fwd, rev} {
			batch := batch
			go func() {
				_, err := eng.RunTransient(context.Background(), batch, nil)
				done <- err
			}()
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("concurrent overlapping sweeps deadlocked")
			}
		}
	}
}

// TestEvenChunks pins the chunk rule: the fewest chunks of at most the
// width, sizes differing by at most one, concatenating to the group's
// members in order.
func TestEvenChunks(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 32, 33, 50, 64, 65, 256} {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = 3*i + 1 // distinct from positions, so order is checked on values
		}
		for _, w := range []int{1, 2, 4, 32} {
			chunks := evenChunks(idxs, w)
			if want := (n + w - 1) / w; len(chunks) != want {
				t.Fatalf("n=%d w=%d: %d chunks, want %d", n, w, len(chunks), want)
			}
			lo, hi := n, 0
			var joined []int
			for _, c := range chunks {
				lo, hi = min(lo, len(c)), max(hi, len(c))
				joined = append(joined, c...)
			}
			if hi > w {
				t.Fatalf("n=%d w=%d: chunk of %d members exceeds the width", n, w, hi)
			}
			if hi-lo > 1 {
				t.Fatalf("n=%d w=%d: chunk sizes range %d..%d, want within one", n, w, lo, hi)
			}
			if !reflect.DeepEqual(joined, idxs) {
				t.Fatalf("n=%d w=%d: chunks do not concatenate to the group's order", n, w)
			}
		}
	}
}

// TestRunTransientEvenChunksPolicySweep runs the shape of the
// 50-scenario policy sweep (one lockstep group, two policies × 25
// seeds) at the default width: it splits into two chunks of 25, so its
// report is byte-identical to the same sweep at width 25 — a 32+18
// split would group the scenarios differently and move the batch
// counters.
func TestRunTransientEvenChunksPolicySweep(t *testing.T) {
	var batch []jobs.Scenario
	for _, p := range []string{"LC_FUZZY", "LC_PID"} {
		for seed := int64(1); seed <= 25; seed++ {
			batch = append(batch, jobs.Scenario{
				Tiers: 2, Cooling: "liquid", Policy: p, Workload: "web",
				Steps: 2, Grid: 8, Solver: "direct", Seed: seed,
			})
		}
	}
	report := func(width, workers int) (*Report, []byte) {
		t.Helper()
		eng := &Engine{Pool: jobs.NewPool(workers), Cache: jobs.NewCache(0), BatchWidth: width}
		rep, err := eng.RunTransient(context.Background(), batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || len(rep.Groups) != 1 {
			t.Fatalf("width=%d: %d errors, %d groups", width, rep.Errors, len(rep.Groups))
		}
		if rep.Batch.Chunks != 2 {
			t.Fatalf("width=%d: %d chunks, want 2", width, rep.Batch.Chunks)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, raw
	}
	def, defRaw := report(0, 2)
	even, evenRaw := report(25, 1)
	if string(defRaw) != string(evenRaw) {
		t.Fatalf("default-width report differs from the 25+25 split: batch %+v, want %+v",
			*def.Batch, *even.Batch)
	}
}
