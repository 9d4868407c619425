package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/jobs"
)

// TestConcurrentSweepsShareEngine is the race/soak check for the shared
// sweep path: several sweeps run simultaneously on ONE engine — one
// pool, one result cache — with overlapping and disjoint scenario sets,
// and every result must be byte-identical to a sequential reference run
// computed without any sharing. Run under -race (the CI race job does)
// this also exercises the factor-cache single-flight, the shared
// SparseLU solves and the result-cache join paths concurrently.
func TestConcurrentSweepsShareEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is not short")
	}
	base := Grid{
		Coolings:  []string{"air", "liquid"},
		Policies:  []string{"LB", "LC_FUZZY"},
		Workloads: []string{"web", "light"},
		Steps:     5,
		Res:       8,
	}
	batches := make([][]jobs.Scenario, 4)
	for b := range batches {
		g := base
		// Each sweep sees a shifted seed pair so the sets overlap without
		// coinciding: sweep b shares seed b+1 with sweep b-1.
		g.Seeds = []int64{int64(b + 1), int64(b + 2)}
		sc, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		batches[b] = sc
	}

	// Sequential, unshared reference for every scenario.
	want := map[string]any{}
	for _, sc := range batches {
		for _, s := range sc {
			k := s.Key()
			if _, ok := want[k]; ok {
				continue
			}
			m, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want[k] = m
		}
	}

	eng := &Engine{Pool: jobs.NewPool(8), Cache: jobs.NewCache(0)}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, len(batches)*rounds)
	reports := make([]*Report, len(batches)*rounds)
	for round := 0; round < rounds; round++ {
		for b := range batches {
			wg.Add(1)
			go func(slot int, sc []jobs.Scenario) {
				defer wg.Done()
				reports[slot], errs[slot] = eng.RunTransient(context.Background(), sc, nil)
			}(round*len(batches)+b, batches[b])
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", slot, err)
		}
	}
	for slot, rep := range reports {
		sc := batches[slot%len(batches)]
		for i, r := range rep.Results {
			if r.Err != nil {
				t.Fatalf("sweep %d scenario %d: %v", slot, i, r.Err)
			}
			if !reflect.DeepEqual(r.Metrics, want[sc[i].Key()]) {
				t.Fatalf("sweep %d scenario %d diverges from the sequential reference", slot, i)
			}
		}
	}
	// Later rounds must have been served from the shared result cache.
	if hits := eng.Cache.Stats().Hits; hits == 0 {
		t.Fatal("no result-cache sharing across concurrent sweeps")
	}
}
