package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/jobs"
)

const (
	// sweepSeeds × the two flow-control policies is the ROADMAP's
	// 50-scenario policy sweep.
	sweepSeeds = 25
	// studyPoints is the Fig. 6/7 matrix: 7 configurations × 4 workload
	// traces.
	studyPoints  = 28
	studyConfigs = 7
)

// policyFixture is policy-compute's memory-only replica.
type policyFixture struct {
	r    *replica
	warm jobs.Scenario // a warm-up sweep point, resident in the cache
}

func setupPolicy(e *env) (fixture, error) {
	r, err := e.openReplica("", nil)
	if err != nil {
		return nil, err
	}
	f := &policyFixture{r: r}
	warm := newPhase(e.seed, 0, 1, 2)
	for _, do := range []func(*env, *phase, int, int) (string, time.Duration, error){f.sweep, f.study} {
		if _, _, err := do(e, warm, 0, 0); err != nil {
			f.close(e)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	f.warm = jobs.Scenario{Cooling: "liquid", Policy: "LC_FUZZY", Solver: "direct", Steps: 12, Grid: 16,
		Seed: e.scenarioSeed(stream(streamSweep, 0, 0), 0)}
	return f, nil
}

// sweep posts the client's j-th 50-scenario policy sweep of the phase.
func (f *policyFixture) sweep(e *env, p *phase, client, j int) (string, time.Duration, error) {
	seeds := make([]int64, sweepSeeds)
	for i := range seeds {
		seeds[i] = e.scenarioSeed(stream(streamSweep, p.index, client), j*sweepSeeds+i)
	}
	body := mustJSON(map[string]any{"grid": map[string]any{
		"coolings": []string{"liquid"},
		"policies": []string{"LC_FUZZY", "LC_PID"},
		"seeds":    seeds,
		"solvers":  []string{"direct"},
		"steps":    12,
		"grid":     16,
	}})
	out, d, err := e.post(f.r.url+"/v1/sweeps", "sweeps", body)
	if err != nil {
		return "sweep", d, err
	}
	var rep struct {
		Scenarios int `json:"scenarios"`
		Errors    int `json:"errors"`
		CacheHits int `json:"cache_hits"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return "sweep", d, violation("sweep report: %v", err)
	}
	if rep.Scenarios != 2*sweepSeeds || rep.Errors != 0 || rep.CacheHits != 0 {
		return "sweep", d, violation("sweep report: %d scenarios, %d errors, %d cache hits; want %d, 0, 0",
			rep.Scenarios, rep.Errors, rep.CacheHits, 2*sweepSeeds)
	}
	p.computed.Add(2 * sweepSeeds)
	return "sweep", d, nil
}

// study posts the client's j-th Fig. 6/7 study of the phase.
func (f *policyFixture) study(e *env, p *phase, client, j int) (string, time.Duration, error) {
	body := mustJSON(map[string]any{"steps": 12, "grid": 8, "seed": e.scenarioSeed(stream(streamStudy, p.index, client), j)})
	out, d, err := e.post(f.r.url+"/v1/studies", "studies", body)
	if err != nil {
		return "study", d, err
	}
	var rep struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(out, &rep); err != nil || len(rep.Results) != studyConfigs {
		return "study", d, violation("study: %d configurations (%v), want %d", len(rep.Results), err, studyConfigs)
	}
	p.computed.Add(studyPoints)
	return "study", d, nil
}

// run alternates sweeps and studies from one client, then checks that
// every requested point was computed fresh: no cache hits anywhere.
func (f *policyFixture) run(e *env, p *phase) error {
	before, err := e.stats(f.r)
	if err != nil {
		return err
	}
	p.loop(e, func(c, i int) (string, time.Duration, error) {
		if i%2 == 0 {
			return f.sweep(e, p, c, i/2)
		}
		return f.study(e, p, c, i/2)
	})
	after, err := e.stats(f.r)
	if err != nil {
		return err
	}
	computed := after["scenarios_computed"] - before["scenarios_computed"]
	hits := after["cache_stats.hits"] - before["cache_stats.hits"]
	if want := float64(p.computed.Load()); computed != want || hits != 0 {
		return violation("policy-compute: %v scenarios computed and %v cache hits, want %v and 0", computed, hits, want)
	}
	return nil
}

func (f *policyFixture) primary() *replica { return f.r }

func (f *policyFixture) resident() (*replica, jobs.Scenario) { return f.r, f.warm }

func (f *policyFixture) close(e *env) error { return e.closeReplica(f.r) }
