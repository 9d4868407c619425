package repro

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/sweep"
	"repro/internal/twophase"
)

// update regenerates the golden corpus:
//
//	go test . -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden expectations")

// goldenTolC is the regression tolerance on the pinned temperatures.
// The simulation pipeline is deterministic, so any drift past it means
// the physics changed — a fast-but-wrong refactor cannot ride through.
const goldenTolC = 1e-4

// goldenCase is one versioned scenario of the regression corpus
// (testdata/golden/*.json): a fully specified simulation — transient
// co-simulation, steady operating point, or two-phase evaporator march —
// with its expected peak and average temperatures.
type goldenCase struct {
	// Name identifies the case; the filename is <name>.json.
	Name string `json:"name"`
	// Kind selects the pipeline: "transient", "transient-sweep",
	// "steady" or "twophase".
	Kind string `json:"kind"`
	// Scenario specifies a transient co-simulation run (kind
	// "transient"); Record must be set so the average is well defined.
	Scenario *jobs.Scenario `json:"scenario,omitempty"`
	// Sweep specifies a lockstep transient sweep (kind
	// "transient-sweep"): the scenarios run as one batch through
	// sweep.Engine.RunTransient; every scenario must set Record. The
	// pinned peak is the batch maximum, the pinned average the mean of
	// the per-scenario time averages.
	Sweep []jobs.Scenario `json:"sweep,omitempty"`
	// Steady specifies a steady operating point (kind "steady").
	Steady *goldenSteady `json:"steady,omitempty"`
	// TwoPhaseSteps is the axial station count of the Fig. 8
	// micro-evaporator march (kind "twophase").
	TwoPhaseSteps int `json:"twophase_steps,omitempty"`
	// Expect pins the outputs.
	Expect goldenExpect `json:"expect"`
}

type goldenSteady struct {
	Tiers        int     `json:"tiers"`
	Cooling      string  `json:"cooling"`
	Grid         int     `json:"grid"`
	Solver       string  `json:"solver,omitempty"`
	Util         float64 `json:"util"`
	FlowMlPerMin float64 `json:"flow_ml_min,omitempty"`
}

type goldenExpect struct {
	// PeakC is the hottest temperature of the run (junction peak for
	// the stacks, heater-face peak for the evaporator).
	PeakC float64 `json:"peak_c"`
	// AvgC is the matching average: time-averaged junction peak for
	// transient runs, across-tier peak average for steady points, mean
	// heater-face temperature for the evaporator.
	AvgC float64 `json:"avg_c"`
}

// evalGolden runs one corpus case and returns its (peak, avg).
func evalGolden(c goldenCase) (float64, float64, error) {
	switch c.Kind {
	case "transient":
		if c.Scenario == nil {
			return 0, 0, fmt.Errorf("transient case without scenario")
		}
		if !c.Scenario.Record {
			return 0, 0, fmt.Errorf("transient case must set record for the time average")
		}
		m, err := c.Scenario.Run(context.Background())
		if err != nil {
			return 0, 0, err
		}
		if len(m.Series) == 0 {
			return 0, 0, fmt.Errorf("no time series recorded")
		}
		sum := 0.0
		for _, s := range m.Series {
			sum += s.PeakC
		}
		return m.PeakTempC, sum / float64(len(m.Series)), nil
	case "transient-sweep":
		if len(c.Sweep) < 2 {
			return 0, 0, fmt.Errorf("transient-sweep case needs at least two scenarios")
		}
		for i, s := range c.Sweep {
			if !s.Record {
				return 0, 0, fmt.Errorf("sweep scenario %d must set record for the time average", i)
			}
		}
		eng := &sweep.Engine{Pool: jobs.NewPool(2)}
		rep, err := eng.RunTransient(context.Background(), c.Sweep, nil)
		if err != nil {
			return 0, 0, err
		}
		peak, avgSum := math.Inf(-1), 0.0
		for _, r := range rep.Results {
			if r.Err != nil {
				return 0, 0, fmt.Errorf("scenario %d: %w", r.Index, r.Err)
			}
			m := r.Metrics
			if m.PeakTempC > peak {
				peak = m.PeakTempC
			}
			if len(m.Series) == 0 {
				return 0, 0, fmt.Errorf("scenario %d recorded no series", r.Index)
			}
			sum := 0.0
			for _, s := range m.Series {
				sum += s.PeakC
			}
			avgSum += sum / float64(len(m.Series))
		}
		return peak, avgSum / float64(len(rep.Results)), nil
	case "steady":
		if c.Steady == nil {
			return 0, 0, fmt.Errorf("steady case without operating point")
		}
		cooling, err := jobs.ParseCooling(c.Steady.Cooling)
		if err != nil {
			return 0, 0, err
		}
		sys, err := core.NewSystem(core.Options{
			Tiers: c.Steady.Tiers, Cooling: cooling,
			Grid: c.Steady.Grid, Solver: c.Steady.Solver,
		})
		if err != nil {
			return 0, 0, err
		}
		snap, err := sys.Steady(c.Steady.Util, c.Steady.FlowMlPerMin)
		if err != nil {
			return 0, 0, err
		}
		sum := 0.0
		for _, t := range snap.TierPeakC {
			sum += t
		}
		return snap.PeakC, sum / float64(len(snap.TierPeakC)), nil
	case "twophase":
		ev := twophase.TestVehicle()
		res, err := ev.March(twophase.StepProfile(ev.Length, twophase.TestVehicleFlux()), c.TwoPhaseSteps)
		if err != nil {
			return 0, 0, err
		}
		peak, sum := math.Inf(-1), 0.0
		for _, s := range res.Samples {
			if s.BaseC > peak {
				peak = s.BaseC
			}
			sum += s.BaseC
		}
		return peak, sum / float64(len(res.Samples)), nil
	default:
		return 0, 0, fmt.Errorf("unknown kind %q", c.Kind)
	}
}

// TestGolden compares every corpus scenario against its pinned
// temperatures at 1e-4 °C; -update regenerates the expectations.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("golden corpus holds %d cases, want >= 10", len(files))
	}
	sort.Strings(files)
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var c goldenCase
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatalf("parse: %v", err)
			}
			peak, avg, err := evalGolden(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if *update {
				c.Expect = goldenExpect{PeakC: peak, AvgC: avg}
				out, err := json.MarshalIndent(&c, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if d := math.Abs(peak - c.Expect.PeakC); d > goldenTolC {
				t.Errorf("%s: peak %.6f °C, golden %.6f °C (drift %.2g)", c.Name, peak, c.Expect.PeakC, d)
			}
			if d := math.Abs(avg - c.Expect.AvgC); d > goldenTolC {
				t.Errorf("%s: avg %.6f °C, golden %.6f °C (drift %.2g)", c.Name, avg, c.Expect.AvgC, d)
			}
		})
	}
}

// TestGoldenSweepBatchInvariance pins the lockstep engine's equivalence
// claim on the golden sweep corpus: for every transient-sweep case, the
// batched metrics are bit-for-bit identical to solo per-scenario
// stepping, at every batch width and worker count.
func TestGoldenSweepBatchInvariance(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "sweep-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("sweep golden corpus holds %d cases, want >= 6", len(files))
	}
	sort.Strings(files)
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var c goldenCase
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatalf("parse: %v", err)
			}
			if c.Kind != "transient-sweep" {
				t.Fatalf("sweep-*.json file of kind %q", c.Kind)
			}
			// Solo reference: every scenario stepped independently.
			solo := make([][]byte, len(c.Sweep))
			for i, s := range c.Sweep {
				m, err := s.Run(context.Background())
				if err != nil {
					t.Fatalf("scenario %d: %v", i, err)
				}
				if solo[i], err = json.Marshal(m); err != nil {
					t.Fatal(err)
				}
			}
			for _, tc := range []struct{ width, workers int }{
				{1, 1}, {3, 2}, {64, 1},
			} {
				eng := &sweep.Engine{Pool: jobs.NewPool(tc.workers), BatchWidth: tc.width}
				rep, err := eng.RunTransient(context.Background(), c.Sweep, nil)
				if err != nil {
					t.Fatalf("width=%d: %v", tc.width, err)
				}
				for i, r := range rep.Results {
					if r.Err != nil {
						t.Fatalf("width=%d scenario %d: %v", tc.width, i, r.Err)
					}
					got, err := json.Marshal(r.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(solo[i]) {
						t.Fatalf("width=%d workers=%d scenario %d: batched metrics differ from solo stepping",
							tc.width, tc.workers, i)
					}
				}
			}
		})
	}
}

// TestPlannedSweepByteIdentical pins the chunking plan RunTransient
// makes on its own — the width rule at the default BatchWidth: direct
// groups in even chunks of at most DefaultBatchWidth, every bicgstab and
// gmres scenario a chunk of one. On the golden sweep corpus the plan's
// chunk count follows the rule, and every scenario's metrics are
// byte-identical to the unchunked engine (BatchWidth 1, one worker)
// across worker counts: the plan may only change how soon the bytes
// arrive, never which bytes.
func TestPlannedSweepByteIdentical(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "sweep-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("sweep golden corpus holds %d cases, want >= 6", len(files))
	}
	sort.Strings(files)
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var c goldenCase
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatal(err)
			}
			if c.Kind != "transient-sweep" {
				t.Fatalf("sweep-*.json of kind %q", c.Kind)
			}

			ref, err := (&sweep.Engine{Pool: jobs.NewPool(1), BatchWidth: 1}).
				RunTransient(context.Background(), c.Sweep, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, len(ref.Results))
			for i, r := range ref.Results {
				if r.Err != nil {
					t.Fatalf("reference scenario %d: %v", i, r.Err)
				}
				if want[i], err = json.Marshal(r.Metrics); err != nil {
					t.Fatal(err)
				}
			}

			solver := map[string]string{}
			for _, s := range c.Sweep {
				solver[sweep.TransientKey(s)] = s.Normalized().Solver
			}
			for _, workers := range []int{1, 2, 3} {
				rep, err := (&sweep.Engine{Pool: jobs.NewPool(workers)}).
					RunTransient(context.Background(), c.Sweep, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				chunks := 0
				for _, g := range rep.Groups {
					if solver[g.Key] == mat.BackendDirect {
						chunks += (g.Scenarios + sweep.DefaultBatchWidth - 1) / sweep.DefaultBatchWidth
					} else {
						chunks += g.Scenarios
					}
				}
				if rep.Batch.Chunks != chunks {
					t.Fatalf("workers=%d: %d chunks, the width rule gives %d", workers, rep.Batch.Chunks, chunks)
				}
				for i, r := range rep.Results {
					if r.Err != nil {
						t.Fatalf("workers=%d scenario %d: %v", workers, i, r.Err)
					}
					got, err := json.Marshal(r.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want[i]) {
						t.Fatalf("workers=%d scenario %d: planned metrics differ from unchunked", workers, i)
					}
				}
			}
		})
	}
}

// TestPlannedSweepCorpusCoverage keeps the golden corpus honest about
// the width rule's decision space: the corpus must exercise both cooling
// modes and every solver backend, so the byte-identity sweep above
// covers the blocked direct chunks and the solo iterative ones on the
// liquid (multi-LHS) and air (two-LHS) paths alike.
func TestPlannedSweepCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "sweep-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var c goldenCase
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Sweep {
			s = s.Normalized()
			seen[s.Cooling] = true
			seen[s.Solver] = true
		}
	}
	for _, want := range append([]string{"air", "liquid"}, mat.Backends()...) {
		if !seen[want] {
			t.Fatalf("no golden sweep case exercises %s", want)
		}
	}
}
