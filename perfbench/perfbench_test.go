package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/signal"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs from the repository root, as the benchmark does: the
// planner reads BENCH_*.json there and the gate reads testdata/golden.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

func TestMixSequenceDependsOnlyOnSeed(t *testing.T) {
	draw := func(seed uint64, phase, client int) []mixOp {
		g := newMixGen(seed, phase, client)
		ops := make([]mixOp, 5000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a := draw(7, 1, 0)
	if !reflect.DeepEqual(a, draw(7, 1, 0)) {
		t.Fatal("one seed gave two request sequences")
	}
	for _, other := range [][]mixOp{draw(8, 1, 0), draw(7, 2, 0), draw(7, 1, 1)} {
		if reflect.DeepEqual(a, other) {
			t.Fatal("distinct seeds, phases or clients gave the same sequence")
		}
	}
	var kinds [3]int
	for _, op := range a {
		kinds[op.kind]++
	}
	if kinds[opHit] < 4300 || kinds[opQuery] < 300 || kinds[opCold] < 20 || kinds[opCold] > 90 {
		t.Errorf("mix of 5000 requests = %v hits/queries/colds, want about 90/9/1%%", kinds)
	}
}

// TestFailedRequestFailsRun: a transport or status failure fails the
// run like a wrong answer does, and adds no throughput; a cancelled
// request only counts as failed.
func TestFailedRequestFailsRun(t *testing.T) {
	p := newPhase(1, 1, 1, 2)
	p.marks = []time.Time{time.Now()}
	p.observe("hit", time.Millisecond, nil)
	p.observe("hit", 0, context.Canceled)
	if p.violation != nil || p.failed != 1 {
		t.Fatalf("cancelled request: violation %v, failed %d", p.violation, p.failed)
	}
	p.observe("hit", 0, errors.New("simulate: status 503"))
	var ce checkError
	if !errors.As(p.violation, &ce) || p.failed != 2 || p.attempted != 3 {
		t.Fatalf("status failure: violation %v, failed %d of %d", p.violation, p.failed, p.attempted)
	}
	if len(p.marks) != 1 || p.count("hit") != 1 {
		t.Errorf("1 success with a window of 2: %d marks, %d hits", len(p.marks), p.count("hit"))
	}
	p.observe("hit", time.Millisecond, nil)
	if len(p.marks) != 2 {
		t.Errorf("2 successes with a window of 2: %d marks", len(p.marks))
	}
}

func TestScenarioSeedsNeverCollide(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []uint64{1, 2} {
		e := &env{seed: seed}
		for _, purpose := range []int{streamSweep, streamCold, streamCorpus} {
			for phase := 0; phase < 2; phase++ {
				for client := 0; client < 2; client++ {
					for k := 0; k < 100; k++ {
						s := e.scenarioSeed(stream(purpose, phase, client), k)
						if seen[s] {
							t.Fatalf("seed %d repeats", s)
						}
						seen[s] = true
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// resources counts what a run could leak: goroutines and open file
// descriptors (listeners and connections included).
func resources(t *testing.T) (goroutines, fds int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("needs /proc/self/fd")
	}
	return runtime.NumGoroutine(), len(ents)
}

// leftovers waits briefly for goroutines and descriptors to return to
// their baseline and fails if they do not, or if the temp root is not
// empty.
func leftovers(t *testing.T, g0, fd0 int, tmp string) {
	t.Helper()
	var g, fd int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if g, fd = resources(t); g <= g0 && fd <= fd0 {
			break
		}
	}
	if g > g0 || fd > fd0 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines %d → %d, descriptors %d → %d\n%s", g0, g, fd0, fd, buf[:runtime.Stack(buf, true)])
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("temp root holds %d entries (%v)", len(ents), err)
	}
}

func TestShortRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	// The first signal.Notify in a process starts os/signal's watcher
	// goroutine for good; start it before the baseline.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	signal.Stop(sig)
	g0, fd0 := resources(t)
	var out, errOut bytes.Buffer
	code := cli([]string{"--workload", "replica-heal", "--seed", "3", "--seconds", "1",
		"--trace-out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct || res.Failed != 0 {
		t.Fatalf("last line %s: %v", lines[len(lines)-1], err)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v)", d.name, v, ok)
		}
	}
	leftovers(t, g0, fd0, tmp)
}

// TestCancelledRunLeavesNothingBehind covers SIGTERM: the signal
// cancels the run's context mid-phase.
func TestCancelledRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	tmp := t.TempDir()
	g0, fd0 := resources(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(4*time.Second, cancel)
	defer timer.Stop()
	cfg := config{w: workloadNamed(t, "serve-mix"), seed: 4, seconds: 60, setups: 1, tmp: tmp, start: time.Now()}
	if _, err := run(ctx, cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("cancelled run reported success")
	}
	leftovers(t, g0, fd0, tmp)
}

// repeats says whether a per-layer metric is an exact count that two
// traced runs with the same seed must reproduce: every per-request
// count, and the planner's cost estimate, but nothing timed and nothing
// the Go runtime schedules.
func repeats(d metricDef) bool {
	switch {
	case d.name == "plan.est_ms":
		return true
	case strings.HasPrefix(d.name, "go."):
		return false
	default:
		return d.unit == "count/req" || d.unit == "count"
	}
}

// TestCountsRepeatExactly runs each workload's traced run twice with
// one seed: every per-request count must match.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	for _, c := range []struct {
		name  string
		units int64
	}{{"policy-compute", 2}, {"serve-mix", 3000}, {"replica-heal", 2}} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]map[string]metricValue
			for i := range got {
				cfg := config{w: workloadNamed(t, c.name), seed: 5, seconds: 1, setups: 1, trace: true,
					units: c.units, tmp: t.TempDir(), traceOut: t.TempDir(), start: time.Now()}
				res, err := run(context.Background(), cfg, &bytes.Buffer{})
				if err != nil || !res.Correct {
					t.Fatalf("traced run: %v %+v", err, res)
				}
				got[i] = res.Metrics
			}
			for _, d := range perLayer {
				if _, ok := got[0][d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
				if repeats(d) && got[0][d.name] != got[1][d.name] {
					t.Errorf("%s: %v then %v", d.name, got[0][d.name].Value, got[1][d.name].Value)
				}
			}
		})
	}
}
