// Command perfbench is the repository's end-to-end benchmark. It runs
// the thermal service (server.New, with the options thermal-server
// sets by default) in its own process on loopback listeners, drives a
// seeded closed-loop workload over real HTTP, checks every answer and
// prints the metrics BENCHMARK.json names, the last line as JSON:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// It must run from the repository root: the service's sweep planner
// loads its cost model from the BENCH_*.json there, and the
// correctness gate reads testdata/golden. README.md beside this file
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// processStart stands in for the process start: package variables are
// initialised before main runs.
var processStart = time.Now()

// runLimit bounds one workload's whole run, set-up and cleanup included.
const runLimit = 170 * time.Second

// workload is one named traffic mix. main and side name the request
// classes behind main_p50_ms and side_p50_ms.
type workload struct {
	name       string
	clients    int
	window     int   // successful operations per req_per_s window
	traceUnits int64 // traced-run phase size: requests, or rounds for replica-heal
	main, side string
	setup      func(*env) (fixture, error)
}

// fixture is a set-up workload, ready for timed phases.
type fixture interface {
	run(e *env, p *phase) error
	primary() *replica                   // the replica the gate and the planner check use
	resident() (*replica, jobs.Scenario) // a scenario resident in that replica's memory cache
	close(e *env) error
}

// workloads is the benchmark suite, as BENCHMARK.json lists it. The
// req_per_s windows are a sweep+study pair, about a fifth of a second
// of serve-mix traffic, and two replica-heal rounds (a restart and a
// pass over the corpus each).
var workloads = []workload{
	{name: "policy-compute", clients: 1, window: 2, traceUnits: 8, main: "sweep", side: "study", setup: setupPolicy},
	{name: "serve-mix", clients: 2, window: 2000, traceUnits: 20000, main: "hit", side: "query", setup: setupServeMix},
	{name: "replica-heal", clients: 2, window: 2 * (2*corpusSeeds + 1), traceUnits: 40, main: "store_hit", side: "reopen", setup: setupHeal},
}

// setupRuns is the number of set-ups of an untraced run; setup_s is
// their median.
const setupRuns = 3

type config struct {
	w        workload
	seed     uint64
	seconds  int
	setups   int // set-ups of an untraced run
	trace    bool
	units    int64     // traced-run phase size; 0 = the workload's traceUnits
	tmp      string    // temp root; every store directory lives below it
	traceOut string    // directory for the traced run's spans
	start    time.Time // start of the first set-up's clock
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "policy-compute, serve-mix, replica-heal or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}

	deadline := processStart.Add(time.Duration(len(selected)) * runLimit)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// Cleanup is bounded too: should it hang past the deadline, remove
	// the temp dirs and exit, which ends every in-process replica.
	watchdog := time.AfterFunc(time.Until(deadline)+5*time.Second, func() {
		os.RemoveAll(tmp)
		fmt.Fprintln(stderr, "perfbench: cleanup overran the deadline")
		os.Exit(3)
	})
	defer watchdog.Stop()

	code := 0
	start := processStart
	for _, w := range selected {
		cfg := config{w: w, seed: *seed, seconds: *seconds, setups: setupRuns, trace: *traced == 1,
			tmp: tmp, traceOut: *traceOut, start: start}
		res, err := run(ctx, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
		start = time.Now()
	}
	return code
}

// run measures one workload. A wrong answer yields a result with
// Correct false; an error means the run could not complete.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp(cfg.tmp, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := newEnv(ctx, cfg.seed, tmp)
	defer e.closeAll()
	prov := newProvenance(cfg, tmp)
	var res *result
	if cfg.trace {
		res, err = runTraced(e, cfg, prov, out)
	} else {
		res, err = runTimed(e, cfg, prov, out)
	}
	var ce checkError
	if errors.As(err, &ce) {
		fmt.Fprintf(out, "%s: CHECK FAILED: %v\n", cfg.w.name, err)
		if res == nil {
			res = &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
		}
		res.Correct = false
		err = nil
	}
	if err == nil {
		if cerr := e.closeAll(); cerr != nil {
			return nil, cerr
		}
		err = ctx.Err()
	}
	return res, err
}

// setupFixture sets the workload up; the first set-up of a run also
// passes the correctness gate.
func setupFixture(e *env, cfg config, gate bool) (fixture, error) {
	fx, err := cfg.w.setup(e)
	if err != nil || !gate {
		return fx, err
	}
	if err := e.gate(fx.primary()); err != nil {
		fx.close(e)
		return nil, violation("correctness gate: %v", err)
	}
	return fx, nil
}

// finish refuses a fixture whose planner self-calibrated, records the
// planner's provenance and closes the fixture.
func (e *env) finish(fx fixture, prov *provenance) error {
	perr := prov.readPlanner(e, fx.primary())
	if err := fx.close(e); err != nil {
		return err
	}
	return perr
}

// runTimed is the untraced run: set up cfg.setups times, then measure
// one timed phase on the last fixture.
func runTimed(e *env, cfg config, prov *provenance, out io.Writer) (*result, error) {
	heap := startHeapPeak()
	peakMB := heap.stop // idempotent; the deferred call covers early returns
	defer peakMB()
	var setups []float64
	var fx fixture
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		var err error
		if fx, err = setupFixture(e, cfg, i == 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := e.finish(fx, prov); err != nil {
				return nil, err
			}
		}
	}
	p := newPhase(cfg.seed, 1, cfg.w.clients, cfg.w.window)
	p.until = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	runErr := p.timed(e, fx)
	if err := e.finish(fx, prov); err != nil && runErr == nil {
		runErr = err
	}
	peak := peakMB()
	if runErr == nil && p.violation != nil {
		runErr = p.violation
	}
	var ce checkError
	if runErr != nil && !errors.As(runErr, &ce) {
		return nil, runErr
	}

	w := cfg.w
	m := map[string]metricValue{
		"setup_s":      {median(setups), "s"},
		"req_per_s":    {p.rate(), "1/s"},
		"main_p50_ms":  {median(p.samples(w.main)), "ms"},
		"side_p50_ms":  {median(p.samples(w.side)), "ms"},
		"peak_heap_mb": {peak, "MB"},
	}
	for _, d := range endToEnd {
		if v := m[d.name].Value; !(v > 0) && runErr == nil {
			runErr = violation("%s reads %v; every end-to-end metric must be positive", d.name, v)
		}
	}
	prov.print(out)
	fmt.Fprintf(out, "%s: %d operations attempted, %d failed, %d clients, %.1f s timed\n",
		w.name, p.attempted, p.failed, p.clients, p.wall.Seconds())
	for _, d := range endToEnd {
		var n string
		switch d.name {
		case "setup_s":
			n = fmt.Sprintf("median of %d set-ups", len(setups))
		case "req_per_s":
			n = fmt.Sprintf("median of %d windows of %d operations", len(p.marks)-1, p.window)
		case "main_p50_ms":
			n = fmt.Sprintf("n=%d, %s_p50_ms", p.count(w.main), w.main)
		case "side_p50_ms":
			n = fmt.Sprintf("n=%d, %s_p50_ms", p.count(w.side), w.side)
		case "peak_heap_mb":
			n = "peak live heap, whole process"
		}
		fmt.Fprintf(out, "  %-14s %12.4f %-4s %s\n", d.name, m[d.name].Value, d.unit, n)
	}
	printClasses(out, p)
	if w.name == "policy-compute" {
		fmt.Fprintf(out, "  %-22s %10.4f 1/s  n=%d scenarios\n", "scenarios_per_s",
			rate(int(p.computed.Load()), p.wall), p.computed.Load())
	}
	return &result{Correct: runErr == nil, Attempted: p.attempted, Failed: p.failed, Metrics: m}, runErr
}

// printClasses prints each request class under the name the workload
// definition uses (sweep_p50_ms, cold_p50_ms, ...): median, quartiles,
// and the highest percentile up to p99 that has 10 samples beyond it.
func printClasses(out io.Writer, p *phase) {
	classes := make([]string, 0, len(p.lat))
	for c := range p.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := p.samples(c)
		line := fmt.Sprintf("  %-22s %10.4f ms   n=%d", c+"_p50_ms", median(xs), p.count(c))
		if q, ok := quartiles(xs); ok {
			line += fmt.Sprintf("  q1 %.4f q3 %.4f", q[0], q[2])
		}
		if pct, v, ok := tail(xs); ok {
			line += fmt.Sprintf("  %s_p%d_ms %.4f", c, pct, v)
		}
		fmt.Fprintln(out, line)
	}
}

// runTraced is the traced run: the same fixed-size phase at one client,
// four times, each on a fresh fixture: untraced, traced (every wrapper
// installed), traced, untraced, so that neither kind always runs on the
// colder process. Counts, spans and direct-call times come from the
// first traced run, allocation from the untraced ones, and
// trace.overhead_pct from all four.
func runTraced(e *env, cfg config, prov *provenance, out io.Writer) (*result, error) {
	w := cfg.w
	units := w.traceUnits
	if cfg.units > 0 {
		units = cfg.units
	}
	var (
		traced                *phase
		counts, probes        map[string]float64
		spans                 []span
		plainWall, tracedWall time.Duration
		plainReqs             int
		alloc, gcs            float64
		attempted, failed     int
	)
	for i, tracing := range []bool{false, true, true, false} {
		e.tr = nil
		if tracing {
			e.tr = newTracer()
		}
		fx, err := setupFixture(e, cfg, i == 0)
		if err != nil {
			return nil, err
		}
		p := newPhase(cfg.seed, 1, 1, w.window)
		p.units = units
		alloc0, gc0 := readRuntime()
		if tracing && traced == nil {
			traced = p
			counts, probes, err = e.recordPhase(p, fx)
		} else {
			err = p.timed(e, fx)
		}
		alloc1, gc1 := readRuntime()
		if ferr := e.finish(fx, prov); err == nil {
			err = ferr
		}
		if err == nil {
			err = p.violation
		}
		if err != nil {
			return nil, err
		}
		attempted += p.attempted
		failed += p.failed
		if tracing {
			tracedWall += p.wall
		} else {
			plainWall += p.wall
			plainReqs += p.attempted
			alloc += alloc1 - alloc0
			gcs += gc1 - gc0
		}
		if p == traced {
			spans = e.tr.nest() // after finish, which records the store closes
		}
	}

	if err := writeSpanFile(cfg, prov, spans); err != nil {
		return nil, err
	}
	reqs := float64(traced.attempted)
	vals := countMetrics(counts, reqs)
	for k, v := range spanMetrics(spans, reqs) {
		vals[k] = v
	}
	for k, v := range probes {
		vals[k] = v
	}
	vals["go.alloc_bytes_per_req"] = alloc / float64(plainReqs)
	vals["go.gc_cycles"] = gcs / float64(plainReqs)
	vals["trace.overhead_pct"] = (tracedWall.Seconds()/plainWall.Seconds() - 1) * 100

	prov.print(out)
	fmt.Fprintf(out, "%s traced: %d requests per run at 1 client; two untraced runs %.3f s, two traced runs %.3f s\n",
		w.name, traced.attempted, plainWall.Seconds(), tracedWall.Seconds())
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{vals[d.name], d.unit}
		fmt.Fprintf(out, "  %-30s %14.4f %-9s moves: %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
	printClasses(out, traced)
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// recordPhase runs p on fx with the /v1/stats tally on, then probes fx:
// the traced run's counts and direct-call times.
func (e *env) recordPhase(p *phase, fx fixture) (counts, probes map[string]float64, err error) {
	e.tr.reset()
	if err := e.beginTally(); err != nil {
		return nil, nil, err
	}
	err = p.timed(e, fx)
	counts, terr := e.endTally()
	if err == nil {
		err = terr
	}
	if err == nil {
		probes, err = e.probe(fx)
	}
	return counts, probes, err
}

func readRuntime() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// startHeapPeak samples the live heap (what the last GC cycle marked)
// every 2 ms; stop ends sampling and reports the peak in MB.
func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go h.sample()
	return h
}

type heapPeak struct {
	quit, done chan struct{}
	stopped    bool
	peak       uint64
}

func (h *heapPeak) sample() {
	defer close(h.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
		select {
		case <-h.quit:
			return
		case <-tick.C:
		}
	}
}

func (h *heapPeak) stop() float64 {
	if !h.stopped {
		h.stopped = true
		close(h.quit)
		<-h.done
	}
	return float64(h.peak) / (1 << 20)
}

// provenance is recorded with every result.
type provenance struct {
	Workload            string `json:"workload"`
	Seed                uint64 `json:"seed"`
	Seconds             int    `json:"seconds"`
	Trace               bool   `json:"trace"`
	Nproc               int    `json:"nproc"`
	GOMAXPROCS          int    `json:"gomaxprocs"`
	GoVersion           string `json:"go_version"`
	CPU                 string `json:"cpu_model"`
	StoreFS             string `json:"store_fs"`
	PlannerSource       string `json:"planner_source"`
	PlannerCalibrations int    `json:"planner_calibrations"`
}

func newProvenance(cfg config, dir string) *provenance {
	return &provenance{
		Workload:   cfg.w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		StoreFS:    fsName(dir),
	}
}

func (p *provenance) print(out io.Writer) {
	b, _ := json.Marshal(p) // plain strings and numbers
	fmt.Fprintf(out, "provenance %s\n", b)
}

// readPlanner records the planner block of r's /v1/stats and refuses a
// self-calibrated planner: its timing micro-benchmarks make plans
// differ between runs. A service without a planner block passes.
func (p *provenance) readPlanner(e *env, r *replica) error {
	body, err := e.get(r.url + "/v1/stats")
	if err != nil {
		return err
	}
	var s struct {
		Planner *struct {
			Source       string `json:"source"`
			Calibrations int    `json:"calibrations"`
		} `json:"planner"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	if s.Planner == nil {
		p.PlannerSource = "absent"
		return nil
	}
	p.PlannerSource, p.PlannerCalibrations = s.Planner.Source, s.Planner.Calibrations
	if s.Planner.Calibrations > 0 {
		return violation("planner self-calibrated (%d runs, source %q): run from the repository root, where a BENCH_*.json cost model is committed",
			s.Planner.Calibrations, s.Planner.Source)
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir (statfs magic numbers).
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
