// Package server exposes the concurrent scenario-execution subsystem
// (internal/jobs) as an HTTP/JSON simulation service:
//
//	GET  /healthz            liveness + pool/cache/job counters
//	GET  /v1/stats           service counters + solver + sweep metrics
//	POST /v1/simulate        run one co-simulation scenario
//	POST /v1/dse             run a §II-C cavity design-space exploration
//	POST /v1/studies         run the paper's Fig. 6/7 policy study
//	POST /v1/sweeps          run a batched parameter sweep (?stream=1
//	                         streams NDJSON progress)
//	GET  /v1/jobs            list submitted jobs
//	GET  /v1/jobs/{id}       poll one job (?wait=1 long-polls)
//	GET  /v1/store/{key}     replica peer-fetch: raw stored bytes for a
//	                         result-store key (url-safe base64; local
//	                         lookup only, so peered replicas terminate)
//	GET  /v1/results         list registered sweeps (memory + durable)
//	GET  /v1/results/query   filter/sort/project stored sweep results
//	POST /v1/results/query   (?q= or JSON body; table/ndjson/json)
//
// The POST endpoints run synchronously by default and return the result
// body; with ?async=1 they enqueue the work on the job manager and
// immediately return 202 with a job snapshot whose id is polled via
// /v1/jobs/{id}. Identical simulate requests are deduplicated by the
// content-addressed result cache: the second request for a scenario is
// served from memory, flagged "cached": true.
//
// Sweeps — scenario grids and steady flow × utilization batches — run
// through the batched sweep engine (internal/sweep): scenarios are
// grouped structurally and each group shares one factor cache, so an
// N-point sweep pays for O(distinct matrices) factorizations instead of
// O(N). Transient grids and the Fig. 6/7 studies run through
// sweep.Engine.RunTransient: each lockstep group also shares matrix
// assemblies, and direct groups step through blocked multi-RHS solves,
// with results byte-identical to per-scenario stepping. The server
// holds one engine for /v1/sweeps, so each transient sweep adopts the
// factorizations and assemblies its predecessor left (one generation);
// studies build their own engine per request. The per-sweep sharing
// and batching outcome rides in every response and is folded into
// /v1/stats.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/exp"
	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/tsv"
	"repro/internal/units"
)

// Options tunes the service.
type Options struct {
	// Workers bounds concurrent scenario execution (<= 0: GOMAXPROCS).
	Workers int
	// CacheEntries bounds the result cache (<= 0: unbounded).
	CacheEntries int
	// QueueDepth bounds the async job backlog (<= 0: 1024).
	QueueDepth int
	// DefaultSolver is applied to simulate requests that do not name a
	// solver backend ("" keeps the library default; see mat.Backends).
	DefaultSolver string
	// DefaultOrdering is applied to simulate requests that do not name
	// a fill-reducing ordering ("" keeps the library default "auto";
	// see mat.Orderings). Direct backend only.
	DefaultOrdering string
	// Store, when set, is attached under the result cache as the durable
	// second tier: memory misses are served from it and fresh results
	// written through, so results survive restarts. The caller owns its
	// lifecycle (flush/close on shutdown); the server only reads and
	// writes through it. The sweep-results registry persists its
	// manifests here too, so /v1/results/query answers across restarts.
	Store *store.Store
	// MaxInFlight bounds concurrently executing compute requests
	// (/v1/simulate, /v1/dse, /v1/studies, /v1/sweeps). Up to the same
	// number again may wait briefly in a bounded queue; past that the
	// server sheds load immediately with 503 + Retry-After instead of
	// queueing without bound (<= 0: no admission control).
	MaxInFlight int
	// QueueWait bounds how long an admitted-to-queue request waits for
	// an execution slot before being shed with 503 (default 1s; only
	// meaningful with MaxInFlight > 0).
	QueueWait time.Duration
	// RequestTimeout is the per-request compute deadline: the request
	// context of every compute endpoint is bounded by it, and the
	// deadline propagates through sweeps, jobs and the single-flight
	// cache so a timed-out request cancels cleanly (<= 0: no deadline).
	// Async submissions (?async=1) are exempt — their work outlives the
	// submitting request by design.
	RequestTimeout time.Duration
}

// Server is the simulation service. Construct with New, mount Handler,
// and Close when done.
type Server struct {
	pool            *jobs.Pool
	cache           *jobs.Cache
	mgr             *jobs.Manager
	sweeps          *sweep.Engine
	mux             *http.ServeMux
	started         time.Time
	defaultSolver   string
	defaultOrdering string
	store           *store.Store
	results         *resultsRegistry
	reqTimeout      time.Duration
	admit           *admission
	draining        atomic.Bool

	// Solver-metrics surface: per-backend aggregates of every scenario
	// freshly computed through the result cache (cache hits re-serve a
	// recorded result and are not double counted), plus the cumulative
	// sweep-sharing counters.
	solverMu  sync.Mutex
	solver    map[string]mat.SolveStats
	fill      map[string]*fillAgg
	scenarios int
	sweepAgg  SweepStats
}

// fillAgg accumulates the measured factor fill of one backend's
// freshly computed scenarios (scenarios whose preparation reports no
// fill — iterative backends without a factor — are not counted).
type fillAgg struct {
	scenarios int
	sum       float64
}

// New builds the service and its routes.
func New(opt Options) *Server {
	s := &Server{
		pool:            jobs.NewPool(opt.Workers),
		cache:           jobs.NewCache(opt.CacheEntries),
		mgr:             jobs.NewManager(opt.Workers, opt.QueueDepth),
		mux:             http.NewServeMux(),
		started:         time.Now(),
		defaultSolver:   opt.DefaultSolver,
		defaultOrdering: opt.DefaultOrdering,
		store:           opt.Store,
		solver:          map[string]mat.SolveStats{},
		fill:            map[string]*fillAgg{},
		reqTimeout:      opt.RequestTimeout,
		admit:           newAdmission(opt.MaxInFlight, opt.QueueWait),
	}
	if opt.Store != nil {
		s.cache.SetStore(opt.Store)
	}
	s.cache.SetComputeHook(func(_ string, val any) {
		if m, ok := val.(*sim.Metrics); ok {
			s.recordSolver(m)
		}
	})
	s.sweeps = &sweep.Engine{Pool: s.pool, Cache: s.cache}
	s.results = newResultsRegistry(opt.Store)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/simulate", s.compute(s.handleSimulate))
	s.mux.HandleFunc("POST /v1/dse", s.compute(s.handleDSE))
	s.mux.HandleFunc("POST /v1/studies", s.compute(s.handleStudies))
	s.mux.HandleFunc("POST /v1/sweeps", s.compute(s.handleSweeps))
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
	s.mux.HandleFunc("GET /v1/results", s.handleResultsList)
	s.mux.HandleFunc("GET /v1/results/query", s.handleResultsQuery)
	s.mux.HandleFunc("POST /v1/results/query", s.handleResultsQuery)
	return s
}

// handleStoreGet serves one result-store entry's raw bytes to a peer
// replica (the fleet warm-fill path). The path segment is the url-safe
// base64 of the store key. The lookup is strictly local — GetLocal,
// never the peer filler — so two replicas peered at each other cannot
// recurse; a miss is a plain 404 the peer treats as definitive.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, errors.New("no result store attached"))
		return
	}
	key, err := store.DecodeKeyPath(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	val, ok, err := s.store.GetLocal(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("key not in store"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(val)))
	_, _ = w.Write(val)
}

// recordSolver folds one freshly computed scenario's solver counters
// into the per-backend aggregates.
func (s *Server) recordSolver(m *sim.Metrics) {
	if m == nil || m.Solver.Backend == "" {
		return
	}
	s.solverMu.Lock()
	agg := s.solver[m.Solver.Backend]
	agg.Accumulate(m.Solver)
	s.solver[m.Solver.Backend] = agg
	if m.Solver.FillRatio > 0 {
		fa := s.fill[m.Solver.Backend]
		if fa == nil {
			fa = &fillAgg{}
			s.fill[m.Solver.Backend] = fa
		}
		fa.scenarios++
		fa.sum += m.Solver.FillRatio
	}
	s.scenarios++
	s.solverMu.Unlock()
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (shared with embedding callers).
func (s *Server) Cache() *jobs.Cache { return s.cache }

// Close drains the async job workers.
func (s *Server) Close() { s.mgr.Close() }

// errorJSON is the uniform failure body.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON writes v as compact JSON: one line plus a newline. Pipe a
// response through `jq .` to read it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// decodeBody strictly decodes the JSON request body into v. An empty
// body is allowed and leaves v at its defaults.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// wantFlag reports a truthy query parameter (1/true/yes).
func wantFlag(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// dispatch runs compute synchronously and writes its result, or — with
// ?async=1 — submits it to the job manager and writes the queued job
// snapshot with status 202.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind string, compute func(ctx context.Context) (any, error)) {
	if wantFlag(r, "async") {
		view, err := s.mgr.Submit(kind, compute)
		if err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, jobs.ErrManagerClosed) {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	res, err := compute(r.Context())
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.DeadlineExceeded) {
			// The per-request compute deadline fired: a timeout, not a
			// bad request.
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptime_s":      time.Since(s.started).Seconds(),
		"workers":       s.pool.Workers(),
		"cache_entries": s.cache.Len(),
		"cache_stats":   s.cache.Stats(),
		"jobs":          s.mgr.Count(),
	})
}

// StatsResponse is the body of /v1/stats: service counters plus the
// per-backend linear-solver metrics aggregated over every scenario the
// service has computed.
type StatsResponse struct {
	UptimeS      float64 `json:"uptime_s"`
	Workers      int     `json:"workers"`
	CacheEntries int     `json:"cache_entries"`
	// CacheStats reports hit/miss counters; hits re-serve an already
	// recorded solve, so they do not grow the solver aggregates.
	CacheStats jobs.CacheStats `json:"cache_stats"`
	Jobs       int             `json:"jobs"`
	// ScenariosComputed counts fresh (non-cached) scenario solves.
	ScenariosComputed int `json:"scenarios_computed"`
	// Solver maps backend name → aggregated work counters, including
	// any preconditioner fallback reason (e.g. an ILU construction
	// failure downgraded to Jacobi).
	Solver map[string]mat.SolveStats `json:"solver"`
	// SolverFill maps backend name → mean measured factor fill ratio
	// nnz(L+U)/nnz(A) over its freshly computed scenarios (absent for
	// backends whose preparation carries no factor).
	SolverFill map[string]float64 `json:"solver_fill,omitempty"`
	// Backends lists the registered solver backends accepted by the
	// "solver" field of /v1/simulate requests.
	Backends []string `json:"backends"`
	// DefaultSolver is applied to requests that omit "solver".
	DefaultSolver string `json:"default_solver"`
	// Orderings lists the registered fill-reducing orderings accepted
	// by the "ordering" field of /v1/simulate requests.
	Orderings []string `json:"orderings"`
	// DefaultOrdering is applied to requests that omit "ordering".
	DefaultOrdering string `json:"default_ordering"`
	// OrderingFactorNs maps concrete ordering → total wall-clock
	// nanoseconds the sweep engines spent in physical factorisations
	// under it (fill and counts are in Sweeps.Prep.Orderings; wall time
	// is nondeterministic so it is reported only here).
	OrderingFactorNs map[string]int64 `json:"ordering_factor_ns,omitempty"`
	// Sweeps aggregates the sweep engine's outcomes — factorizations
	// paid versus shared across every sweep the service has run.
	Sweeps SweepStats `json:"sweeps"`
	// Store, present when a durable result store is attached, reports
	// its WAL, pool, segment and peer counters and whether it wedged
	// read-only after a durability failure.
	Store *store.Stats `json:"store,omitempty"`
	// Admission, present when MaxInFlight is configured, reports the
	// compute-endpoint overload guard: in-flight/queued gauges and
	// admitted/shed counters.
	Admission *AdmissionStats `json:"admission,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.solverMu.Lock()
	solver := make(map[string]mat.SolveStats, len(s.solver))
	for k, v := range s.solver {
		solver[k] = v
	}
	var fill map[string]float64
	if len(s.fill) > 0 {
		fill = make(map[string]float64, len(s.fill))
		for k, v := range s.fill {
			fill[k] = v.sum / float64(v.scenarios)
		}
	}
	scenarios := s.scenarios
	sweeps := s.sweepAgg
	s.solverMu.Unlock()
	def := s.defaultSolver
	if def == "" {
		def = mat.DefaultBackend
	}
	defOrd := s.defaultOrdering
	if defOrd == "" {
		defOrd = mat.DefaultOrdering
	}
	resp := &StatsResponse{
		UptimeS:           time.Since(s.started).Seconds(),
		Workers:           s.pool.Workers(),
		CacheEntries:      s.cache.Len(),
		CacheStats:        s.cache.Stats(),
		Jobs:              s.mgr.Count(),
		ScenariosComputed: scenarios,
		Solver:            solver,
		SolverFill:        fill,
		Backends:          mat.Backends(),
		DefaultSolver:     def,
		Orderings:         mat.Orderings(),
		DefaultOrdering:   defOrd,
		OrderingFactorNs:  s.sweeps.OrderingFactorNs(),
		Sweeps:            sweeps,
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	if s.admit != nil {
		st := s.admit.stats()
		resp.Admission = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// SimulateResponse is the body of a synchronous /v1/simulate call.
type SimulateResponse struct {
	// Key is the scenario's content address in the result cache.
	Key string `json:"key"`
	// Cached reports whether the metrics were served from the cache.
	Cached  bool          `json:"cached"`
	Metrics *sim.Metrics  `json:"metrics"`
	Request jobs.Scenario `json:"request"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var sc jobs.Scenario
	if err := decodeBody(r, &sc); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if sc.Solver == "" {
		sc.Solver = s.defaultSolver
	}
	if sc.Ordering == "" {
		sc.Ordering = s.defaultOrdering
	}
	sc = sc.Normalized()
	if err := sc.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, "simulate", func(ctx context.Context) (any, error) {
		// The solve runs under the shared pool bound so ad-hoc
		// requests and study sweeps compete for the same -workers
		// slots.
		var m *sim.Metrics
		var hit bool
		err := s.pool.Do(ctx, func(ctx context.Context) error {
			var err error
			m, hit, err = s.cache.Metrics(ctx, sc)
			return err
		})
		if err != nil {
			return nil, err
		}
		return &SimulateResponse{Key: sc.Key(), Cached: hit, Metrics: m, Request: sc}, nil
	})
}

// DSERequest parameterizes a §II-C cavity design-space exploration.
// The zero value reproduces the paper's Table-I space: a 60 W tier,
// 11.5×10 mm die, 40 µm TSVs at 150 µm pitch, water, 10–32.3 ml/min.
type DSERequest struct {
	TierPowerW      float64 `json:"tier_power_w,omitempty"`
	FootprintWMM    float64 `json:"footprint_w_mm,omitempty"`
	FootprintHMM    float64 `json:"footprint_h_mm,omitempty"`
	DieThicknessUM  float64 `json:"die_thickness_um,omitempty"`
	DieConductivity float64 `json:"die_conductivity_w_mk,omitempty"`
	InletC          float64 `json:"inlet_c,omitempty"`
	LimitC          float64 `json:"limit_c,omitempty"`
	TSVDiameterUM   float64 `json:"tsv_diameter_um,omitempty"`
	TSVPitchUM      float64 `json:"tsv_pitch_um,omitempty"`
	TSVKeepOutUM    float64 `json:"tsv_keepout_um,omitempty"`
	FlowMinMlPerMin float64 `json:"flow_min_ml_min,omitempty"`
	FlowMaxMlPerMin float64 `json:"flow_max_ml_min,omitempty"`
	FlowLevels      int     `json:"flow_levels,omitempty"`
}

func (q DSERequest) withDefaults() DSERequest {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&q.TierPowerW, 60)
	def(&q.FootprintWMM, 11.5)
	def(&q.FootprintHMM, 10)
	def(&q.DieThicknessUM, 150)
	def(&q.DieConductivity, 130)
	def(&q.InletC, 27)
	def(&q.LimitC, 85)
	def(&q.TSVDiameterUM, 40)
	def(&q.TSVPitchUM, 150)
	def(&q.TSVKeepOutUM, 10)
	def(&q.FlowMinMlPerMin, 10)
	def(&q.FlowMaxMlPerMin, 32.3)
	if q.FlowLevels == 0 {
		q.FlowLevels = 8
	}
	return q
}

// DSEEvaluation is the wire form of one scored design point.
type DSEEvaluation struct {
	Design     string  `json:"design"`
	FlowMlMin  float64 `json:"flow_ml_min"`
	JunctionC  float64 `json:"junction_c"`
	PumpPowerW float64 `json:"pump_power_w"`
	COP        float64 `json:"cop"`
	Feasible   bool    `json:"feasible"`
}

// DSEResponse is the body of a /v1/dse call.
type DSEResponse struct {
	Evaluations []DSEEvaluation `json:"evaluations"`
	ParetoFront []DSEEvaluation `json:"pareto_front"`
	Best        *DSEEvaluation  `json:"best,omitempty"`
	BestError   string          `json:"best_error,omitempty"`
}

func toWireEvals(evals []dse.Evaluation) []DSEEvaluation {
	out := make([]DSEEvaluation, 0, len(evals))
	for _, e := range evals {
		out = append(out, DSEEvaluation{
			Design:     e.Geometry.Label(),
			FlowMlMin:  units.M3PerSToMlPerMin(e.FlowM3s),
			JunctionC:  e.JunctionC,
			PumpPowerW: e.PumpPowerW,
			COP:        e.COP(),
			Feasible:   e.Feasible,
		})
	}
	return out
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	var req DSERequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.withDefaults()
	duty := dse.Duty{
		TierPower:       req.TierPowerW,
		FootprintW:      req.FootprintWMM * 1e-3,
		FootprintH:      req.FootprintHMM * 1e-3,
		DieThickness:    req.DieThicknessUM * 1e-6,
		DieConductivity: req.DieConductivity,
		InletC:          req.InletC,
		LimitC:          req.LimitC,
	}
	arr := tsv.Array{
		Via:   tsv.Via{Diameter: req.TSVDiameterUM * 1e-6, Depth: 380e-6, Liner: 200e-9},
		Pitch: req.TSVPitchUM * 1e-6,
		KOZ:   req.TSVKeepOutUM * 1e-6,
	}
	space, err := dse.DefaultSpace(duty, arr,
		units.MlPerMinToM3PerS(req.FlowMinMlPerMin),
		units.MlPerMinToM3PerS(req.FlowMaxMlPerMin),
		req.FlowLevels)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, "dse", func(ctx context.Context) (any, error) {
		evals, err := space.ExploreParallel(ctx, s.pool)
		if err != nil {
			return nil, err
		}
		resp := &DSEResponse{
			Evaluations: toWireEvals(evals),
			ParetoFront: toWireEvals(dse.ParetoFront(evals)),
		}
		if best, err := dse.BestUnderLimit(evals); err != nil {
			resp.BestError = err.Error()
		} else {
			wire := toWireEvals([]dse.Evaluation{best})[0]
			resp.Best = &wire
		}
		return resp, nil
	})
}

// StudyRequest parameterizes the Fig. 6/7 policy study.
type StudyRequest struct {
	// Steps, Grid, Seed are exp.Options (0 = full-fidelity defaults:
	// 300 s traces on a 16×16 grid, seed 1).
	Steps int   `json:"steps,omitempty"`
	Grid  int   `json:"grid,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Solver selects the linear-solver backend for every scenario of
	// the study ("" = the server's default backend).
	Solver string `json:"solver,omitempty"`
	// Savings additionally runs the per-workload §IV-A savings study.
	Savings bool `json:"savings,omitempty"`
}

// StudyResponse is the body of a /v1/studies call: the structured
// per-configuration results plus the rendered paper tables.
type StudyResponse struct {
	Results []*exp.StudyResult  `json:"results"`
	Fig6    string              `json:"fig6"`
	Fig7    string              `json:"fig7"`
	Savings []exp.SavingsDetail `json:"savings,omitempty"`
}

func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	var req StudyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Solver == "" {
		req.Solver = s.defaultSolver
	}
	opt := exp.Options{Steps: req.Steps, Grid: req.Grid, Seed: req.Seed, Solver: req.Solver}
	// Reject what any study scenario would fail on before dispatch, the
	// way /v1/simulate and /v1/sweeps validate before computing.
	scenarios := exp.StudyScenarios(opt)
	if req.Savings {
		scenarios = append(scenarios, exp.SavingsScenarios(opt)...)
	}
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	s.dispatch(w, r, "study", func(ctx context.Context) (any, error) {
		results, err := exp.RunStudyOn(ctx, s.pool, s.cache, opt)
		if err != nil {
			return nil, err
		}
		resp := &StudyResponse{
			Results: results,
			Fig6:    exp.Fig6(results).String(),
			Fig7:    exp.Fig7(results).String(),
		}
		if req.Savings {
			resp.Savings, err = exp.SavingsStudyOn(ctx, s.pool, s.cache, opt)
			if err != nil {
				return nil, err
			}
		}
		return resp, nil
	})
}

// SweepStats aggregates the sweep engine's outcomes across every sweep
// the service has completed (grid and steady alike) — the /v1/stats
// surface for factorization sharing and lockstep batching.
type SweepStats struct {
	// Sweeps counts completed sweep requests.
	Sweeps int `json:"sweeps"`
	// Scenarios counts points across those sweeps.
	Scenarios int `json:"scenarios"`
	// Errors counts failed points.
	Errors int `json:"errors"`
	// CacheHits counts points served without a fresh solve.
	CacheHits int `json:"cache_hits"`
	// Groups counts sharing groups (lockstep groups of transient grids,
	// one per steady sweep).
	Groups int `json:"groups"`
	// Prep aggregates physical preparation work: Factorizations paid,
	// Shares avoided via per-group factor caches.
	Prep mat.PrepStats `json:"prep"`
	// Batch aggregates the lockstep multi-RHS stepping of transient grid
	// sweeps: blocked solves performed, columns advanced together, and
	// the matrix assemblies shared group-wide.
	Batch thermal.BatchStats `json:"batch"`
	// Assemblies aggregates the physical matrix-assembly work of the
	// batched sweeps (builds paid, adoptions avoided).
	Assemblies thermal.AsmStats `json:"assemblies"`
}

// recordSweep folds one completed sweep into the service aggregates.
func (s *Server) recordSweep(scenarios, errors, cacheHits, groups int, prep mat.PrepStats, batch *sweep.BatchReport) {
	s.solverMu.Lock()
	s.sweepAgg.Sweeps++
	s.sweepAgg.Scenarios += scenarios
	s.sweepAgg.Errors += errors
	s.sweepAgg.CacheHits += cacheHits
	s.sweepAgg.Groups += groups
	s.sweepAgg.Prep.Accumulate(prep)
	if batch != nil {
		s.sweepAgg.Batch.Accumulate(batch.BatchStats)
		s.sweepAgg.Assemblies.Accumulate(batch.Assemblies)
	}
	s.solverMu.Unlock()
}

// SweepRequest parameterizes POST /v1/sweeps: exactly one of the two
// sweep kinds.
type SweepRequest struct {
	// Grid is a transient scenario sweep — the cartesian product of the
	// given axes, each point a full co-simulation.
	Grid *sweep.Grid `json:"grid,omitempty"`
	// Steady is a steady-state flow × utilization sweep on one stack.
	Steady *sweep.SteadySweep `json:"steady,omitempty"`
}

// sweepLine is one NDJSON line of a streamed sweep (?stream=1): a
// progress line carries Result or Point; the final line carries Report
// or SteadyReport (with the already-streamed point lists elided).
type sweepLine struct {
	Type         string              `json:"type"` // "result", "point", "report", "error"
	Result       *sweep.Result       `json:"result,omitempty"`
	Point        *sweep.SteadyPoint  `json:"point,omitempty"`
	Report       *sweep.Report       `json:"report,omitempty"`
	SteadyReport *sweep.SteadyReport `json:"steady_report,omitempty"`
	Error        string              `json:"error,omitempty"`
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if (req.Grid == nil) == (req.Steady == nil) {
		writeError(w, http.StatusBadRequest,
			errors.New(`want exactly one of "grid" or "steady"`))
		return
	}
	if req.Grid != nil && len(req.Grid.Solvers) == 0 && s.defaultSolver != "" {
		req.Grid.Solvers = []string{s.defaultSolver}
	}
	if req.Steady != nil && req.Steady.Solver == "" && s.defaultSolver != "" {
		req.Steady.Solver = s.defaultSolver
	}
	// Validate the whole request up front so a streamed sweep fails with
	// a status code instead of a 200 followed by a mid-stream error line.
	var scenarios []jobs.Scenario
	if req.Grid != nil {
		var err error
		if scenarios, err = req.Grid.Expand(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		for i, sc := range scenarios {
			if err := sc.Validate(); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("grid point %d: %w", i, err))
				return
			}
		}
	}
	if req.Steady != nil {
		if err := req.Steady.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if wantFlag(r, "stream") {
		s.streamSweep(w, r, req, scenarios)
		return
	}
	s.dispatch(w, r, "sweep", func(ctx context.Context) (any, error) {
		if req.Steady != nil {
			rep, err := s.sweeps.RunSteady(ctx, *req.Steady, nil)
			if err != nil {
				return nil, err
			}
			s.recordSweep(rep.Scenarios, rep.Errors, 0, 1, rep.Prep, nil)
			return rep, nil
		}
		rep, err := s.sweeps.RunTransient(ctx, scenarios, nil)
		if err != nil {
			return nil, err
		}
		s.recordSweep(rep.Scenarios, rep.Errors, rep.CacheHits, len(rep.Groups), rep.Prep, rep.Batch)
		rep.SweepID, _ = s.results.Register(rep)
		return rep, nil
	})
}

// streamSweep writes the sweep as NDJSON: one line per completed point,
// then the summary report (point lists elided — they were streamed).
// Every record is flushed as soon as it is encoded — through
// http.ResponseController, so middleware-wrapped writers flush too —
// so a long transient sweep streams incrementally instead of buffering
// until completion.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req SweepRequest, scenarios []jobs.Scenario) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	line := func(l sweepLine) {
		// Streaming is exempt from the server-wide WriteTimeout: each
		// flushed line pushes the connection's write deadline out, so a
		// long sweep keeps streaming while a stalled client still times
		// out within a line interval. Ignore errors: not every wrapped
		// writer supports deadlines (httptest's recorder does not).
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_ = enc.Encode(l)
		_ = rc.Flush()
	}
	if req.Steady != nil {
		rep, err := s.sweeps.RunSteady(r.Context(), *req.Steady, func(p sweep.SteadyPoint) {
			line(sweepLine{Type: "point", Point: &p})
		})
		if err != nil {
			line(sweepLine{Type: "error", Error: err.Error()})
			return
		}
		s.recordSweep(rep.Scenarios, rep.Errors, 0, 1, rep.Prep, nil)
		summary := *rep
		summary.Points = nil
		line(sweepLine{Type: "report", SteadyReport: &summary})
		return
	}
	rep, err := s.sweeps.RunTransient(r.Context(), scenarios, func(res sweep.Result) {
		line(sweepLine{Type: "result", Result: &res})
	})
	if err != nil {
		line(sweepLine{Type: "error", Error: err.Error()})
		return
	}
	s.recordSweep(rep.Scenarios, rep.Errors, rep.CacheHits, len(rep.Groups), rep.Prep, rep.Batch)
	rep.SweepID, _ = s.results.Register(rep)
	summary := *rep
	summary.Results = nil
	line(sweepLine{Type: "report", Report: &summary})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wantFlag(r, "wait") {
		// A long-poll may legitimately outlast the server-wide
		// WriteTimeout; clear the write deadline for this response (no-op
		// where unsupported).
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
		view, err := s.mgr.Wait(r.Context(), id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
		return
	}
	view, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}
