package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/query"
)

const (
	// hotSet is serve-mix's resident scenario count; it fits the
	// 4096-entry memory cache.
	hotSet = 256
	// mixQuery is the results query serve-mix sends; queryLimit is its
	// row cap, checked on every answer.
	mixQuery   = "max_temp>60 sort:-pump_power limit:10 fields:index,policy,seed,max_temp,pump_power"
	queryLimit = 10
)

// Request kinds of the serve-mix mix.
const (
	opHit = iota
	opQuery
	opCold
)

// mixOp is one serve-mix request: a hot-set index for hits, the
// client's cold-scenario ordinal for cold computes.
type mixOp struct {
	kind int
	hot  int
	cold int
}

// mixGen draws one client's request sequence: ~90% hot-set hits, ~9%
// queries, ~1% fresh computes. It depends only on the run seed, the
// phase and the client.
type mixGen struct {
	r     *rand.Rand
	colds int
}

func newMixGen(seed uint64, phase, client int) *mixGen {
	return &mixGen{r: rand.New(rand.NewPCG(seed, uint64(stream(streamMix, phase, client))))}
}

func (g *mixGen) next() mixOp {
	switch x := g.r.IntN(100); {
	case x < 90:
		return mixOp{kind: opHit, hot: g.r.IntN(hotSet)}
	case x < 99:
		return mixOp{kind: opQuery}
	default:
		g.colds++
		return mixOp{kind: opCold, cold: g.colds - 1}
	}
}

// mixFixture is serve-mix's replica with a durable store, its hot set
// and the reference answers recorded at warm-up.
type mixFixture struct {
	r        *replica
	dir      string
	hot      [][]byte // /v1/simulate bodies
	hotRef   [][]byte // their warm-up responses
	queryURL string
	queryRef []byte
	rows     []query.Record // the registered sweep's rows, for the query replay
}

func setupServeMix(e *env) (fixture, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-mix-")
	if err != nil {
		return nil, err
	}
	f := &mixFixture{dir: dir}
	if f.r, err = e.openReplica(dir, nil); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := f.warm(e); err != nil {
		f.close(e)
		return nil, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return f, nil
}

// warm computes the hot set with one sweep (which also registers the
// rows the queries read) and records every reference answer.
func (f *mixFixture) warm(e *env) error {
	seeds := make([]int64, hotSet)
	for i := range seeds {
		seeds[i] = e.scenarioSeed(stream(streamHot, 0, 0), i)
	}
	rep, err := e.sweepReport(f.r, map[string]any{
		"coolings": []string{"liquid"}, "policies": []string{"LC_FUZZY"},
		"seeds": seeds, "steps": 10, "grid": 8,
	}, hotSet)
	if err != nil {
		return err
	}
	for _, res := range rep.Results {
		f.rows = append(f.rows, query.FromResult(rep.SweepID, res))
		body := mustJSON(res.Scenario)
		out, _, err := e.post(f.r.url+"/v1/simulate", "simulate", body)
		if err != nil {
			return err
		}
		if !isCached(out) {
			return violation("hot-set scenario %d not served from the cache after the sweep", res.Index)
		}
		f.hot = append(f.hot, body)
		f.hotRef = append(f.hotRef, out)
	}
	f.queryURL = f.r.url + "/v1/results/query?q=" + url.QueryEscape(mixQuery)
	status, out, _, err := e.call(http.MethodGet, f.queryURL, "query", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("query: status %d: %.200s", status, out)
	}
	if rows := strings.Count(string(out), "\n") - 1; rows < 1 || rows > queryLimit {
		return violation("query returned %d rows, want 1..%d", rows, queryLimit)
	}
	f.queryRef = out
	return nil
}

func isCached(resp []byte) bool {
	var v struct {
		Cached bool `json:"cached"`
	}
	return json.Unmarshal(resp, &v) == nil && v.Cached
}

// run drives the seeded mix; every answer is checked against its
// reference, and every cold request must compute.
func (f *mixFixture) run(e *env, p *phase) error {
	before, err := e.stats(f.r)
	if err != nil {
		return err
	}
	gens := make([]*mixGen, p.clients)
	for c := range gens {
		gens[c] = newMixGen(e.seed, p.index, c)
	}
	var colds [16]int
	p.loop(e, func(c, _ int) (string, time.Duration, error) {
		op := gens[c].next()
		switch op.kind {
		case opHit:
			out, d, err := e.post(f.r.url+"/v1/simulate", "simulate", f.hot[op.hot])
			if err == nil && !bytes.Equal(out, f.hotRef[op.hot]) {
				err = violation("hot-set answer %d differs from its warm-up answer", op.hot)
			}
			return "hit", d, err
		case opQuery:
			status, out, d, err := e.call(http.MethodGet, f.queryURL, "query", nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("query: status %d", status)
			}
			if err == nil && !bytes.Equal(out, f.queryRef) {
				err = violation("query answer changed: %.200s", out)
			}
			return "query", d, err
		default:
			body := mustJSON(map[string]any{"cooling": "air", "policy": "LB", "steps": 4, "grid": 8,
				"seed": e.scenarioSeed(stream(streamCold, p.index, c), op.cold)})
			out, d, err := e.post(f.r.url+"/v1/simulate", "simulate", body)
			if err == nil && isCached(out) {
				err = violation("fresh scenario served from the cache")
			}
			if err == nil {
				colds[c]++
			}
			return "cold", d, err
		}
	})
	after, err := e.stats(f.r)
	if err != nil {
		return err
	}
	want := 0
	for _, n := range colds {
		want += n
	}
	if got := after["scenarios_computed"] - before["scenarios_computed"]; got != float64(want) {
		return violation("serve-mix: %v scenarios computed, want %d", got, want)
	}
	return nil
}

func (f *mixFixture) primary() *replica { return f.r }

func (f *mixFixture) resident() (*replica, jobs.Scenario) {
	var sc jobs.Scenario
	_ = json.Unmarshal(f.hot[0], &sc) // marshalled from a jobs.Scenario
	return f.r, sc
}

func (f *mixFixture) close(e *env) error {
	err := e.closeReplica(f.r)
	if rerr := os.RemoveAll(f.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
