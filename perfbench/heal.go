package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

// corpusSeeds × {air, liquid} is replica-heal's 512-key corpus.
const corpusSeeds = 256

// healFixture is replica-heal's source replica A with its corpus, the
// reference answers A gives for it, and replica B, healed from A
// during set-up.
type healFixture struct {
	a, b       *replica
	aDir, bDir string
	keys       [][]byte // /v1/simulate bodies
	ref        [][]byte // A's answers
}

// setupHeal computes the corpus on A, then opens B on an empty store
// dir, peered at A, and requests every key once: each answer is a peer
// fetch plus a durable adopt.
func setupHeal(e *env) (fixture, error) {
	f := &healFixture{}
	err := f.setup(e)
	if err != nil {
		f.close(e)
		return nil, fmt.Errorf("replica-heal set-up: %w", err)
	}
	return f, nil
}

func (f *healFixture) setup(e *env) error {
	var err error
	if f.aDir, err = os.MkdirTemp(e.tmp, "replica-a-"); err != nil {
		return err
	}
	if f.bDir, err = os.MkdirTemp(e.tmp, "replica-b-"); err != nil {
		return err
	}
	if f.a, err = e.openReplica(f.aDir, nil); err != nil {
		return err
	}
	if err := f.warm(e); err != nil {
		return err
	}
	if f.b, err = f.openB(e); err != nil {
		return err
	}
	heal := newPhase(e.seed, 0, 2, 1)
	if err := f.serveAll(e, heal, "peer_fill", f.order(e, heal, 0)); err != nil {
		return err
	}
	return heal.violation
}

func (f *healFixture) warm(e *env) error {
	seeds := make([]int64, corpusSeeds)
	for i := range seeds {
		seeds[i] = e.scenarioSeed(stream(streamCorpus, 0, 0), i)
	}
	rep, err := e.sweepReport(f.a, map[string]any{
		"coolings": []string{"air", "liquid"}, "seeds": seeds, "steps": 4, "grid": 8,
	}, 2*corpusSeeds)
	if err != nil {
		return err
	}
	for _, res := range rep.Results {
		body := mustJSON(res.Scenario)
		out, _, err := e.post(f.a.url+"/v1/simulate", "simulate", body)
		if err != nil {
			return err
		}
		f.keys = append(f.keys, body)
		f.ref = append(f.ref, out)
	}
	return nil
}

// openB starts replica B on its store dir, peered at A as -peers would
// peer it.
func (f *healFixture) openB(e *env) (*replica, error) {
	hp := store.NewHTTPPeer([]string{f.a.url}, store.HTTPPeerOptions{Timeout: 2 * time.Second})
	return e.openReplica(f.bDir, hp)
}

// order is the seeded order of one pass over the corpus.
func (f *healFixture) order(e *env, p *phase, round int) []int {
	r := rand.New(rand.NewPCG(e.seed, uint64(stream(streamOrder, p.index, 0))<<32|uint64(round)))
	return r.Perm(len(f.keys))
}

// run repeats rounds until the budget is spent: B restarts on its dir,
// then serves every corpus key from its own store, its memory cache
// being empty after the restart.
func (f *healFixture) run(e *env, p *phase) error {
	for round := 0; p.more(e); round++ {
		t0 := time.Now()
		err := e.closeReplica(f.b)
		f.b = nil
		if err == nil {
			f.b, err = f.openB(e)
		}
		if err == nil {
			_, err = e.get(f.b.url + "/readyz")
		}
		p.observe("reopen", time.Since(t0), err)
		if err != nil {
			return err
		}
		if err := f.serveAll(e, p, "store_hit", f.order(e, p, round)); err != nil {
			return err
		}
	}
	return nil
}

// serveAll requests every corpus key from B in the given order and
// checks each answer against A's, then checks that B computed nothing
// and its peer saw no errors.
func (f *healFixture) serveAll(e *env, p *phase, class string, order []int) error {
	p.each(e, len(order), func(i int) (string, time.Duration, error) {
		k := order[i]
		out, d, err := e.post(f.b.url+"/v1/simulate", "simulate", f.keys[k])
		if err == nil && !bytes.Equal(out, f.ref[k]) {
			err = violation("replica B's answer for corpus key %d differs from A's", k)
		}
		return class, d, err
	})
	s, err := e.stats(f.b)
	if err != nil {
		return err
	}
	if s["scenarios_computed"] != 0 || sumPaths(s, "store.peers.*.errors") != 0 || sumPaths(s, "store.peers.*.trips") != 0 {
		return violation("replica B computed %v scenarios, peer errors %v, trips %v; want all 0",
			s["scenarios_computed"], sumPaths(s, "store.peers.*.errors"), sumPaths(s, "store.peers.*.trips"))
	}
	return nil
}

func (f *healFixture) primary() *replica { return f.a }

func (f *healFixture) resident() (*replica, jobs.Scenario) {
	var sc jobs.Scenario
	_ = json.Unmarshal(f.keys[0], &sc) // marshalled from a jobs.Scenario
	return f.a, sc
}

// close stops B, then A, and removes both store dirs.
func (f *healFixture) close(e *env) error {
	var first error
	for _, r := range []*replica{f.b, f.a} {
		if r == nil {
			continue
		}
		if err := e.closeReplica(r); err != nil && first == nil {
			first = err
		}
	}
	for _, dir := range []string{f.bDir, f.aDir} {
		if dir == "" {
			continue
		}
		if err := os.RemoveAll(dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
