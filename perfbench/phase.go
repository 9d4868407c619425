package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// checkError marks a failed check: the run still reports its result,
// with correct false. Any other error means the run could not complete.
type checkError struct{ error }

func violation(format string, args ...any) error {
	return checkError{fmt.Errorf(format, args...)}
}

// Request-stream purposes. A stream id packs purpose, phase and client,
// so every generator and fresh-seed range of a run is distinct.
const (
	streamSweep = 1 + iota
	streamStudy
	streamHot
	streamCold
	streamCorpus
	streamMix
	streamOrder
)

func stream(purpose, phase, client int) int { return purpose<<8 | phase<<4 | client }

// phase is one measured stretch of a workload: closed-loop clients
// that run until the time budget (until) or the unit budget (units,
// when > 0) is spent. Phase index 0 is warm-up; timed phases use 1, so
// the four phases of a traced run send the same requests, each to a
// fresh fixture.
type phase struct {
	index   int
	clients int
	until   time.Time
	units   int64
	taken   atomic.Int64
	// computed counts the scenarios the requests asked to be freshly
	// computed (policy-compute's points).
	computed atomic.Int64

	// window is the operation count of one throughput window.
	window int

	mu        sync.Mutex
	rng       *rand.Rand         // reservoir sampling
	lat       map[string]*sample // class → latencies in ms
	attempted int
	failed    int
	marks     []time.Time // phase start, then every window-th success
	violation error
	wall      time.Duration
}

// maxSamples caps each class's latency reservoir, so the benchmark's
// own memory does not grow with the service's throughput.
const maxSamples = 1 << 16

// sample is a class's operation count and a uniform reservoir of at
// most maxSamples of its latencies.
type sample struct {
	n  int
	xs []float64
}

func newPhase(seed uint64, index, clients, window int) *phase {
	return &phase{
		index:   index,
		clients: clients,
		window:  window,
		rng:     rand.New(rand.NewPCG(seed, uint64(index))),
		lat:     map[string]*sample{},
	}
}

// timed runs fx on the phase and records its wall time.
func (p *phase) timed(e *env, fx fixture) error {
	p.marks = []time.Time{time.Now()}
	err := fx.run(e, p)
	p.wall = time.Since(p.marks[0])
	return err
}

// samples returns the reservoir of a class (nil when it saw none).
func (p *phase) samples(class string) []float64 {
	if s := p.lat[class]; s != nil {
		return s.xs
	}
	return nil
}

// count returns how many operations of a class succeeded.
func (p *phase) count(class string) int {
	if s := p.lat[class]; s != nil {
		return s.n
	}
	return 0
}

// rate returns operations per second as the median over the phase's
// throughput windows, so a stall inside one window moves it less than
// it moves the mean; 0 when the phase completed no window.
func (p *phase) rate() float64 {
	var rates []float64
	for i := 1; i < len(p.marks); i++ {
		rates = append(rates, rate(p.window, p.marks[i].Sub(p.marks[i-1])))
	}
	return median(rates)
}

// more reports whether another unit (a request, or a replica-heal
// round) may start.
func (p *phase) more(e *env) bool {
	if e.ctx.Err() != nil || p.stopped() {
		return false
	}
	n := p.taken.Add(1)
	if p.units > 0 {
		return n <= p.units
	}
	return time.Now().Before(p.until)
}

func (p *phase) stopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.violation != nil
}

// observe records one operation's outcome. Every workload's checks
// need every request answered, so any failure, a transport error or a
// bad status included, fails the run; a request that a cancelled run
// abandons only counts as failed. Throughput windows count successes
// only.
func (p *phase) observe(class string, d time.Duration, err error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		var ce checkError
		switch {
		case p.violation != nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		case errors.As(err, &ce):
			p.violation = err
		default:
			p.violation = violation("%s request failed: %v", class, err)
		}
		return
	}
	if (p.attempted-p.failed)%p.window == 0 {
		p.marks = append(p.marks, now)
	}
	ms := float64(d.Nanoseconds()) / 1e6
	c := p.lat[class]
	if c == nil {
		c = &sample{}
		p.lat[class] = c
	}
	c.n++
	if len(c.xs) < maxSamples {
		c.xs = append(c.xs, ms)
	} else if j := p.rng.IntN(c.n); j < maxSamples {
		c.xs[j] = ms
	}
}

// loop runs the phase's clients; each calls do with its own request
// counter until the budget is spent.
func (p *phase) loop(e *env, do func(client, i int) (string, time.Duration, error)) {
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; p.more(e); i++ {
				p.observe(do(c, i))
			}
		}(c)
	}
	wg.Wait()
}

// each calls do once for every index below n, spread over the phase's
// clients.
func (p *phase) each(e *env, n int, do func(i int) (string, time.Duration, error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || e.ctx.Err() != nil || p.stopped() {
					return
				}
				p.observe(do(i))
			}
		}()
	}
	wg.Wait()
}

// mustJSON marshals request bodies built from plain values.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
