package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
)

// reqHeader carries the benchmark's request id from a client span to
// the handler span of the same request.
const reqHeader = "X-Perfbench-Req"

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request id, 0 outside requests
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"` // response bytes, client-side spans
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced phase. Spans recorded by
// wrappers that see no request context (store) get their parent
// and request id afterwards from time nesting, which is unambiguous
// because the traced phase runs one client.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	lastID int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name, layer string, req int64, start, end time.Time, bytes int) {
	s := span{Name: name, Layer: layer, Req: req, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: bytes}
	t.mu.Lock()
	t.lastID++
	s.ID = t.lastID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans of a fixture's set-up but its store opens: a
// workload that never restarts a replica opens its stores only there.
func (t *tracer) reset() {
	t.mu.Lock()
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.Name == "store.open" {
			kept = append(kept, s)
		}
	}
	t.spans = kept
	t.mu.Unlock()
}

// timeN calls fn n times, records a root span around each call and
// returns the median call time in microseconds.
func (t *tracer) timeN(name, layer string, n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		t.record(name, layer, 0, t0, t1, 0)
		us[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	}
	return median(us)
}

// nest assigns parents by interval containment and propagates request
// ids from parents to children that carry none. It returns the spans
// in start order.
func (t *tracer) nest() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []*span
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 && stack[len(stack)-1].End < s.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p.ID
			if s.Req == 0 {
				s.Req = p.Req
			}
		}
		stack = append(stack, s)
	}
	return spans
}

// selfTimes returns, per layer, the summed self time (span minus the
// time its children cover) of every span inside a request, in
// microseconds.
func selfTimes(spans []span) map[string]float64 {
	children := map[int]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] += spans[i].dur()
		}
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Req == 0 {
			continue
		}
		out[s.Layer] += float64(s.dur()-children[s.ID]) / 1e3
	}
	return out
}

// writeSpanFile writes the provenance, then one span per line, to
// <traceOut>/perfbench-<workload>-seed<n>.spans.ndjson.
func writeSpanFile(cfg config, prov *provenance, spans []span) error {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	name := filepath.Join(cfg.traceOut, fmt.Sprintf("perfbench-%s-seed%d.spans.ndjson", cfg.w.name, cfg.seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(prov)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(&spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// route names the service endpoint a path belongs to.
func route(path string) string {
	switch {
	case path == "/v1/results/query":
		return "query"
	case strings.HasPrefix(path, "/v1/"):
		return strings.TrimPrefix(path, "/v1/")
	default:
		return strings.TrimPrefix(path, "/")
	}
}

// handler wraps a replica's Server.Handler() in a span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.record("server."+route(r.URL.Path), "server", req, t0, time.Now(), 0)
	})
}

// blobStore wraps the durable tier under a replica's result cache
// (installed with Server.Cache().SetStore).
type blobStore struct {
	t *tracer
	s jobs.BlobStore
}

func (b blobStore) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := b.s.Get(key)
	b.t.record("store.get", "store", 0, t0, time.Now(), 0)
	return v, ok, err
}

func (b blobStore) Put(key string, val []byte) error {
	t0 := time.Now()
	err := b.s.Put(key, val)
	b.t.record("store.put", "store", 0, t0, time.Now(), 0)
	return err
}
