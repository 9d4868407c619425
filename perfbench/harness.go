package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

// env is one workload run's shared state: the client, the live
// replicas (closed in reverse order on any exit), the temp root and,
// in the traced phase, the tracer and the /v1/stats tally.
type env struct {
	ctx    context.Context
	seed   uint64
	tmp    string
	client *http.Client
	tr     *tracer // nil when untraced
	nextID atomic.Int64

	mu    sync.Mutex
	live  []*replica
	tally *tally // non-nil while a phase counts /v1/stats deltas
}

func newEnv(ctx context.Context, seed uint64, tmp string) *env {
	return &env{
		ctx:  ctx,
		seed: seed,
		tmp:  tmp,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
}

// scenarioSeed returns the k-th workload-trace seed of a stream. Seeds
// of distinct streams never collide, so a "fresh" scenario is never
// already cached; the run seed shifts every stream.
func (e *env) scenarioSeed(stream, k int) int64 {
	return int64(e.seed%(1<<20))<<40 | int64(stream)<<28 | int64(k)
}

// replica is one in-process thermal service: optional durable store,
// server.New with the options thermal-server sets by default, and an
// http.Server on a loopback listener.
type replica struct {
	url  string
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
}

// openReplica starts a replica; dir "" keeps the result cache
// memory-only. peer, when set, fills local store misses.
func (e *env) openReplica(dir string, peer store.PeerFiller) (*replica, error) {
	r := &replica{done: make(chan struct{})}
	if dir != "" {
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: dir, PoolPages: 1024, Peer: peer})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		if e.tr != nil {
			e.tr.record("store.open", "store", 0, t0, time.Now(), 0)
		}
		r.st = st
	}
	r.srv = server.New(server.Options{Workers: 0, CacheEntries: 4096, QueueDepth: 1024, Store: r.st})
	h := r.srv.Handler()
	if e.tr != nil {
		if r.st != nil {
			r.srv.Cache().SetStore(blobStore{e.tr, r.st})
		}
		h = e.tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		if r.st != nil {
			r.st.Close()
		}
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln)
	}()
	e.mu.Lock()
	e.live = append(e.live, r)
	if e.tally != nil {
		e.tally.base[r] = map[string]float64{}
	}
	e.mu.Unlock()
	return r, nil
}

// closeReplica stops r. The order matters: idle client connections go
// first, because http.Server.Shutdown waits up to 5 s on a connection
// that was accepted but never used; then Shutdown, Server.Close (drains
// job workers) and Store.Close (final checkpoint).
func (e *env) closeReplica(r *replica) error {
	var err error
	e.mu.Lock()
	for i, l := range e.live {
		if l == r {
			e.live = append(e.live[:i], e.live[i+1:]...)
			break
		}
	}
	t := e.tally
	e.mu.Unlock()
	if t != nil {
		err = t.add(e, r)
	}
	e.client.CloseIdleConnections()
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections() // store.HTTPPeer's connections
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := r.hs.Shutdown(ctx); serr != nil {
		_ = r.hs.Close()
		if err == nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}
	<-r.done
	r.srv.Close()
	if r.st != nil {
		t0 := time.Now()
		if cerr := r.st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close store: %w", cerr)
		}
		if e.tr != nil {
			e.tr.record("store.close", "store", 0, t0, time.Now(), 0)
		}
	}
	return err
}

// closeAll stops every live replica, newest first.
func (e *env) closeAll() error {
	var first error
	for {
		e.mu.Lock()
		n := len(e.live)
		var r *replica
		if n > 0 {
			r = e.live[n-1]
		}
		e.mu.Unlock()
		if r == nil {
			e.client.CloseIdleConnections()
			return first
		}
		if err := e.closeReplica(r); err != nil && first == nil {
			first = err
		}
	}
}

// call sends one request and reads the whole response; the returned
// duration is the client-side round trip. In traced phases it records
// the client span and tags the request so the handler span joins it.
func (e *env) call(method, url, rt string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(e.ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	var id int64
	if e.tr != nil {
		id = e.nextID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if e.tr != nil {
		e.tr.record("http."+rt, "http", id, t0, t1, len(out))
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, out, t1.Sub(t0), nil
}

// post is call for a JSON POST that must answer 200.
func (e *env) post(url, rt string, body []byte) ([]byte, time.Duration, error) {
	status, out, d, err := e.call(http.MethodPost, url, rt, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", rt, status, out)
	}
	return out, d, err
}

// sweepReport runs one transient grid sweep and checks that it computed
// want scenarios without errors.
func (e *env) sweepReport(r *replica, grid map[string]any, want int) (*sweep.Report, error) {
	out, _, err := e.post(r.url+"/v1/sweeps", "sweeps", mustJSON(map[string]any{"grid": grid}))
	if err != nil {
		return nil, err
	}
	var rep sweep.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, violation("sweep report: %v", err)
	}
	if len(rep.Results) != want || rep.Errors != 0 || rep.CacheHits != 0 {
		return nil, violation("sweep: %d results, %d errors, %d cache hits; want %d, 0, 0",
			len(rep.Results), rep.Errors, rep.CacheHits, want)
	}
	return &rep, nil
}

// get fetches a URL outside any trace: stats reads and readiness
// probes are the benchmark's own traffic, not workload requests.
func (e *env) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

// stats reads a replica's /v1/stats as flattened numeric counters.
func (e *env) stats(r *replica) (map[string]float64, error) {
	body, err := e.get(r.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	out := map[string]float64{}
	flatten("", v, out)
	return out, nil
}

// flatten maps every numeric leaf of a decoded JSON value to its dotted
// path (array elements by index). Absent blocks simply have no paths,
// so readers tolerate counters a later service version drops.
func flatten(prefix string, v any, out map[string]float64) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			flatten(join(k), vv, out)
		}
	case []any:
		for i, vv := range x {
			flatten(join(strconv.Itoa(i)), vv, out)
		}
	case float64:
		out[prefix] = x
	}
}

// tally sums /v1/stats deltas over every replica a phase touches:
// replicas live when the phase starts count from their state then,
// replicas opened during it count from zero, and a replica closed
// during it is read just before it goes.
type tally struct {
	base map[*replica]map[string]float64
	sum  map[string]float64
}

func (e *env) beginTally() error {
	t := &tally{base: map[*replica]map[string]float64{}, sum: map[string]float64{}}
	e.mu.Lock()
	live := append([]*replica(nil), e.live...)
	e.mu.Unlock()
	for _, r := range live {
		s, err := e.stats(r)
		if err != nil {
			return err
		}
		t.base[r] = s
	}
	e.mu.Lock()
	e.tally = t
	e.mu.Unlock()
	return nil
}

func (t *tally) add(e *env, r *replica) error {
	s, err := e.stats(r)
	if err != nil {
		return err
	}
	base := t.base[r]
	for k, v := range s {
		t.sum[k] += v - base[k]
	}
	delete(t.base, r)
	return nil
}

// endTally folds in the replicas still live and returns the sums.
func (e *env) endTally() (map[string]float64, error) {
	e.mu.Lock()
	t := e.tally
	e.tally = nil
	live := append([]*replica(nil), e.live...)
	e.mu.Unlock()
	for _, r := range live {
		if err := t.add(e, r); err != nil {
			return nil, err
		}
	}
	return t.sum, nil
}
