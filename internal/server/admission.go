package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// admission is the compute-endpoint overload guard: a fixed number of
// execution slots plus an equally sized bounded wait queue. A request
// that can neither run nor queue — or that queues longer than the wait
// bound — is shed with 503 + Retry-After, so saturating traffic gets a
// prompt, retryable answer instead of an unbounded queue and
// deadline-less hangs.
type admission struct {
	slots    chan struct{} // execution slots (cap = MaxInFlight)
	queue    chan struct{} // wait-queue tickets (cap = MaxInFlight)
	maxWait  time.Duration
	shed     atomic.Uint64
	admitted atomic.Uint64
}

func newAdmission(maxInFlight int, maxWait time.Duration) *admission {
	if maxInFlight <= 0 {
		return nil
	}
	if maxWait <= 0 {
		maxWait = time.Second
	}
	return &admission{
		slots:   make(chan struct{}, maxInFlight),
		queue:   make(chan struct{}, maxInFlight),
		maxWait: maxWait,
	}
}

// AdmissionStats is the /v1/stats surface of the overload guard.
type AdmissionStats struct {
	// MaxInFlight is the configured execution-slot count.
	MaxInFlight int `json:"max_inflight"`
	// InFlight is the current number of executing compute requests.
	InFlight int `json:"in_flight"`
	// Queued is the current number of requests waiting for a slot.
	Queued int `json:"queued"`
	// Admitted counts compute requests that got a slot; Shed counts
	// requests rejected with 503 (full queue or queue-wait timeout).
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		MaxInFlight: cap(a.slots),
		InFlight:    len(a.slots),
		Queued:      len(a.queue),
		Admitted:    a.admitted.Load(),
		Shed:        a.shed.Load(),
	}
}

// acquire obtains an execution slot, waiting in the bounded queue up to
// maxWait. It returns a release func on success, nil when the request
// was shed (queue full or wait bound exceeded) or the client went away.
func (a *admission) acquire(r *http.Request) (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}: // fast path: free slot, no queueing
		a.admitted.Add(1)
		return func() { <-a.slots }, true
	default:
	}
	select {
	case a.queue <- struct{}{}: // queue ticket acquired
	default:
		a.shed.Add(1)
		return nil, false
	}
	defer func() { <-a.queue }()
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return func() { <-a.slots }, true
	case <-t.C:
		a.shed.Add(1)
		return nil, false
	case <-r.Context().Done():
		return nil, false
	}
}

// shedResponse writes the canonical overload answer.
func shedResponse(w http.ResponseWriter, maxWait time.Duration) {
	retry := int(maxWait / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(retry))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("server overloaded: compute slots and wait queue full, retry after %ds", retry))
}

// compute wraps a compute-endpoint handler with admission control and
// the per-request deadline. The deadline is installed on the request
// context, so it propagates through dispatch, the worker pool, the
// sweep engine and the single-flight cache; a request canceled while
// queued or mid-compute unwinds without poisoning shared state (the
// cache retries joiners whose originator was canceled). Async
// submissions bypass the deadline — the manager owns their lifetime —
// but still pay admission: a 202 costs a queue slot check like any
// other request, keeping the shed signal honest under async floods.
func (s *Server) compute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.admit != nil {
			release, ok := s.admit.acquire(r)
			if !ok {
				if r.Context().Err() != nil {
					// Client gave up while queued; nothing useful to write.
					return
				}
				shedResponse(w, s.admit.maxWait)
				return
			}
			defer release()
		}
		if s.reqTimeout > 0 && !wantFlag(r, "async") {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// handleReadyz is the load-balancer readiness signal, distinct from
// /healthz liveness: a live process answers /healthz while draining or
// degraded, but /readyz flips to 503 as soon as the server is draining
// (SIGTERM received, Shutdown imminent) or the durable store can no
// longer acknowledge writes (it wedged after a durability failure), so
// balancers stop routing new work here while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reasons := []string{}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.store != nil && !s.store.Healthy() {
		reasons = append(reasons, "store degraded (wedged)")
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":   false,
			"reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// SetDraining flips the drain state reported by /readyz. The shutdown
// sequence is: receive SIGTERM → SetDraining(true) → wait for load
// balancers to observe unreadiness → http.Server.Shutdown (finishes
// in-flight requests) → close the store.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }
