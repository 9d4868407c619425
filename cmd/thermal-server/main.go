// Command thermal-server serves the paper's co-simulation engine as an
// HTTP/JSON service (see internal/server for the API):
//
//	thermal-server -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/simulate \
//	     -d '{"tiers":2,"cooling":"liquid","policy":"LC_FUZZY","workload":"web","steps":60,"grid":8}'
//	curl -s -X POST 'localhost:8080/v1/studies?async=1' -d '{"steps":60,"grid":8}'
//	curl -s localhost:8080/v1/jobs/job-000001?wait=1
//	curl -sN -X POST 'localhost:8080/v1/sweeps?stream=1' \
//	     -d '{"grid":{"coolings":["air","liquid"],"workloads":["web","db"],"steps":60,"grid":8}}'
//
// Scenario results are memoized under a content-addressed cache, so a
// repeated request for the same configuration is served from memory, and
// batched sweeps (/v1/sweeps) share one thermal factorisation per
// structural scenario group (see internal/sweep); /v1/stats reports how
// many factorizations the sharing saved.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent scenario executions (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 4096, "max cached scenario results (0 = unbounded)")
	queueDepth := flag.Int("queue", 1024, "max queued async jobs")
	solver := flag.String("solver", "", "default linear-solver backend for /v1/simulate and /v1/studies requests that omit one: "+strings.Join(mat.Backends(), ", ")+" (/v1/dse uses the closed-form explorer, no linear solves)")
	ordering := flag.String("ordering", "", "default fill-reducing ordering of the direct backend for requests that omit one: "+strings.Join(mat.Orderings(), ", ")+" (default auto)")
	storeDir := flag.String("store-dir", "", "durable result-store directory (empty = memory-only cache); results written here survive restarts")
	storePoolPages := flag.Int("store-pool-pages", 1024, "result-store buffer-pool page frames (at least 4)")
	peers := flag.String("peers", "", "comma-separated base URLs of replica peers (e.g. http://replica-2:8080); a local store miss is warm-filled from the first peer that has the key before falling back to compute")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "per-request timeout for peer warm-fill fetches")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing compute requests; up to the same number again queue briefly, the rest are shed with 503 + Retry-After (0 = no admission control)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request compute deadline for synchronous /v1/simulate|dse|studies|sweeps; async submissions are exempt (0 = no deadline)")
	drainWait := flag.Duration("drain-wait", 0, "pause between flipping /readyz to 503 on SIGTERM and starting Shutdown, so load balancers stop routing here first")
	faultSpec := flag.String("fault-spec", "", "DEV ONLY: enable deterministic fault injection, e.g. 'seed=7;store.wal.fsync=error,times=1;store.peer.*=latency,delay=50ms,p=0.3' (points: "+strings.Join(fault.Points(), ", ")+")")
	flag.Parse()

	if !mat.KnownBackend(*solver) {
		log.Fatalf("unknown solver backend %q (want one of %v)", *solver, mat.Backends())
	}
	if !mat.KnownOrdering(*ordering) {
		log.Fatalf("unknown ordering %q (want one of %v)", *ordering, mat.Orderings())
	}
	if *faultSpec != "" {
		reg, err := fault.Parse(*faultSpec)
		if err != nil {
			log.Fatalf("-fault-spec: %v", err)
		}
		fault.Enable(reg)
		log.Printf("FAULT INJECTION ENABLED (dev only): %q", *faultSpec)
	}
	if *peers != "" && *storeDir == "" {
		log.Fatalf("-peers requires -store-dir: peer warm-fills heal the durable store")
	}
	var st *store.Store
	if *storeDir != "" {
		var filler store.PeerFiller
		if *peers != "" {
			hp := store.NewHTTPPeer(strings.Split(*peers, ","), store.HTTPPeerOptions{Timeout: *peerTimeout})
			if hp == nil {
				log.Fatalf("-peers %q contains no usable peer URLs", *peers)
			}
			filler = hp
			log.Printf("peer warm-fill enabled: %d peers, %s timeout", len(hp.PeerStats()), *peerTimeout)
		}
		var err error
		st, err = store.Open(store.Options{
			Dir:       *storeDir,
			PoolPages: *storePoolPages,
			Peer:      filler,
		})
		if err != nil {
			log.Fatalf("open result store: %v", err)
		}
		log.Printf("result store open at %s (%d entries recovered)", *storeDir, st.Len())
	}
	svc := server.New(server.Options{
		Workers:         *workers,
		CacheEntries:    *cacheEntries,
		QueueDepth:      *queueDepth,
		DefaultSolver:   *solver,
		DefaultOrdering: *ordering,
		Store:           st,
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *requestTimeout,
	})
	// WriteTimeout bounds a stalled client on ordinary responses; the
	// NDJSON sweep stream and job long-polls manage their own per-request
	// deadlines via http.ResponseController, so slow-but-alive streams
	// are exempt. Size it off the compute deadline when one is set.
	writeTimeout := 2 * time.Minute
	if *requestTimeout > 0 {
		writeTimeout = *requestTimeout + 30*time.Second
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("thermal-server listening on %s", *addr)
		errc <- httpServer.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	closeStore := func() {
		// Close after the job workers drain: every in-flight write-through
		// lands, then the final checkpoint seals the pages and trims the
		// WAL so the next start replays nothing.
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("close result store: %v", err)
			}
		}
	}
	select {
	case sig := <-sigc:
		log.Printf("received %s, draining", sig)
		// Flip readiness first so load balancers stop routing new work
		// here, give them a beat to notice, then finish what's in flight.
		svc.SetDraining(true)
		if *drainWait > 0 {
			time.Sleep(*drainWait)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		svc.Close()
		closeStore()
		log.Printf("drain complete, exiting")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			// Fatal serve error: still close the store so its final
			// checkpoint lands instead of leaving a WAL replay behind.
			svc.Close()
			closeStore()
			log.Fatalf("serve: %v", err)
		}
	}
}
