// Command hsfqd is the simulation-serving daemon: a long-running HTTP
// service that validates scenario and sweep specs through the simconfig
// pipeline, executes them on a bounded worker pool with queue-depth
// admission control (429 + Retry-After when full) and per-request
// deadlines, and serves repeated requests byte-identically from a
// content-addressed cache keyed by canonical job digests.
//
// Usage:
//
//	hsfqd -addr :8377
//	curl -s localhost:8377/v1/simulate -d @scenario.json   # run (or hit the cache)
//	curl -s localhost:8377/v1/jobs/<key>                   # retrieve by content address
//	curl -s localhost:8377/v1/jobs -d '{"jobs":[...]}'     # batch claim (hsfqmesh backend)
//	curl -s localhost:8377/metrics                         # queue, cache, latency
//
// SIGTERM/SIGINT drain gracefully: /readyz flips to 503, the listener
// stops accepting, in-flight requests (and their jobs) finish, then the
// process exits 0.
//
// With -policy, requests are scheduled per tenant (X-Tenant / X-API-Key
// headers) by a weighted hierarchical SFQ tree instead of a global FIFO:
// the policy file sets per-tenant weights, admission quotas, and API
// keys, and SIGHUP reloads it in place (a bad file logs and keeps the
// old policy). Without -policy all traffic shares the default tenant and
// behaves exactly like the FIFO it replaced.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hsfq/internal/server"
	"hsfq/internal/tenantsched"
)

func main() {
	var (
		addr         = flag.String("addr", ":8377", "listen address")
		workers      = flag.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth; beyond it requests are shed with 429")
		sweepWorkers = flag.Int("sweep-workers", 0, "parallelism inside one sweep request (0 = workers)")
		cacheEntries = flag.Int("cache-entries", 1024, "result cache entry cap")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result cache byte cap")
		cacheDir     = flag.String("cache-dir", "", "disk spill directory for evicted results (empty = memory only)")
		ckptDir      = flag.String("checkpoint-dir", "", "checkpoint store: resume simulations whose horizon extends a previously served run (empty = always simulate from tick zero)")
		verifyCache  = flag.Float64("verify-cache", 0, "fraction of cache hits to re-execute and byte-compare (0..1)")
		maxBatch     = flag.Int("max-batch", 256, "max jobs per POST /v1/jobs claim")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline (queue wait + execution)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		policyPath   = flag.String("policy", "", "tenant policy JSON (weights, quotas, API keys); SIGHUP reloads it")
		traceBytes   = flag.Int("trace-bytes", 4<<20, "per-run trace recording byte cap for GET /v1/trace/{key} (0 disables tracing)")
		traceCache   = flag.Int64("trace-cache-bytes", 32<<20, "total byte cap across retained finished trace recordings")
	)
	flag.Parse()

	var pol *tenantsched.Policy
	if *policyPath != "" {
		p, err := tenantsched.LoadPolicy(*policyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hsfqd:", err)
			os.Exit(1)
		}
		pol = p
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		SweepWorkers:    *sweepWorkers,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		CacheDir:        *cacheDir,
		VerifyFraction:  *verifyCache,
		MaxBatch:        *maxBatch,
		RequestTimeout:  *timeout,
		CheckpointDir:   *ckptDir,
		Policy:          pol,
		TraceBytes:      *traceBytes,
		TraceCacheBytes: *traceCache,
	})
	if *policyPath != "" {
		hupCh := make(chan os.Signal, 1)
		signal.Notify(hupCh, syscall.SIGHUP)
		go reloadPolicy(srv, *policyPath, hupCh)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	l, err := net.Listen("tcp", *addr)
	if err == nil {
		err = serveListener(newHTTPServer(*addr, srv), srv, sigCh, *drainTimeout, l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfqd:", err)
		os.Exit(1)
	}
}

// Connection bounds: a client has readHeaderTimeout to send its request
// headers, and a keep-alive connection idle for idleTimeout is closed, so
// slow or silent clients cannot pin connections. There is deliberately
// no WriteTimeout: it would cut the long-lived SSE streams (watch=1,
// follow=1), which end on their own and bound each of their writes with
// a deadline instead, so a client that stops reading loses its stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server with its connection
// bounds set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// reloadPolicy re-reads the policy file on each SIGHUP and hot-swaps it
// into the running server; a file that fails to load or validate keeps
// the current policy, so a botched edit cannot take the daemon down.
func reloadPolicy(srv *server.Server, path string, hupCh <-chan os.Signal) {
	for range hupCh {
		p, err := tenantsched.LoadPolicy(path)
		if err != nil {
			log.Printf("hsfqd: SIGHUP: %v (keeping current policy)", err)
			continue
		}
		srv.SetPolicy(p)
		log.Printf("hsfqd: SIGHUP: reloaded tenant policy from %s (%d tenant(s))", path, len(p.TenantNames()))
	}
}

// serveListener runs hs on l until a signal arrives, then drains
// gracefully: readiness flips first (load balancers stop routing), the
// listener closes and in-flight requests finish (bounded by
// drainTimeout), and finally the worker pool runs dry. The startup line
// names l's address, so an ephemeral port (-addr 127.0.0.1:0) is logged
// as the port actually bound.
func serveListener(hs *http.Server, srv *server.Server, sigCh <-chan os.Signal, drainTimeout time.Duration, l net.Listener) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigCh
		log.Printf("hsfqd: %v: draining (readyz now 503, finishing in-flight jobs)", sig)
		srv.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("hsfqd: shutdown: %v", err)
		}
		srv.Drain()
		m := srv.Snapshot()
		log.Printf("hsfqd: drained: %d job(s) served, %d shed, cache %d/%d hit/miss",
			m.TasksDone, m.Shed, m.Cache.Hits, m.Cache.Misses)
	}()

	m := srv.Snapshot()
	log.Printf("hsfqd: listening on %s (workers=%d queue=%d)", l.Addr(), m.Workers, m.QueueCapacity)
	if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	return nil
}
