// Command oracled is the always-on oracle/control service: a
// fault-hardened HTTP daemon answering operating-point queries for
// ultra-low-power broadcast fleets (see internal/serve for the
// robustness envelope: admission control with deadlines and a bounded
// queue, singleflight dedup, a circuit breaker with a graceful degrade
// ladder, and a crash-safe persistent solution cache).
//
//	oracled -addr :9090 -cache-dir /var/cache/econcast -timeout 5s
//
// Endpoints:
//
//	POST /v1/solve  {"objective":"groupput","n":16,"rho":1e-5,...}
//	GET  /healthz
//	GET  /statz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

import "econcast/internal/serve"

func main() {
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		cacheDir    = flag.String("cache-dir", "", "persistent solution cache directory (empty = memory only)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		maxSolve    = flag.Duration("max-solve", 5*time.Second, "per-solve watchdog budget")
		maxInflight = flag.Int("max-inflight", 16, "concurrent solve limit")
		queue       = flag.Int("queue", 64, "admission queue depth beyond the inflight limit")
	)
	flag.Parse()

	solver, err := serve.NewSolver(serve.SolverConfig{CacheDir: *cacheDir, MaxSolve: *maxSolve})
	fatal(err)
	server := serve.NewServer(serve.Config{
		Solver:         solver,
		MaxInflight:    *maxInflight,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain
	// in-flight requests (bounded), then flush and close the persistent
	// cache so the next start recovers instantly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2**timeout)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "oracled: listening on %s (cache-dir=%q)\n", *addr, *cacheDir)
	err = httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = solver.Close()
		fatal(err)
	}
	fatal(solver.Close())
	fmt.Fprintln(os.Stderr, "oracled: drained and cache flushed")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
		os.Exit(1)
	}
}
