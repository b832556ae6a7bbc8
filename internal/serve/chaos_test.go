package serve

// The chaos harness: injected solver pathologies and crashes composed
// against a synthetic heavy-traffic load, run under -race in CI. Each
// scenario pins one leg of the robustness envelope:
//
//   - overload        -> queue-full 429s, the fleet still converges
//     through client retries, and the server never answers anything
//     outside {200, 429, 503};
//   - stuck solver    -> the watchdog bounds every request, the breaker
//     trips, answers degrade with labeled provenance, and the service
//     recovers to exact answers once the solver heals;
//   - kill/restart    -> a corrupted persistent cache recovers record by
//     record and the surviving answers are bit-identical.

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosOverloadConverges floods a tiny-capacity server with a fleet
// of retrying clients. The server must refuse what it cannot carry
// (429 with Retry-After), serve only {200, 429, 503}, and the retry
// discipline must carry every client to an answer.
func TestChaosOverloadConverges(t *testing.T) {
	solver := newTestSolver(t)
	inner := solver.solveInner
	solver.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		// A mildly slow solver so the queue actually fills.
		timer := time.NewTimer(5 * time.Millisecond)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, c)
	}
	srv, ts := newChaosServer(t, Config{
		Solver:      solver,
		MaxInflight: 2,
		MaxQueue:    2,
	})

	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	var answered, exhausted atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient(ClientConfig{
				BaseURL:     ts.URL,
				Attempts:    8,
				PerTry:      2 * time.Second,
				BaseBackoff: 2 * time.Millisecond,
				Seed:        uint64(2000 + w),
			})
			for i := 0; i < perWorker; i++ {
				// Each worker repeats its own fleet, so after its first
				// answer the worker's traffic is cache hits.
				resp, err := client.Solve(context.Background(), cliqueReq(ObjGroupput, 3+w))
				switch {
				case err == nil:
					if resp.Provenance != ProvExact && resp.Provenance != ProvCached {
						t.Errorf("healthy-solver answer has provenance %q", resp.Provenance)
					}
					answered.Add(1)
				case errors.Is(err, ErrExhausted):
					exhausted.Add(1)
				default:
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// A refused client backs off for Retry-After (at least a second)
	// while the others drain the queue, so eight attempts are plenty.
	if n := answered.Load(); n != workers*perWorker {
		t.Fatalf("%d of %d requests answered, %d exhausted their retries", n, workers*perWorker, exhausted.Load())
	}
	st := srv.StatsSnapshot()
	if st.QueueRejects == 0 {
		t.Fatalf("overload run produced zero 429s: %+v", st)
	}
	if st.OK == 0 || st.BadRequests != 0 {
		t.Fatalf("status mix: %+v", st)
	}
	t.Logf("overload: answered=%d exhausted=%d 429s=%d coalesced=%d",
		answered.Load(), exhausted.Load(), st.QueueRejects, st.Solver.Coalesced)
}

// TestChaosStuckSolverBreakerRecovers wedges the solver completely (a
// stall even context cancellation cannot reach), and requires: every
// request still answered within the watchdog budget, provenance turns
// degraded, the breaker trips open and stops consulting the solver, and
// after the solver heals and the cool-down passes the service returns
// to exact answers.
func TestChaosStuckSolverBreakerRecovers(t *testing.T) {
	solver := newTestSolver(t)
	solver.cfg.MaxSolve = 30 * time.Millisecond
	solver.breaker.threshold = 2
	solver.breaker.resetAfter = (50 * time.Millisecond).Nanoseconds()

	healed := make(chan struct{})
	var stuckEntered atomic.Uint64
	defer close(healed) // unstrand any stuck goroutines at test end
	solver.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		stuckEntered.Add(1)
		<-healed // ignores ctx: a genuinely wedged solver
		return solveOracle(ctx, c)
	}

	_, ts := newChaosServer(t, Config{Solver: solver})
	client := NewClient(ClientConfig{BaseURL: ts.URL, Attempts: 1, Seed: 6})

	// Two distinct requests: both hit the watchdog, degrade, and trip
	// the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, err := client.Solve(context.Background(), cliqueReq(ObjGroupput, 4+i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Provenance != ProvDegraded {
			t.Fatalf("stuck solve %d: provenance %q", i, resp.Provenance)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("stuck solve %d took %v: watchdog failed", i, elapsed)
		}
	}
	if state, trips := solver.breaker.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("breaker %s trips=%d after stall", state, trips)
	}

	// Open breaker: answers keep flowing, degraded, without touching the
	// wedged solver.
	before := stuckEntered.Load()
	resp, err := client.Solve(context.Background(), cliqueReq(ObjGroupput, 6))
	if err != nil || resp.Provenance != ProvDegraded {
		t.Fatalf("breaker-open answer: %v %+v", err, resp)
	}
	if stuckEntered.Load() != before {
		t.Fatal("open breaker still consulted the solver")
	}

	// Heal, let the cool-down elapse, and require recovery to exact.
	solver.solveInner = solveOracle
	time.Sleep(60 * time.Millisecond)
	resp, err = client.Solve(context.Background(), cliqueReq(ObjGroupput, 7))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provenance != ProvExact {
		t.Fatalf("post-heal provenance %q", resp.Provenance)
	}
	if state, _ := solver.breaker.snapshot(); state != "closed" {
		t.Fatalf("breaker %s after recovery", state)
	}
}

// TestChaosKillRestartRecovers runs traffic into a persistent-cache
// server, kills it without ceremony, corrupts the cache tail the way a
// mid-write power cut would, restarts, and requires every answer after
// the restart to be bit-identical to its pre-kill counterpart.
func TestChaosKillRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	reqs := []*Request{
		cliqueReq(ObjGroupput, 4),
		cliqueReq(ObjAnyput, 5),
		{Objective: ObjBounds, N: 6, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4,
			Topology: &TopoSpec{Kind: "ring"}},
	}

	// Epoch 1: populate.
	solver1, err := NewSolver(SolverConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newChaosServer(t, Config{Solver: solver1})
	client := NewClient(ClientConfig{BaseURL: ts1.URL, Attempts: 3, Seed: 10})
	golden := make([]*Response, len(reqs))
	for i, req := range reqs {
		golden[i], err = client.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if golden[i].Provenance != ProvExact {
			t.Fatalf("epoch-1 request %d provenance %q", i, golden[i].Provenance)
		}
	}
	// Kill: close the HTTP front end and the solver abruptly, then
	// simulate the mid-write power cut — a half-flushed record appended
	// to the log plus a flipped byte in the last complete record.
	ts1.Close()
	if err := solver1.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cachePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40 // corrupt the final record's CRC
	partial := encodeRecord("half-written", []byte("lost to the power cut"))
	raw = append(raw, partial[:len(partial)/3]...)
	if err := os.WriteFile(cachePath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: restart on the damaged log. Recovery keeps the intact
	// records, drops the rest, and the service answers everything again
	// with the same bits — cached for survivors, re-solved for the
	// casualty.
	solver2, err := NewSolver(SolverConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := solver2.disk.stats()
	if st.Skipped == 0 || st.Loaded == 0 || st.Loaded >= len(reqs) {
		t.Fatalf("recovery stats after kill: %+v", st)
	}
	_, ts2 := newChaosServer(t, Config{Solver: solver2})
	client2 := NewClient(ClientConfig{BaseURL: ts2.URL, Attempts: 3, Seed: 10})
	var cached, resolved int
	for i, req := range reqs {
		resp, err := client2.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Provenance {
		case ProvCached:
			cached++
		case ProvExact:
			resolved++
		default:
			t.Fatalf("epoch-2 request %d provenance %q", i, resp.Provenance)
		}
		if resp.Throughput != golden[i].Throughput ||
			!reflect.DeepEqual(resp.Alpha, golden[i].Alpha) ||
			!reflect.DeepEqual(resp.Beta, golden[i].Beta) {
			t.Fatalf("epoch-2 request %d differs from its pre-kill bits", i)
		}
		if (golden[i].Upper == nil) != (resp.Upper == nil) {
			t.Fatalf("epoch-2 request %d upper-bound presence changed", i)
		}
		if resp.Upper != nil && !reflect.DeepEqual(resp.Upper, golden[i].Upper) {
			t.Fatalf("epoch-2 request %d upper bound differs", i)
		}
	}
	if cached == 0 || resolved == 0 {
		t.Fatalf("epoch 2 should mix cache hits and re-solves: cached=%d resolved=%d", cached, resolved)
	}
}

// newChaosServer wires a Server into an httptest front end.
func newChaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}
