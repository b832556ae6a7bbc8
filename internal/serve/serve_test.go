package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func cliqueReq(obj string, n int) *Request {
	return &Request{Objective: obj, N: n, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4}
}

func TestCompileValidates(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown objective", Request{Objective: "maxput", N: 4, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4}},
		{"no fleet", Request{Objective: ObjGroupput}},
		{"clique with topology", Request{Objective: ObjGroupput, N: 4, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4, Topology: &TopoSpec{Kind: "ring"}}},
		{"bounds without topology", Request{Objective: ObjBounds, N: 4, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4}},
		{"grid size mismatch", Request{Objective: ObjBounds, N: 5, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4, Topology: &TopoSpec{Kind: "grid", Rows: 2, Cols: 2}}},
		{"grid product overflows", Request{Objective: ObjBounds, N: 4, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4, Topology: &TopoSpec{Kind: "grid", Rows: 4611686018427387905, Cols: 4}}},
		{"unknown topology", Request{Objective: ObjBounds, N: 4, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4, Topology: &TopoSpec{Kind: "torus"}}},
		{"exact too large", Request{Objective: ObjExact, N: 32, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4, Topology: &TopoSpec{Kind: "ring"}}},
		{"oversized fleet", Request{Objective: ObjGroupput, N: maxFleet + 1, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4}},
		{"invalid params", Request{Objective: ObjGroupput, N: 4, Rho: -1, Listen: 5e-4, Transmit: 5e-4}},
	}
	for _, tc := range cases {
		if _, err := tc.req.compile(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: want ErrBadRequest, got %v", tc.name, err)
		}
	}
}

func TestCompileKeySeparatesObjectives(t *testing.T) {
	g, err := cliqueReq(ObjGroupput, 6).compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := cliqueReq(ObjAnyput, 6).compile()
	if err != nil {
		t.Fatal(err)
	}
	if g.key == a.key {
		t.Fatal("groupput and anyput requests share a cache key")
	}
}

func TestGateQueueFullRejects(t *testing.T) {
	g := newGate(1, 1)
	if v := g.admit(context.Background()); v != admitOK {
		t.Fatalf("first admit: %v", v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.admit(ctx) // parks in the queue
	}()
	for g.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if v := g.admit(context.Background()); v != admitBusy {
		t.Fatalf("queue-full admit: want admitBusy, got %v", v)
	}
	if g.rejects.Load() != 1 {
		t.Fatalf("rejects = %d, want 1", g.rejects.Load())
	}
	cancel()
	wg.Wait()
	g.release()
}

func TestGateAdmitGoneOnDeadCtx(t *testing.T) {
	g := newGate(1, 4)
	if v := g.admit(context.Background()); v != admitOK {
		t.Fatalf("first admit: %v", v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v := g.admit(ctx); v != admitGone {
		t.Fatalf("dead-ctx admit while saturated: want admitGone, got %v", v)
	}
	g.release()
}

func TestBreakerStateMachine(t *testing.T) {
	var now int64
	b := newBreaker(3, time.Second, func() int64 { return now })
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatal("closed breaker must allow")
		}
		b.failure()
	}
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("after 2 failures: %s", st)
	}
	b.failure() // third consecutive: trip
	if st, trips := b.snapshot(); st != "open" || trips != 1 {
		t.Fatalf("after 3 failures: %s trips=%d", st, trips)
	}
	if b.allow() {
		t.Fatal("open breaker allowed before cool-down")
	}
	now += time.Second.Nanoseconds()
	if !b.allow() {
		t.Fatal("cooled-down breaker must admit a probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.failure() // probe failed: re-open
	if st, _ := b.snapshot(); st != "open" {
		t.Fatalf("after failed probe: %s", st)
	}
	now += time.Second.Nanoseconds()
	if !b.allow() {
		t.Fatal("second probe refused")
	}
	b.success()
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("after successful probe: %s", st)
	}
	if !b.allow() {
		t.Fatal("re-closed breaker must allow")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var g flightGroup
	gateCh := make(chan struct{})
	leader := &Response{Result: Result{Throughput: 2.5, Alpha: []float64{1, 2}, Beta: []float64{3, 4}}, Provenance: ProvExact}

	const followers = 8
	var wg sync.WaitGroup
	results := make([]*Response, followers)
	started := make(chan struct{}, followers)
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() (*Response, error) {
			close(started)
			<-gateCh
			return leader, nil
		})
	}()
	<-started
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, shared, err := g.do(context.Background(), "k", func() (*Response, error) {
				t.Error("follower ran the solve")
				return nil, nil
			})
			if err != nil || !shared {
				t.Errorf("follower %d: shared=%v err=%v", i, shared, err)
			}
			results[i] = r
		}(i)
	}
	for g.dupCount() < followers {
		time.Sleep(time.Millisecond)
	}
	close(gateCh)
	wg.Wait()

	for i, r := range results {
		if r.Throughput != leader.Throughput || !reflect.DeepEqual(r.Alpha, leader.Alpha) {
			t.Fatalf("follower %d: wrong answer %+v", i, r)
		}
		if &r.Alpha[0] == &leader.Alpha[0] {
			t.Fatalf("follower %d shares the leader's slice", i)
		}
	}
	if g.inFlight() != 0 {
		t.Fatalf("inFlight = %d after completion", g.inFlight())
	}
}

// TestSolverCoalescesConcurrentMisses sends one uncached request from
// many callers at once, as every node of a re-adapting fleet does: the
// LP must run once, and every caller gets its answer.
func TestSolverCoalescesConcurrentMisses(t *testing.T) {
	s := newTestSolver(t)
	var solves atomic.Int64
	unblock := make(chan struct{})
	s.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		solves.Add(1)
		<-unblock
		return solveOracle(ctx, c)
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Solve(context.Background(), cliqueReq(ObjGroupput, 7))
			if err != nil || resp.Provenance != ProvExact {
				t.Errorf("caller: %v %+v", err, resp)
			}
		}()
	}
	// Wait until every caller is either solving or waiting on a solve.
	for solves.Load()+int64(s.Stats().Coalesced) < callers {
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Fatalf("%d concurrent identical misses ran %d solves, want 1", callers, n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Response{
		Result:     Result{Throughput: math.Pi, Alpha: []float64{0.1, 0.2, 0.3}, Beta: []float64{0.4, 0.5, 0.6}},
		Upper:      &Result{Throughput: math.E, Alpha: []float64{1, 1, 1}, Beta: []float64{0, 0, 0}},
		Provenance: ProvExact,
	}
	raw := encodeResponse(in)
	out, err := decodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Provenance != ProvCached {
		t.Fatalf("decoded provenance %q", out.Provenance)
	}
	if out.Throughput != in.Throughput || !reflect.DeepEqual(out.Alpha, in.Alpha) ||
		!reflect.DeepEqual(out.Beta, in.Beta) || !reflect.DeepEqual(out.Upper, in.Upper) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeResponse(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := decodeResponse(append(raw, 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
	// Only 0 and 1 mark the upper bound's absence or presence; any other
	// byte would decode to a value that re-encodes to different bytes.
	noUpper := encodeResponse(&Response{Result: in.Result})
	noUpper[len(noUpper)-1] = 2
	if _, err := decodeResponse(noUpper); !errors.Is(err, errCorruptValue) {
		t.Fatalf("hasUpper byte 2: want errCorruptValue, got %v", err)
	}
}

func newTestSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestSolverExactThenCached(t *testing.T) {
	s := newTestSolver(t)
	req := cliqueReq(ObjGroupput, 5)
	first, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Provenance != ProvExact {
		t.Fatalf("first solve provenance %q", first.Provenance)
	}
	second, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Provenance != ProvCached {
		t.Fatalf("second solve provenance %q", second.Provenance)
	}
	if second.Throughput != first.Throughput || !reflect.DeepEqual(second.Alpha, first.Alpha) {
		t.Fatal("cached answer differs from exact answer")
	}
}

func TestSolverDegradesOnFailureAndRecovers(t *testing.T) {
	s := newTestSolver(t)
	boom := errors.New("solver down")
	s.solveInner = func(ctx context.Context, c *compiled) (*Response, error) { return nil, boom }

	for i := 0; i < 3; i++ {
		resp, err := s.Solve(context.Background(), cliqueReq(ObjGroupput, 3+i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Provenance != ProvDegraded {
			t.Fatalf("failing solve %d: provenance %q", i, resp.Provenance)
		}
		if resp.Throughput <= 0 {
			t.Fatalf("degraded answer has throughput %v", resp.Throughput)
		}
	}
	if st, trips := s.breaker.snapshot(); st != "open" || trips != 1 {
		t.Fatalf("breaker %s trips=%d after 3 failures", st, trips)
	}
	// Open breaker: the solver must not even be consulted.
	s.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		t.Error("solve ran with the breaker open")
		return nil, boom
	}
	resp, err := s.Solve(context.Background(), cliqueReq(ObjGroupput, 9))
	if err != nil || resp.Provenance != ProvDegraded {
		t.Fatalf("breaker-open solve: %v %+v", err, resp)
	}

	// Heal the solver, expire the cool-down: the half-open probe closes
	// the circuit and answers turn exact again.
	s.solveInner = solveOracle
	s.breaker.mu.Lock()
	s.breaker.openedAt -= s.breaker.resetAfter
	s.breaker.mu.Unlock()
	resp, err = s.Solve(context.Background(), cliqueReq(ObjGroupput, 10))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provenance != ProvExact {
		t.Fatalf("post-recovery provenance %q", resp.Provenance)
	}
	if st, _ := s.breaker.snapshot(); st != "closed" {
		t.Fatalf("breaker %s after successful probe", st)
	}
}

func TestSolverWatchdogAbortsStuckSolve(t *testing.T) {
	s := newTestSolver(t)
	s.cfg.MaxSolve = 20 * time.Millisecond
	s.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		<-ctx.Done() // a well-behaved slow solve: aborts with its context
		return nil, ctx.Err()
	}
	start := time.Now()
	resp, err := s.Solve(context.Background(), cliqueReq(ObjGroupput, 4))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provenance != ProvDegraded {
		t.Fatalf("watchdog-fired solve provenance %q", resp.Provenance)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watchdog took %v", elapsed)
	}
}

func TestSolverCallerCancelPropagates(t *testing.T) {
	s := newTestSolver(t)
	s.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, cliqueReq(ObjGroupput, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The caller's death must not poison the breaker.
	if st, _ := s.breaker.snapshot(); st != "closed" {
		t.Fatalf("breaker %s after caller cancel", st)
	}
}

func TestDegradedFallbackFeasible(t *testing.T) {
	for _, obj := range []string{ObjGroupput, ObjAnyput} {
		c, err := cliqueReq(obj, 8).compile()
		if err != nil {
			t.Fatal(err)
		}
		resp := degraded(c)
		if resp.Provenance != ProvDegraded {
			t.Fatalf("%s: provenance %q", obj, resp.Provenance)
		}
		var sumBeta float64
		for i := range resp.Alpha {
			a, b := resp.Alpha[i], resp.Beta[i]
			if a < 0 || b < 0 || a+b > 1+1e-12 {
				t.Fatalf("%s: infeasible point alpha=%v beta=%v", obj, a, b)
			}
			sumBeta += b
		}
		if sumBeta > 1+1e-9 {
			t.Fatalf("%s: sum beta = %v violates (11)", obj, sumBeta)
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Solver == nil {
		cfg.Solver = newTestSolver(t)
	}
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestServerEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	client := NewClient(ClientConfig{BaseURL: ts.URL, Seed: 2})

	resp, err := client.Solve(context.Background(), cliqueReq(ObjGroupput, 6))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provenance != ProvExact || len(resp.Alpha) != 6 {
		t.Fatalf("first answer: %+v", resp)
	}
	resp2, err := client.Solve(context.Background(), cliqueReq(ObjGroupput, 6))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Provenance != ProvCached {
		t.Fatalf("repeat provenance %q", resp2.Provenance)
	}
	if resp2.Throughput != resp.Throughput {
		t.Fatal("cached throughput differs")
	}

	bounds, err := client.Solve(context.Background(), &Request{
		Objective: ObjBounds, N: 9, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4,
		Topology: &TopoSpec{Kind: "grid", Rows: 3, Cols: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bounds.Upper == nil || bounds.Upper.Throughput < bounds.Throughput-1e-9 {
		t.Fatalf("bounds answer missing or inverted: %+v", bounds)
	}

	st := srv.StatsSnapshot()
	if st.OK != 3 || st.Requests != 3 {
		t.Fatalf("stats after 3 requests: %+v", st)
	}
	if st.Solver.Exact != 2 || st.Solver.Cached != 1 {
		t.Fatalf("provenance counters: %+v", st.Solver)
	}
}

func TestServerBadRequestIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"objective":"nope","n":4,"rho":1e-5,"listen":5e-4,"transmit":5e-4}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytesReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestServerQueueFullIs429 fills a one-slot, one-place server: the
// arrival that finds the queue full gets 429 with Retry-After without
// reaching the solver, and once the slot frees the server answers 200
// again.
func TestServerQueueFullIs429(t *testing.T) {
	solver := newTestSolver(t)
	entered := make(chan struct{}, 1)
	unblock := make(chan struct{})
	solver.solveInner = func(ctx context.Context, c *compiled) (*Response, error) {
		entered <- struct{}{}
		<-unblock
		return solveOracle(ctx, c)
	}
	srv, ts := newTestServer(t, Config{Solver: solver, MaxInflight: 1, MaxQueue: 1})
	post := func(n int) (int, string) {
		body := fmt.Sprintf(`{"objective":"groupput","n":%d,"rho":1e-5,"listen":5e-4,"transmit":5e-4}`, n)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytesReader(body))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		_ = resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// One request holds the slot inside the solver, one waits in the
	// queue; both are answered once the solver is released.
	codes := make(chan int, 2)
	go func() { c, _ := post(4); codes <- c }()
	<-entered
	go func() { c, _ := post(5); codes <- c }()
	for srv.gate.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	code, after := post(6)
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full arrival: status %d, want 429", code)
	}
	if after == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := srv.StatsSnapshot(); st.QueueRejects != 1 {
		t.Fatalf("queue_rejects = %d after one refusal", st.QueueRejects)
	}

	solver.solveInner = solveOracle
	close(unblock)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("held request answered %d", c)
		}
	}
	if code, _ := post(6); code != http.StatusOK {
		t.Fatalf("post-recovery status %d", code)
	}
}

func TestClientRetriesAndHonorsRetryAfter(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits < 3 {
			w.Header().Set("Retry-After", "0") // ignored (non-positive): jittered backoff
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		writeJSON(w, http.StatusOK, &Response{Result: Result{Throughput: 1}, Provenance: ProvExact})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ClientConfig{BaseURL: ts.URL, Attempts: 4, BaseBackoff: time.Millisecond, Seed: 3})
	resp, err := c.Solve(context.Background(), cliqueReq(ObjGroupput, 4))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Throughput != 1 || hits != 3 {
		t.Fatalf("resp=%+v hits=%d", resp, hits)
	}
	if c.Attempts() != 3 || c.Retried() != 2 {
		t.Fatalf("attempts=%d retried=%d", c.Attempts(), c.Retried())
	}
}

func TestClientExhaustsBudget(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ClientConfig{BaseURL: ts.URL, Attempts: 3, BaseBackoff: time.Millisecond, Seed: 4})
	if _, err := c.Solve(context.Background(), cliqueReq(ObjGroupput, 4)); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
}

func TestClientBackoffDeterministic(t *testing.T) {
	a := NewClient(ClientConfig{BaseURL: "http://unused", Seed: 9})
	b := NewClient(ClientConfig{BaseURL: "http://unused", Seed: 9})
	for attempt := 1; attempt < 4; attempt++ {
		da, db := a.backoff(attempt, nil), b.backoff(attempt, nil)
		if da != db {
			t.Fatalf("attempt %d: %v != %v", attempt, da, db)
		}
		if da < a.cfg.BaseBackoff/2 {
			t.Fatalf("attempt %d: backoff %v below half base", attempt, da)
		}
	}
	ra := &retryAfterError{status: 429, after: 7 * time.Second}
	if d := a.backoff(1, ra); d != 7*time.Second {
		t.Fatalf("Retry-After not honored: %v", d)
	}
}

func bytesReader(s string) io.Reader { return strings.NewReader(s) }
