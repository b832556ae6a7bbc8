package serve

// Serving-latency benchmarks for BENCH_PR10.json. Each reports p50 and
// p99 request latency (custom ReportMetric columns, harvested by
// cmd/benchjson) measured through the full HTTP stack: client ->
// admission gate -> singleflight -> cache/solve -> JSON response.

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"econcast/internal/stats"
)

func benchLatencies(b *testing.B, req *Request) {
	b.Helper()
	solver, err := NewSolver(SolverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = solver.Close() }()
	srv := NewServer(Config{Solver: solver})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ClientConfig{BaseURL: ts.URL, Attempts: 2, Seed: 43})

	// Warm: the first request pays the LP solve; steady-state serving is
	// the cache-hit path, which is what a re-adapting fleet sees.
	if _, err := client.Solve(context.Background(), req); err != nil {
		b.Fatal(err)
	}

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := client.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds()))
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(stats.Quantile(lat, 0.50), "p50-ns")
	b.ReportMetric(stats.Quantile(lat, 0.99), "p99-ns")
}

// BenchmarkServeGroupputCached is the steady-state healthy path: a
// clique groupput query answered from the persistent cache.
func BenchmarkServeGroupputCached(b *testing.B) {
	benchLatencies(b, cliqueReq(ObjGroupput, 16))
}

// BenchmarkServeBoundsCached is the same path for the non-clique bounds
// objective (larger response: lower + upper operating points).
func BenchmarkServeBoundsCached(b *testing.B) {
	benchLatencies(b, &Request{
		Objective: ObjBounds, N: 16, Rho: 1e-5, Listen: 5e-4, Transmit: 5e-4,
		Topology: &TopoSpec{Kind: "ring"},
	})
}

// BenchmarkServeSolveExact measures the uncached leg: every iteration
// solves a fresh heterogeneous fleet through the LP (distinct budgets
// defeat both the serving cache and the oracle memo).
func BenchmarkServeSolveExact(b *testing.B) {
	solver, err := NewSolver(SolverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = solver.Close() }()
	srv := NewServer(Config{Solver: solver})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ClientConfig{BaseURL: ts.URL, Attempts: 2, Seed: 45})

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]NodeSpec, 8)
		for j := range nodes {
			nodes[j] = NodeSpec{
				Budget:   1e-5 * (1 + float64(i*len(nodes)+j+1)/1e6),
				Listen:   5e-4,
				Transmit: 5e-4,
			}
		}
		req := &Request{Objective: ObjGroupput, Nodes: nodes}
		start := time.Now()
		if _, err := client.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds()))
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(stats.Quantile(lat, 0.50), "p50-ns")
	b.ReportMetric(stats.Quantile(lat, 0.99), "p99-ns")
}

// BenchmarkGateAdmit pins the admission decision itself: the path that
// runs once per arrival even at full overload must stay allocation-free
// (hotalloc root) and fast.
func BenchmarkGateAdmit(b *testing.B) {
	g := newGate(64, 256)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.admit(ctx) == admitOK {
			g.release()
		}
	}
}
