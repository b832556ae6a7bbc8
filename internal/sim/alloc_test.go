package sim

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// warmCoordinator builds a coordinator and pumps it past its transient,
// one event per step: the packet-end ring and listener slots are at their
// high-water marks, so subsequent steps exercise pure steady state.
// cfg's horizon must lie beyond the pump.
func warmCoordinator(tb testing.TB, cfg Config) *coordinator {
	tb.Helper()
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := newCoordinator(cfg, flt)
	if err != nil {
		tb.Fatal(err)
	}
	c.start()
	for i := 0; i < 200_000; i++ {
		if !c.step() {
			tb.Fatal("queues drained during warm-up")
		}
	}
	return c
}

// steadyEngine is the reference steady-state loop: an 8-node clique
// with an effectively infinite horizon.
func steadyEngine(tb testing.TB) *coordinator {
	tb.Helper()
	nw := model.Homogeneous(8, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg := Config{
		Network:  nw,
		Topology: topology.Clique(8),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		// The horizon and warmup are never reached: the benchmark measures
		// the event loop itself, not the metrics window machinery. Eta is
		// frozen so the transition-rate mix (and with it the packet-end
		// ring's high-water mark) is stationary rather than drifting with the
		// multiplier adaptation.
		Duration:  1e18,
		Warmup:    1e17,
		Seed:      1,
		FreezeEta: true,
	}
	return warmCoordinator(tb, cfg)
}

// BenchmarkEventLoop measures one discrete event through the serial
// dispatch path on a clique. Run with -benchmem: the acceptance bar for
// the allocation-free event loop is 0 allocs/op here.
func BenchmarkEventLoop(b *testing.B) {
	benchSteps(b, steadyEngine(b))
}

// benchSteps steps the warm coordinator c b.N times and reports the time
// per dispatched event (Metrics.Events), the per-event cost comparable
// across engine changes that alter how many steps dispatch nothing.
func benchSteps(b *testing.B, c *coordinator) {
	b.ReportAllocs()
	events := c.met.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.step() {
			b.Fatal("queue drained")
		}
	}
	if n := c.met.Events - events; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}

// TestEventLoopSteadyStateAllocs is the executable form of the same bar:
// steady-state events must not allocate. A tiny tolerance (well under
// one allocation per hundred events) absorbs the rare amortized
// high-water-mark growth of the packet-end ring.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	c := steadyEngine(t)
	avg := testing.AllocsPerRun(50_000, func() {
		if !c.step() {
			t.Fatal("queue drained")
		}
	})
	if avg > 0.01 {
		t.Fatalf("steady-state event loop allocates %.4f allocs/event, want 0", avg)
	}
}

// BenchmarkEventLoopNonClique is the grid-topology variant: non-clique
// runs additionally exercise hidden-terminal collisions, which must also
// stay allocation-free.
func BenchmarkEventLoopNonClique(b *testing.B) {
	nw := model.Homogeneous(25, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg := Config{
		Network:  nw,
		Topology: topology.SquareGrid(25),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		Duration: 1e18,
		Warmup:   1e17,
		Seed:     1,
	}
	benchSteps(b, warmCoordinator(b, cfg))
}

// BenchmarkEventLoopGrid is the large-N variant, on the grid-100k
// workload's 316×316 grid: its per-node records, windows and heap far
// outgrow the L2 cache, so the cost of reaching a neighbor's record, which
// the small-cell benchmarks above keep in cache, shows in ns/event.
func BenchmarkEventLoopGrid(b *testing.B) {
	sc := scaleBenchCases()[2]
	cfg := sc.config(1)
	cfg.Duration, cfg.Warmup = 1e18, 1e17
	benchSteps(b, warmCoordinator(b, cfg))
}

// TestNodeHotSize pins the dispatch-path line: nodeHot is exactly one
// cache line.
func TestNodeHotSize(t *testing.T) {
	if s := unsafe.Sizeof(nodeHot{}); s != 64 {
		t.Fatalf("nodeHot is %d bytes, want 64", s)
	}
}

// TestNodeRecordLayout pins the per-node record: three cache lines, with
// the dispatch-path line first, so a neighbor's carrier update loads one
// line and a node's own event finds its stream, memo and core in the
// two after it.
func TestNodeRecordLayout(t *testing.T) {
	var nd node
	if s := unsafe.Sizeof(nd); s != 192 {
		t.Fatalf("node is %d bytes, want 192", s)
	}
	if o := unsafe.Offsetof(nd.nodeHot); o != 0 {
		t.Fatalf("nodeHot at offset %d, want 0", o)
	}
}

// TestCSROffsetsOverflow pins the guard on the int32 windows: a degree
// sum past MaxInt32 is an error, never a wrapped offset. The degrees are
// faked, so no such topology is built.
func TestCSROffsetsOverflow(t *testing.T) {
	degree := func(i int) int { return 1<<30 - i }
	off, err := csrOffsets(2, degree)
	if err != nil {
		t.Fatalf("degree sum MaxInt32: %v", err)
	}
	if want := []int32{0, 1 << 30, math.MaxInt32}; !slices.Equal(off, want) {
		t.Fatalf("offsets %v, want %v", off, want)
	}
	if _, err := csrOffsets(3, degree); err == nil {
		t.Fatal("degree sum past MaxInt32 accepted")
	}
}

// TestRunAllocsBounded pins the allocations of one whole Run on a 32×32
// grid: the run's arrays and the amortized growth of its packet ring and
// latency samples, nothing per node. Each node's RNG stream is seeded in
// place in its record rather than allocated; allocating one per node
// would put 1,024 allocations on top.
func TestRunAllocsBounded(t *testing.T) {
	cfg := scaleBenchCases()[0].config(1)
	cfg.Duration, cfg.Warmup = 0.05, 0.01
	avg := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 100 {
		t.Fatalf("Run on %d nodes allocates %.0f times, want at most 100", cfg.Network.N(), avg)
	}
	t.Logf("%.0f allocations per Run on %d nodes", avg, cfg.Network.N())
}
