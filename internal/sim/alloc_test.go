package sim

import (
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// warmCoordinator builds a coordinator with the given shard count,
// sets its batch limit to one so each step drives exactly one event
// through the full dispatch path (shard pick, lookahead bound, dispatch,
// heap repair), and pumps it past its transient: queue capacities and
// listener slots are at their high-water marks, so subsequent steps
// exercise pure steady state. cfg's horizon must lie beyond the pump.
func warmCoordinator(tb testing.TB, cfg Config, shards int) *coordinator {
	tb.Helper()
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	c := newCoordinator(cfg, flt, shards)
	c.batchLimit = 1
	c.start()
	for i := 0; i < 200_000; i++ {
		if !c.step() {
			tb.Fatal("queues drained during warm-up")
		}
	}
	return c
}

// steadyEngine is the reference steady-state loop: one coordinator
// shard on an 8-node clique with an effectively infinite horizon.
func steadyEngine(tb testing.TB) *coordinator {
	tb.Helper()
	nw := model.Homogeneous(8, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg := Config{
		Network:  nw,
		Topology: topology.Clique(8),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		// The horizon and warmup are never reached: the benchmark measures
		// the event loop itself, not the metrics window machinery. Eta is
		// frozen so the transition-rate mix (and with it the event queue's
		// high-water mark) is stationary rather than drifting with the
		// multiplier adaptation.
		Duration:  1e18,
		Warmup:    1e17,
		Seed:      1,
		FreezeEta: true,
	}
	return warmCoordinator(tb, cfg, 1)
}

// BenchmarkEventLoop measures one discrete event through the serial
// dispatch path on a clique. Run with -benchmem: the acceptance bar for
// the allocation-free event loop is 0 allocs/op here.
func BenchmarkEventLoop(b *testing.B) {
	c := steadyEngine(b)
	b.ReportAllocs()
	events := c.met.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.step() {
			b.Fatal("queue drained")
		}
	}
	reportNsPerEvent(b, c, events)
}

// reportNsPerEvent reports the benchmark's time per dispatched event
// (Metrics.Events), the per-event cost comparable across engine changes
// that alter how many steps dispatch nothing. events is the count at
// the timer reset.
func reportNsPerEvent(b *testing.B, c *coordinator, events int) {
	if n := c.met.Events - events; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}

// TestEventLoopSteadyStateAllocs is the executable form of the same bar:
// steady-state events must not allocate. A tiny tolerance (well under
// one allocation per hundred events) absorbs the rare amortized
// high-water-mark growth of the event queue.
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

// BenchmarkEventLoopNonClique is the grid-topology variant on one
// shard: non-clique runs additionally exercise hidden-terminal
// collisions, which must also stay allocation-free.
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
	c := warmCoordinator(b, cfg, 1)
	b.ReportAllocs()
	events := c.met.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.step() {
			b.Fatal("queue drained")
		}
	}
	reportNsPerEvent(b, c, events)
}
