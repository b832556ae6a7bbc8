package sim

import (
	"testing"
	"unsafe"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// steadyCoordinator builds a sharded engine on a 32x32 grid (16 shards
// of 8x8 blocks), warmed to steady state one event per step (see
// warmCoordinator), so subsequent events exercise the full coordinator
// path across shard boundaries.
func steadyCoordinator(tb testing.TB) *coordinator {
	tb.Helper()
	n := 32 * 32
	cfg := Config{
		Network:  model.Homogeneous(n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology: topology.Grid(32, 32),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		// Horizon and warmup are never reached: the benchmark measures the
		// dispatch loop, not the metrics window machinery (see steadyEngine).
		Duration:  1e18,
		Warmup:    1e17,
		Seed:      1,
		FreezeEta: true,
		Shards:    16,
	}
	return warmCoordinator(tb, cfg, 16)
}

// BenchmarkShardEventLoop measures one event through the sharded
// engine's hot path, including the coordinator's top-heap maintenance.
// The acceptance bar under -benchmem is 0 allocs/op, same as the
// one-shard clique loop.
func BenchmarkShardEventLoop(b *testing.B) {
	c := steadyCoordinator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.step() {
			b.Fatal("queues drained")
		}
	}
}

// TestShardEventLoopSteadyStateAllocs pins the sharded loop's
// allocation-free steady state (tolerance as in the one-shard pin:
// rare amortized high-water-mark growth only).
func TestShardEventLoopSteadyStateAllocs(t *testing.T) {
	c := steadyCoordinator(t)
	avg := testing.AllocsPerRun(50_000, func() {
		if !c.step() {
			t.Fatal("queues drained")
		}
	})
	if avg > 0.01 {
		t.Fatalf("sharded steady-state event loop allocates %.4f allocs/event, want 0", avg)
	}
}

// TestNodeHotSize pins the SoA compaction contract: the hot per-node
// record is exactly one cache line.
func TestNodeHotSize(t *testing.T) {
	if s := unsafe.Sizeof(nodeHot{}); s != 64 {
		t.Fatalf("nodeHot is %d bytes, want 64", s)
	}
}
