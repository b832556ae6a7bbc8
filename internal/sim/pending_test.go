package sim

import (
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// TestPendingEventsBounded pins the one-pending-transition invariant:
// after every step, each shard's transition heap holds at most one entry
// per owned node, and its event queue at most two per owned node plus
// the fault boundaries pushed at start (the queue holds only packet
// ends and fault boundaries; ticks come from the shard's cursor). A
// superseded transition is cancelled in place and a frozen one
// suspended, so nothing accumulates. Left in the heap to be dropped at
// dispatch instead, the superseded transitions of the cold clique below
// peak at 1,079,115 entries for ten nodes: its multipliers grow until
// sleep dwells run past the horizon, and those entries are never
// popped. The grid runs on two shards so that carrier-sense freezes and
// resamples remove transitions across the shard boundary.
func TestPendingEventsBounded(t *testing.T) {
	grid := gridCfg(5)
	grid.Network = model.Homogeneous(100, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	grid.Topology = topology.Grid(10, 10)
	for _, tc := range []struct {
		name   string
		cfg    Config
		shards int
	}{
		{"cold-clique", Config{
			Network:  model.Homogeneous(10, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
			Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
			Duration: 5000,
			Warmup:   500,
			Seed:     3,
		}, 1},
		{"grid-2-shards", grid, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Topology == nil {
				cfg.Topology = topology.Clique(cfg.Network.N())
			}
			flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			c := newCoordinator(cfg, flt, tc.shards)
			c.batchLimit = 1 // one event per step, so the bound is checked between any two
			owned := make([]int, len(c.shards))
			bounds := make([]int, len(c.shards))
			for i := 0; i < c.n; i++ {
				s := c.hot[i].shardOf
				owned[s]++
				c.flt.Boundaries(i, func(float64) { bounds[s]++ })
			}
			prev := make([]int, len(c.shards))
			foreignCancels, maxQueue := 0, 0
			check := func() {
				for s := range c.shards {
					sh := &c.shards[s]
					if len(sh.trans.keys) > owned[s] {
						t.Fatalf("shard %d: %d pending transitions for %d nodes", s, len(sh.trans.keys), owned[s])
					}
					if len(sh.queue) > 2*owned[s]+bounds[s] {
						t.Fatalf("shard %d: %d queued events for %d nodes and %d fault boundaries",
							s, len(sh.queue), owned[s], bounds[s])
					}
					if len(sh.queue) > maxQueue {
						maxQueue = len(sh.queue)
					}
					// Only the drained shard pops; a foreign shard's heap
					// shrinks only through a cancel or a freeze.
					if int32(s) != c.current && len(sh.trans.keys) < prev[s] {
						foreignCancels++
					}
					prev[s] = len(sh.trans.keys)
				}
			}
			c.start()
			check()
			steps := 0
			for c.step() {
				check()
				steps++
			}
			if steps < 10_000 {
				t.Fatalf("only %d steps; the check is too weak", steps)
			}
			if tc.shards > 1 && foreignCancels == 0 {
				t.Fatal("no cancel crossed a shard boundary; the cross-shard path went unchecked")
			}
			t.Logf("%d steps, %d cross-shard cancels, queue high-water %d", steps, foreignCancels, maxQueue)
		})
	}
}
