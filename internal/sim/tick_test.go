package sim

import (
	"reflect"
	"testing"

	"econcast/internal/model"
	"econcast/internal/topology"
)

// The tick cursor delivers the OnTick calls of one instant in ascending
// node order across three shards, exactly as the one-shard run does.
func TestTickCursorNodeOrder(t *testing.T) {
	type tick struct {
		node int
		now  float64
		eta  float64
	}
	base := gridCfg(3)
	base.Topology = topology.Grid(6, 9)
	base.Network = model.Homogeneous(54, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	base.Duration, base.Warmup = 20, 5
	if got := topology.NewPartition(base.Topology, 3).Shards(); got != 3 {
		t.Fatalf("%d shards, want 3", got)
	}
	n := base.Network.N()
	record := func(shards int) []tick {
		cfg := base
		cfg.Shards = shards
		var ticks []tick
		cfg.OnTick = func(node int, now, eta float64) { ticks = append(ticks, tick{node, now, eta}) }
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return ticks
	}
	one, three := record(1), record(3)
	if len(three) < 10*n || len(three)%n != 0 {
		t.Fatalf("%d ticks for %d nodes", len(three), n)
	}
	for k, tk := range three {
		if tk.node != k%n {
			t.Fatalf("tick %d is node %d at %v, want node %d", k, tk.node, tk.now, k%n)
		}
		if k%n > 0 && tk.now != three[k-1].now {
			t.Fatalf("tick %d at %v, the previous one at %v", k, tk.now, three[k-1].now)
		}
	}
	if !reflect.DeepEqual(three, one) {
		t.Fatal("the three-shard ticks differ from the one-shard run's")
	}
}
