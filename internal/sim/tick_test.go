package sim

import (
	"testing"

	"econcast/internal/topology"
)

// The tick cursor delivers the OnTick calls of one instant in ascending
// node order, every node at every instant, before the next instant.
func TestTickCursorNodeOrder(t *testing.T) {
	type tick struct {
		node int
		now  float64
	}
	cfg := withNodes(gridCfg(3), topology.Grid(6, 9))
	cfg.Duration, cfg.Warmup = 20, 5
	n := cfg.Network.N()
	var ticks []tick
	cfg.OnTick = func(node int, now, eta float64) { ticks = append(ticks, tick{node, now}) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(ticks) < 10*n || len(ticks)%n != 0 {
		t.Fatalf("%d ticks for %d nodes", len(ticks), n)
	}
	for k, tk := range ticks {
		if tk.node != k%n {
			t.Fatalf("tick %d is node %d at %v, want node %d", k, tk.node, tk.now, k%n)
		}
		if k%n > 0 && tk.now != ticks[k-1].now {
			t.Fatalf("tick %d at %v, the previous one at %v", k, tk.now, ticks[k-1].now)
		}
		if k%n == 0 && k > 0 && !(tk.now > ticks[k-1].now) {
			t.Fatalf("tick %d at %v does not follow the previous instant %v", k, tk.now, ticks[k-1].now)
		}
	}
}
