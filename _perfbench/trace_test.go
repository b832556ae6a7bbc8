package main

import "testing"

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "loadgen.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "loadgen.b", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "serve.handler", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "sim.run", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if got := layers["loadgen"]; !near(got, 50e-9) {
		t.Errorf("loadgen self = %g s, want 5e-8", got)
	}
}
