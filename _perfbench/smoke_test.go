package main

import (
	"testing"
	"time"
)

// TestSmokeTracedWorkloads runs every workload traced at a tiny size, in
// this process, and checks that together they measure every per-layer
// metric the traced run reports (the tracing overhead is the parent's).
func TestSmokeTracedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	const seed = 7
	got := map[string]bool{}
	run := func(name string, fn func(tr *tracer) *result) {
		tr := newTracer()
		res := fn(tr)
		if len(res.Fails) > 0 || res.Ops == 0 || !(res.WallS > 0) {
			t.Fatalf("%s: ops %d wall %g fails %v", name, res.Ops, res.WallS, res.Fails)
		}
		for k := range res.Layer {
			got[k] = true
		}
		spans := tr.snapshot()
		for id, self := range selfTimes(spans) {
			if self < 0 {
				t.Errorf("%s: span %d has negative self time %d", name, id, self)
			}
		}
		for layer := range layerSelf(spans) {
			got["self."+layer+"_s"] = true
		}
	}
	// 64x64 is the smallest grid the auto-sharding (and, on more than one
	// core, the window-parallel engine) takes.
	run("grid", func(tr *tracer) *result {
		return runGrid(gridSize{rows: 64, cols: 64, duration: 0.02, warmup: 0.005}, seed, tr)
	})
	run("paper", func(tr *tracer) *result { return runPaper([]string{"fig2"}, seed, time.Now(), tr) })
	run("oracled", func(tr *tracer) *result {
		return runOracled(oracledSize{pool: 4, openN: 60, rate: 2000, closedN: 60}, seed, tr)
	})

	// The smoke run regenerates only fig2.
	skip := map[string]bool{"trace.overhead_frac": true, "experiments.fig4_s": true, "experiments.fig5_s": true, "experiments.fig6_s": true}
	for _, m := range perLayer {
		if !got[m.Name] && !skip[m.Name] {
			t.Errorf("per-layer metric %s not measured", m.Name)
		}
	}
}

func TestUntracedRepeatsAreDeterministic(t *testing.T) {
	sz := gridSize{rows: 64, cols: 64, duration: 0.01, warmup: 0.002}
	a, b := runGrid(sz, 3, nil), runGrid(sz, 3, nil)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("same seed, different grid outputs: %q vs %q", a.Digest, b.Digest)
	}
	if c := runGrid(sz, 4, nil); c.Digest == a.Digest {
		t.Fatalf("different seeds gave the same output %q", c.Digest)
	}
}
