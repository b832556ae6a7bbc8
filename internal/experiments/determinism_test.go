package experiments

import (
	"strings"
	"testing"
)

// formatAll renders an experiment's full output as one string, exactly as
// cmd/experiments prints it.
func formatAll(t *testing.T, id string, opts Options) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Format())
	}
	return b.String()
}

// TestSweepOutputIdenticalAcrossWorkerCounts is the sweep engine's
// acceptance bar, exercised through a real sim-backed experiment: fig6
// fans out oracle and simulation cells, and its formatted output must be
// byte-identical whether the pool runs serially or with any number of
// workers. Seeds are derived per cell (not from dispatch order) and
// results are collected in index order, so worker count must be
// unobservable.
func TestSweepOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-backed sweep in -short mode")
	}
	if raceEnabled {
		// Byte-identity across worker counts does not depend on race
		// instrumentation, which multiplies sim wall clock ~10x and
		// pushes the package past go test's default timeout on small
		// runners; internal/sweep has its own -race stress tests.
		t.Skip("sim-backed sweep under -race")
	}
	base := formatAll(t, "fig6", Options{Quick: true, Seed: 1, Workers: 1})
	for _, workers := range []int{4, 16} {
		got := formatAll(t, "fig6", Options{Quick: true, Seed: 1, Workers: workers})
		if got != base {
			t.Errorf("fig6 output differs between workers=1 and workers=%d\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestFaultedSweepsIdenticalAcrossWorkerCounts extends the byte-identity
// bar to the experiments whose cells carry side processes beyond the
// protocol's own draws: churn (the liveness predicate) and faults (the
// compiled fault schedules, including per-receiver loss streams). Fault
// streams are derived from (seed, process, node) — never from dispatch
// order — so the worker count must remain unobservable.
func TestFaultedSweepsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-backed sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("sim-backed sweep under -race (see TestSweepOutputIdenticalAcrossWorkerCounts)")
	}
	for _, id := range []string{"churn", "faults"} {
		base := formatAll(t, id, Options{Quick: true, Seed: 1, Workers: 1})
		for _, workers := range []int{4, 16} {
			got := formatAll(t, id, Options{Quick: true, Seed: 1, Workers: workers})
			if got != base {
				t.Errorf("%s output differs between workers=1 and workers=%d\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					id, workers, base, workers, got)
			}
		}
	}
}

// TestScaleSweepIdenticalAcrossWorkerCounts pins the engine's contract
// through the sweep layer: the scale experiment fans multi-thousand-node
// sims out as sweep cells, and its deterministic table must be
// byte-identical at workers 1, 4, and 16 — the pool's worker count is
// unobservable.
func TestScaleSweepIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-backed sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("sim-backed sweep under -race (see TestSweepOutputIdenticalAcrossWorkerCounts)")
	}
	base := formatAll(t, "scale", Options{Quick: true, Seed: 1, Workers: 1})
	for _, workers := range []int{4, 16} {
		got := formatAll(t, "scale", Options{Quick: true, Seed: 1, Workers: workers})
		if got != base {
			t.Errorf("scale output differs between workers=1 and workers=%d\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestSweepAggregationIdenticalAcrossWorkerCounts covers the other
// order-sensitivity hazard: discovery feeds per-replicate cells into
// running-mean accumulators, whose floating-point results depend on feed
// order. Index-ordered collection must make that order (and thus the
// formatted means) independent of the worker count.
func TestSweepAggregationIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-backed sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("sim-backed sweep under -race (see TestSweepOutputIdenticalAcrossWorkerCounts)")
	}
	base := formatAll(t, "discovery", Options{Quick: true, Seed: 1, Workers: 1})
	got := formatAll(t, "discovery", Options{Quick: true, Seed: 1, Workers: 8})
	if got != base {
		t.Errorf("discovery output differs between workers=1 and workers=8\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", base, got)
	}
}
