package sim

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/topology"
)

// assertParallelIdentity is the core contract check of the parallel
// engine: for every forced worker count, at GOMAXPROCS 1, 4, and 16,
// the metrics must be deeply equal to a one-shard serial run's — not
// statistically close, the same values. (The event log is a serial-only
// hook, so unlike the shard tests the comparison vehicle is the full
// Metrics struct, whose latency CDF seals the per-delivery samples.)
func assertParallelIdentity(t *testing.T, cfg Config, workerCounts []int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	shards := cfg.Shards
	cfg.Parallel, cfg.Shards = 1, 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shards
	for _, gm := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(gm)
		for _, w := range workerCounts {
			cfg.Parallel = w
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %v", gm, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: metrics diverged from the one-shard serial run:\n  want %+v\n  got  %+v",
					gm, w, want, got)
			}
		}
	}
}

func TestParallelIdentityGridCapture(t *testing.T) {
	assertParallelIdentity(t, gridCfg(7), []int{2, 4, 9})
}

// TestParallelIdentityGridNonCapture pins the degenerate-window case:
// NonCapture's wdepth=6 makes every node of a 6x6 grid split into 3x6
// blocks a boundary node, so the parallel engine must fall through to
// pure serial steps and still match.
func TestParallelIdentityGridNonCapture(t *testing.T) {
	cfg := gridCfg(11)
	cfg.Protocol.Variant = econcast.NonCapture
	assertParallelIdentity(t, cfg, []int{2, 4})
}

// TestParallelIdentityRingNonCapture gives NonCapture real interiors:
// 24-node ring halves leave nodes more than 6 hops from any boundary.
func TestParallelIdentityRingNonCapture(t *testing.T) {
	cfg := gridCfg(3)
	cfg.Network = model.Homogeneous(48, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Ring(48)
	cfg.Protocol.Variant = econcast.NonCapture
	assertParallelIdentity(t, cfg, []int{2, 4})
}

func TestParallelIdentityRandomGeometric(t *testing.T) {
	cfg := gridCfg(19)
	cfg.Network = model.Homogeneous(50, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.RandomGeometric(50, 0.3, rng.New(5))
	assertParallelIdentity(t, cfg, []int{3, 8})
}

// TestParallelIdentityFiner pins workers striding over more shards than
// workers: an explicit 9-way split driven by a 2-worker pool.
func TestParallelIdentityFiner(t *testing.T) {
	cfg := gridCfg(29)
	cfg.Shards = 9
	assertParallelIdentity(t, cfg, []int{2, 3})
}

// TestParallelIdentitySingleNodeShards pins the no-interior degenerate
// partition: with every node its own shard, every interior heap stays
// empty and each window drains nothing for most shards.
func TestParallelIdentitySingleNodeShards(t *testing.T) {
	cfg := gridCfg(53)
	cfg.Network = model.Homogeneous(16, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Grid(4, 4)
	cfg.Shards = 16
	assertParallelIdentity(t, cfg, []int{4, 16})
}

// TestParallelIdentityFaults runs every fault process at once through
// the window machinery; the fault trace is part of the compared metrics.
func TestParallelIdentityFaults(t *testing.T) {
	cfg := gridCfg(31)
	cfg.Faults = &faults.Config{
		Crash:    &faults.Crash{MeanUp: 40, MeanDown: 10},
		Loss:     &faults.Loss{P: 0.1},
		Drift:    &faults.Drift{Max: 0.05},
		Brownout: &faults.Brownout{MeanEvery: 60, MeanFor: 20},
		Silence:  &faults.Silence{MeanEvery: 80, MeanFor: 5},
	}
	assertParallelIdentity(t, cfg, []int{2, 4})
}

// TestParallelIdentityTargetedCrash kills an interior corner node (node
// 0 sits three hops from the foreign half of a 2-way 6x6 split, so its
// crash executes inside a window) and a boundary node at a fixed time.
func TestParallelIdentityTargetedCrash(t *testing.T) {
	cfg := gridCfg(43)
	cfg.Faults = &faults.Config{
		Crash: &faults.Crash{Kill: []int{0, 14, 35}, KillAt: 120},
	}
	assertParallelIdentity(t, cfg, []int{2, 4, 9})
}

// TestParallelAutoMatchesForced pins the auto path end to end: at
// GOMAXPROCS 4 a hook-free 4096-node run leaves auto on the serial
// sharded coordinator, and a forced 4-worker window-parallel run of the
// same config still matches a one-shard serial run.
func TestParallelAutoMatchesForced(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	n := 64 * 64
	cfg := Config{
		Network:  model.Homogeneous(n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology: topology.Grid(64, 64),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration: 6,
		Warmup:   1,
		Seed:     61,
	}
	runtime.GOMAXPROCS(4)
	if got := cfg.parallelPlan(); got != 1 {
		t.Fatalf("expected auto to pick the serial engine at n=%d, got %d workers", n, got)
	}
	forced := cfg
	forced.Parallel = 4
	got, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(prev)
	cfg.Parallel, cfg.Shards = 1, 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("forced 4-worker parallel run diverged from the one-shard serial run")
	}
}

// TestParallelPlan pins the Parallel -> engine selection rules,
// including every serial-only hook.
func TestParallelPlan(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(4)

	grid := topology.Grid(10, 10)
	big := topology.Grid(64, 64)
	mk := func(mut func(*Config)) *Config {
		c := &Config{Topology: grid}
		if mut != nil {
			mut(c)
		}
		return c
	}
	cases := []struct {
		name string
		cfg  *Config
		want int
	}{
		{"clique", mk(func(c *Config) { c.Topology = nil; c.Parallel = 8 }), 1},
		{"forced-serial", mk(func(c *Config) { c.Parallel = 1 }), 1},
		{"forced-workers", mk(func(c *Config) { c.Parallel = 8 }), 8},
		{"auto-small", mk(nil), 1},
		{"auto-large", &Config{Topology: big}, 1},
		{"eventlog", mk(func(c *Config) { c.Parallel = 8; c.EventLog = &noopWriter{} }), 1},
		{"ondeliver", mk(func(c *Config) { c.Parallel = 8; c.OnDeliver = func(int, int, float64) {} }), 1},
		{"ontick", mk(func(c *Config) { c.Parallel = 8; c.OnTick = func(int, float64, float64) {} }), 1},
		{"estimate", mk(func(c *Config) { c.Parallel = 8; c.EstimateListeners = func(a int, _ *rng.Source) int { return a } }), 1},
		{"occupancy", mk(func(c *Config) { c.Parallel = 8; c.TrackOccupancy = true }), 1},
		{"churn", mk(func(c *Config) { c.Parallel = 8; c.Churn = func(int, float64) bool { return true } }), 1},
		{"harvest", mk(func(c *Config) { c.Parallel = 8; c.Harvest = func(int, float64) float64 { return 0 } }), 1},
	}
	for _, tc := range cases {
		if got := tc.cfg.parallelPlan(); got != tc.want {
			t.Errorf("%s: parallelPlan = %d, want %d", tc.name, got, tc.want)
		}
	}
}

type noopWriter struct{}

func (*noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestParallelWindowsExecute is the white-box guard that the identity
// tests above actually exercise the window phase (a wdepth regression
// that made every node a boundary node would pass them trivially).
func TestParallelWindowsExecute(t *testing.T) {
	p := newParCoordinator(gridCfg(7), nil, 2, 2)
	p.run()
	if p.windows == 0 {
		t.Fatal("no windows dispatched on a 2-way 6x6 split; interior classification is broken")
	}
	m := p.finish()
	if m.Events == 0 || m.PacketsSent == 0 {
		t.Fatalf("window run produced no activity: %+v", m)
	}
}

// TestNodeHotSize pins the SoA compaction contract: the hot per-node
// record is exactly one cache line.
func TestNodeHotSize(t *testing.T) {
	if s := unsafe.Sizeof(nodeHot{}); s != 64 {
		t.Fatalf("nodeHot is %d bytes, want 64", s)
	}
}
