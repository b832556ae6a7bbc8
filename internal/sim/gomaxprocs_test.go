package sim

import (
	"reflect"
	"runtime"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/topology"
)

// assertParallelIdentity pins two invariants the shard-equivalence
// suite does not vary: output is independent of GOMAXPROCS, and the
// deprecated Config.Parallel field is inert. At GOMAXPROCS 1, 4, and
// 16, a run with cfg's shard setting and each given Parallel value must
// deep-equal a one-shard run with Parallel unset — not statistically
// close, the same values.
func assertParallelIdentity(t *testing.T, cfg Config, parallel []int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ref := cfg
	ref.Parallel, ref.Shards = 0, 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, gm := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(gm)
		for _, p := range parallel {
			cfg.Parallel = p
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d Parallel=%d: %v", gm, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d Parallel=%d: metrics diverged from the one-shard run:\n  want %+v\n  got  %+v",
					gm, p, want, got)
			}
		}
	}
}

func TestParallelIdentityGridCapture(t *testing.T) {
	cfg := gridCfg(7)
	cfg.Shards = 2
	assertParallelIdentity(t, cfg, []int{2, 4, 9})
}

func TestParallelIdentityGridNonCapture(t *testing.T) {
	cfg := gridCfg(11)
	cfg.Protocol.Variant = econcast.NonCapture
	cfg.Shards = 4
	assertParallelIdentity(t, cfg, []int{2, 4})
}

func TestParallelIdentityRingNonCapture(t *testing.T) {
	cfg := gridCfg(3)
	cfg.Network = model.Homogeneous(48, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Ring(48)
	cfg.Protocol.Variant = econcast.NonCapture
	cfg.Shards = 2
	assertParallelIdentity(t, cfg, []int{2, 4})
}

func TestParallelIdentityRandomGeometric(t *testing.T) {
	cfg := gridCfg(19)
	cfg.Network = model.Homogeneous(50, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.RandomGeometric(50, 0.3, rng.New(5))
	cfg.Shards = 3
	assertParallelIdentity(t, cfg, []int{3, 8})
}

func TestParallelIdentityFiner(t *testing.T) {
	cfg := gridCfg(29)
	cfg.Shards = 9
	assertParallelIdentity(t, cfg, []int{2, 3})
}

func TestParallelIdentitySingleNodeShards(t *testing.T) {
	cfg := gridCfg(53)
	cfg.Network = model.Homogeneous(16, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Grid(4, 4)
	cfg.Shards = 16
	assertParallelIdentity(t, cfg, []int{4, 16})
}

func TestParallelIdentityFaults(t *testing.T) {
	cfg := gridCfg(31)
	cfg.Faults = &faults.Config{
		Crash:    &faults.Crash{MeanUp: 40, MeanDown: 10},
		Loss:     &faults.Loss{P: 0.1},
		Drift:    &faults.Drift{Max: 0.05},
		Brownout: &faults.Brownout{MeanEvery: 60, MeanFor: 20},
		Silence:  &faults.Silence{MeanEvery: 80, MeanFor: 5},
	}
	cfg.Shards = 2
	assertParallelIdentity(t, cfg, []int{2, 4})
}

// TestParallelIdentityTargetedCrash kills a corner node, a mid-grid
// node, and the opposite corner at a fixed time on a 2-way split.
func TestParallelIdentityTargetedCrash(t *testing.T) {
	cfg := gridCfg(43)
	cfg.Faults = &faults.Config{
		Crash: &faults.Crash{Kill: []int{0, 14, 35}, KillAt: 120},
	}
	cfg.Shards = 2
	assertParallelIdentity(t, cfg, []int{2, 4, 9})
}

// TestParallelAutoMatchesForced pins the auto path end to end at
// GOMAXPROCS 4: a 4096-node run auto-shards four ways whatever Parallel
// says, and still matches a one-shard run.
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
		Parallel: 4,
	}
	runtime.GOMAXPROCS(4)
	if got := cfg.shardPlan(); got != 4 {
		t.Fatalf("expected auto to pick 4 shards at n=%d, got %d", n, got)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(prev)
	cfg.Parallel, cfg.Shards = 0, 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("auto-sharded run with Parallel set diverged from the one-shard run")
	}
}
