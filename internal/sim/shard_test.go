package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sweep"
	"econcast/internal/topology"
)

// runLogged runs cfg with a full event trace attached and returns the
// metrics plus the trace.
func runLogged(t *testing.T, cfg Config) (*Metrics, string) {
	t.Helper()
	var log strings.Builder
	cfg.EventLog = &log
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, log.String()
}

// assertShardEquivalence is the core contract check of the sharded
// engine: for every requested shard count, the full event trace must be
// byte-identical to the single-queue engine's and the metrics must be
// deeply equal — not statistically close, the same bytes.
func assertShardEquivalence(t *testing.T, cfg Config, shardCounts []int) {
	t.Helper()
	cfg.Shards = 1
	wantM, wantLog := runLogged(t, cfg)
	for _, k := range shardCounts {
		cfg.Shards = k
		gotM, gotLog := runLogged(t, cfg)
		if gotLog != wantLog {
			d := firstDiff(wantLog, gotLog)
			t.Fatalf("shards=%d: event trace diverged from single-queue engine at byte %d:\n  want ...%q\n  got  ...%q",
				k, d, clip(wantLog, d), clip(gotLog, d))
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("shards=%d: metrics diverged:\n  want %+v\n  got  %+v", k, wantM, gotM)
		}
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(s string, at int) string {
	lo, hi := at-40, at+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// gridCfg is a busy 6x6 grid: budgets high enough that transmissions,
// holds, and hidden-terminal collisions all occur frequently.
func gridCfg(seed uint64) Config {
	n := 36
	return Config{
		Network:  model.Homogeneous(n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology: topology.Grid(6, 6),
		Protocol: Protocol{
			Mode:    model.Groupput,
			Variant: econcast.Capture,
			Sigma:   0.5,
		},
		Duration: 300,
		Warmup:   50,
		Seed:     seed,
	}
}

func TestShardEquivalenceGridCapture(t *testing.T) {
	assertShardEquivalence(t, gridCfg(7), []int{2, 4, 9, 36})
}

func TestShardEquivalenceGridNonCapture(t *testing.T) {
	cfg := gridCfg(11)
	cfg.Protocol.Variant = econcast.NonCapture
	assertShardEquivalence(t, cfg, []int{2, 4, 9})
}

func TestShardEquivalenceRing(t *testing.T) {
	cfg := gridCfg(3)
	cfg.Network = model.Homogeneous(24, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Ring(24)
	assertShardEquivalence(t, cfg, []int{2, 5, 24})
}

func TestShardEquivalenceRandomGeometric(t *testing.T) {
	cfg := gridCfg(19)
	cfg.Network = model.Homogeneous(50, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.RandomGeometric(50, 0.3, rng.New(5))
	assertShardEquivalence(t, cfg, []int{3, 8})
}

func TestShardEquivalenceIrregularFallback(t *testing.T) {
	// Star and line have no spatial layout: the partitioner falls back to
	// contiguous index ranges; the hub of the star touches every shard.
	for _, tc := range []struct {
		name string
		topo *topology.Topology
	}{
		{"star", topology.Star(20)},
		{"line", topology.Line(20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gridCfg(23)
			cfg.Network = model.Homogeneous(20, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
			cfg.Topology = tc.topo
			assertShardEquivalence(t, cfg, []int{3, 6})
		})
	}
}

// TestShardEquivalenceFaults exercises every fault process at once:
// crash/restart cycles crash frontier transmitters mid-hold, loss and
// silence touch the reception paths, drift and brownout the timing and
// energy paths. The fault trace itself is part of the compared metrics.
func TestShardEquivalenceFaults(t *testing.T) {
	cfg := gridCfg(31)
	cfg.Faults = &faults.Config{
		Crash:    &faults.Crash{MeanUp: 40, MeanDown: 10},
		Loss:     &faults.Loss{P: 0.1},
		Drift:    &faults.Drift{Max: 0.05},
		Brownout: &faults.Brownout{MeanEvery: 60, MeanFor: 20},
		Silence:  &faults.Silence{MeanEvery: 80, MeanFor: 5},
	}
	assertShardEquivalence(t, cfg, []int{2, 4, 9})
}

// TestShardEquivalenceTargetedCrash pins the mid-hold frontier crash: a
// corner node (on the boundary of its block under every tested shard
// count) is killed at a fixed time, so if it is holding the channel the
// release must propagate identically across shards.
func TestShardEquivalenceTargetedCrash(t *testing.T) {
	cfg := gridCfg(43)
	cfg.Faults = &faults.Config{
		Crash: &faults.Crash{Kill: []int{0, 14, 35}, KillAt: 120},
	}
	assertShardEquivalence(t, cfg, []int{4, 9, 36})
}

// TestShardEquivalenceKitchenSink turns on everything orthogonal at
// once: churn, a harvesting profile, the hard battery floor, listener
// estimation noise, delivery and tick hooks, and occupancy tracking.
func TestShardEquivalenceKitchenSink(t *testing.T) {
	cfg := gridCfg(47)
	cfg.Network = model.Homogeneous(16, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Grid(4, 4)
	cfg.TrackOccupancy = true
	cfg.HardBatteryFloor = true
	cfg.InitialBattery = 5e-3
	cfg.Harvest = func(node int, tt float64) float64 {
		base := 60 * model.MicroWatt
		if int(tt/50)%2 == node%2 {
			return 1.5 * base
		}
		return 0.5 * base
	}
	cfg.Churn = func(node int, tt float64) bool {
		return node != 5 || int(tt/40)%2 == 0
	}
	cfg.EstimateListeners = func(actual int, src *rng.Source) int {
		return actual + src.Intn(3) - 1
	}
	deliveries := 0
	cfg.OnDeliver = func(tx, rx int, now float64) { deliveries++ }
	ticks := 0
	cfg.OnTick = func(node int, now, eta float64) { ticks++ }

	cfg.Shards = 1
	wantM, wantLog := runLogged(t, cfg)
	wantDeliv, wantTicks := deliveries, ticks
	for _, k := range []int{2, 4, 16} {
		deliveries, ticks = 0, 0
		cfg.Shards = k
		gotM, gotLog := runLogged(t, cfg)
		if gotLog != wantLog {
			d := firstDiff(wantLog, gotLog)
			t.Fatalf("shards=%d: trace diverged at byte %d: want ...%q got ...%q",
				k, d, clip(wantLog, d), clip(gotLog, d))
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("shards=%d: metrics diverged", k)
		}
		if deliveries != wantDeliv || ticks != wantTicks {
			t.Fatalf("shards=%d: hook counts diverged: %d/%d vs %d/%d",
				k, deliveries, ticks, wantDeliv, wantTicks)
		}
	}
}

// TestShardEquivalenceSingleNodeShards pins the degenerate partitions:
// every node its own shard (every event crosses a boundary) and a shard
// count that leaves some shards with exactly one node.
func TestShardEquivalenceSingleNodeShards(t *testing.T) {
	cfg := gridCfg(53)
	cfg.Network = model.Homogeneous(16, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topology.Grid(4, 4)
	assertShardEquivalence(t, cfg, []int{15, 16})
}

// TestShardEdgeCasesAcrossSweepWorkers pins the shard-boundary edge
// cases through the sweep layer: a hub whose neighbor mask spans every
// shard, a frontier node crashing mid-hold, and a partition with 1-node
// shards, each replicated as sweep cells and byte-compared at workers
// 1, 4, and 16. Shard count and worker count must both be unobservable.
func TestShardEdgeCasesAcrossSweepWorkers(t *testing.T) {
	scenarios := []struct {
		name   string
		cfg    Config
		shards int
	}{
		{"mask-spans-all-shards", func() Config {
			cfg := gridCfg(23)
			cfg.Network = model.Homogeneous(20, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
			cfg.Topology = topology.Star(20)
			return cfg
		}(), 6},
		{"frontier-crash-mid-hold", func() Config {
			cfg := gridCfg(43)
			cfg.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 14, 35}, KillAt: 120}}
			return cfg
		}(), 9},
		{"single-node-shards", func() Config {
			cfg := gridCfg(53)
			cfg.Network = model.Homogeneous(16, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
			cfg.Topology = topology.Grid(4, 4)
			return cfg
		}(), 16},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(workers int) []string {
				// Four replicate cells per scenario, each a full sharded run
				// with a derived seed, collected in index order.
				reps := []uint64{1, 2, 3, 4}
				traces, err := sweep.Map(workers, reps, func(i int, rep uint64) (string, error) {
					cfg := sc.cfg
					cfg.Shards = sc.shards
					cfg.Seed = rng.DeriveSeed(cfg.Seed, 97, rep)
					var log strings.Builder
					cfg.EventLog = &log
					if _, err := Run(cfg); err != nil {
						return "", err
					}
					return log.String(), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return traces
			}
			base := run(1)
			for _, workers := range []int{4, 16} {
				got := run(workers)
				for i := range base {
					if got[i] != base[i] {
						d := firstDiff(base[i], got[i])
						t.Fatalf("workers=%d replicate %d: trace diverged at byte %d: want ...%q got ...%q",
							workers, i, d, clip(base[i], d), clip(got[i], d))
					}
				}
			}
		})
	}
}

// TestShardPlan pins the Shards -> engine selection rules.
func TestShardPlan(t *testing.T) {
	mk := func(topo *topology.Topology, shards int) *Config {
		return &Config{Topology: topo, Shards: shards}
	}
	cases := []struct {
		cfg  *Config
		want int
	}{
		{mk(nil, 0), 1},                       // clique (nil topology): never sharded
		{mk(topology.Clique(200), 8), 1},      // explicit clique: never sharded
		{mk(topology.Grid(10, 10), 0), 1},     // small: auto stays single-queue
		{mk(topology.Grid(10, 10), 1), 1},     // forced single-queue
		{mk(topology.Grid(10, 10), 4), 4},     // forced shard count
		{mk(topology.Grid(10, 10), 500), 100}, // clamped to n
		{mk(topology.Grid(80, 80), 0), 6},     // auto: 6400/1024
		{mk(topology.Ring(5), 2), 2},          // tiny but explicit
	}
	for i, tc := range cases {
		if got := tc.cfg.shardPlan(); got != tc.want {
			t.Errorf("case %d: shardPlan = %d, want %d", i, got, tc.want)
		}
	}
}

// TestShardAutoMatchesForced pins that the auto-selected shard count is
// itself equivalent to the single-queue engine on a just-over-threshold
// topology (a short horizon keeps this cheap at 4096 nodes).
func TestShardAutoMatchesForced(t *testing.T) {
	n := 64 * 64
	cfg := Config{
		Network:  model.Homogeneous(n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology: topology.Grid(64, 64),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration: 6,
		Warmup:   1,
		Seed:     61,
	}
	if cfg.shardPlan() != 4 {
		t.Fatalf("expected auto plan 4 at n=%d, got %d", n, cfg.shardPlan())
	}
	cfg.Shards = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 0
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("auto-sharded run diverged from single-queue engine")
	}
}

func ExampleConfig_shards() {
	cfg := gridCfg(1)
	cfg.Shards = 4
	m, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(m.PacketsSent > 0)
	// Output: true
}

// TestListeningToBalances pins the inverted listener relation the
// hidden-terminal check reads: between any two events, and at the end of
// a run, hot[j].listeningTo equals the number of in-flight packets
// (fPktActive slots) whose listener list holds j. Crashes abandon packets
// mid-flight, so the fault run exercises the unwind path too.
func TestListeningToBalances(t *testing.T) {
	check := func(t *testing.T, c *coordinator) (inFlight int) {
		t.Helper()
		want := make([]int32, c.n)
		for i := 0; i < c.n; i++ {
			if !c.hot[i].has(fPktActive) {
				continue
			}
			inFlight++
			for _, j := range c.pktListeners[i] {
				want[j]++
			}
		}
		for j := range want {
			if got := c.hot[j].listeningTo; got != want[j] {
				t.Fatalf("node %d: listeningTo = %d, want %d", j, got, want[j])
			}
		}
		return inFlight
	}
	for _, tc := range []struct {
		name   string
		faults *faults.Config
	}{
		{"fault-free", nil},
		{"faults", &faults.Config{
			Crash:   &faults.Crash{MeanUp: 40, MeanDown: 10},
			Loss:    &faults.Loss{P: 0.1},
			Silence: &faults.Silence{MeanEvery: 80, MeanFor: 5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gridCfg(17)
			cfg.Faults = tc.faults
			flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			c := newCoordinator(cfg, flt, 4)
			busy := 0
			c.onDispatch = func(event) {
				if check(t, c) > 0 {
					busy++
				}
			}
			c.run()
			check(t, c)
			if busy == 0 {
				t.Fatal("no packet was ever in flight; the check is vacuous")
			}
		})
	}
}
