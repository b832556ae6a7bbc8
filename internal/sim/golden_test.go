package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/topology"
)

// cliqueCase is one clique scenario of the golden pins: a small, busy
// clique with one orthogonal feature switched on.
type cliqueCase struct {
	name string
	mut  func(*Config)
}

func cliqueBaseCfg() Config {
	return Config{
		Network:  model.Homogeneous(6, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration: 30,
		Warmup:   5,
		Seed:     5,
	}
}

func cliqueCases() []cliqueCase {
	return []cliqueCase{
		{"capture-groupput", func(c *Config) {}},
		{"capture-anyput", func(c *Config) { c.Protocol.Mode = model.Anyput }},
		{"noncapture-groupput", func(c *Config) { c.Protocol.Variant = econcast.NonCapture }},
		{"noncapture-anyput", func(c *Config) {
			c.Protocol.Variant = econcast.NonCapture
			c.Protocol.Mode = model.Anyput
		}},
		{"estimate-listeners", func(c *Config) {
			c.Protocol.Variant = econcast.NonCapture
			c.EstimateListeners = func(actual int, src *rng.Source) int {
				return actual + src.Intn(3) - 1
			}
		}},
		{"occupancy", func(c *Config) { c.TrackOccupancy = true }},
		{"hooks", func(c *Config) {}}, // the recorders are attached by goldenDigest
		{"churn", func(c *Config) {
			c.Churn = func(node int, t float64) bool {
				return node%3 != 1 || int(t/10)%2 == 0
			}
		}},
		{"harvest", func(c *Config) {
			c.Harvest = func(node int, t float64) float64 {
				base := 60 * model.MicroWatt
				if int(t/10)%2 == node%2 {
					return 1.5 * base
				}
				return 0.5 * base
			}
		}},
		{"battery-floor", func(c *Config) {
			c.HardBatteryFloor = true
			c.InitialBattery = 1e-3
			c.Network = model.Homogeneous(6, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
		}},
		{"warm-frozen", func(c *Config) {
			c.WarmEta = []float64{2000, 2500, 3000, 3500, 4000, 4500}
			c.FreezeEta = true
		}},
		{"faults", func(c *Config) {
			c.Faults = &faults.Config{
				Crash:    &faults.Crash{MeanUp: 8, MeanDown: 3},
				Loss:     &faults.Loss{P: 0.1},
				Drift:    &faults.Drift{Max: 0.05},
				Brownout: &faults.Brownout{MeanEvery: 10, MeanFor: 4},
				Silence:  &faults.Silence{MeanEvery: 12, MeanFor: 2},
			}
		}},
		{"faults-noncapture-kill", func(c *Config) {
			c.Protocol.Variant = econcast.NonCapture
			c.Faults = &faults.Config{
				Crash: &faults.Crash{Kill: []int{0, 3}, KillAt: 15},
				Loss:  &faults.Loss{P: 0.2},
			}
		}},
	}
}

// goldenDigest runs cfg and returns the sha256 of everything the run
// produced as text: the full event trace, the OnDeliver/OnTick records
// (when hooks is set), and %+v of the metrics. The trace is hashed as
// it is written rather than kept: a 300 s grid run logs ~100 MB.
func goldenDigest(t *testing.T, cfg Config, hooks bool) string {
	t.Helper()
	var rec strings.Builder
	if hooks {
		cfg.OnDeliver = func(tx, rx int, now float64) { fmt.Fprintf(&rec, "deliver %d %d %v\n", tx, rx, now) }
		cfg.OnTick = func(node int, now, eta float64) { fmt.Fprintf(&rec, "tick %d %v %v\n", node, now, eta) }
	}
	h := sha256.New()
	cfg.EventLog = h
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(h, rec.String())
	fmt.Fprintf(h, "%+v\n", *m)
	return hex.EncodeToString(h.Sum(nil))
}

// cliqueGolden holds goldenDigest for every clique case. The digests
// were produced by the engine that suspends frozen transitions instead
// of redrawing them, which changed every sample path but not the law:
// internal/sim/conform compared it against the redrawing engine before
// these replaced that engine's digests.
// "hooks" was re-pinned when multiplier ticks moved to the tick cursor:
// OnTick calls that share an instant now arrive in node order, and the
// record equals the previous one once those lines are sorted within
// each instant (the event log and metrics are unchanged).
var cliqueGolden = map[string]string{
	"capture-groupput":       "f5ac57ac7d907b67d3811607929dde988f781ccceaf9c1163b96bae5b885ba06",
	"capture-anyput":         "3309291f6f51e7075102357466f5d88a347af30491c295fa246f60b4de6db010",
	"noncapture-groupput":    "87d7568ac9699be3214d7f9e364db86fb4550cc943f49e3ce891c19ffed86314",
	"noncapture-anyput":      "0644af64d59377815e4b4bb75ab820537504053e75c0f5b7e2d3f5892409157f",
	"estimate-listeners":     "c2d361182e5b731d67cf711f04208ae93d349c33d6464042062002311fa770f3",
	"occupancy":              "4d64b1b916047dae9b3d54757bd3c10f25f2e277c591dfebb84d9d9be6d3a34d",
	"hooks":                  "db2927947f717817b3719c2b227e80a4f764431c9a3d5bab5e1c49946e0d5be2",
	"churn":                  "ceb78da379919ef2ea8458f5f403a626194d3e66de19e935e8c6d2186d13d8a9",
	"harvest":                "a695cf3f25b343256ea56f9e7402c307f42c4b73868864352b02fdda4f6691e7",
	"battery-floor":          "8703ee8a7642ce2b377f9e68794ecd945af933e8f7daeb1238aa0b57cb9ace17",
	"warm-frozen":            "aec1f6c27c678ca86fd243bc7af9282193bbcbd12531da1c27188aa3e1f75c38",
	"faults":                 "560354c04c23ff46d381aa77673ae55fa5aa30e7350c335105beb81ba2cd0479",
	"faults-noncapture-kill": "b8055543487f1ebddb4265126650827a3f564e5a844f521dc2e1c4b976d975ce",
}

// TestCliqueGolden pins clique output on both the nil and the explicit
// clique topology.
func TestCliqueGolden(t *testing.T) {
	for _, tc := range cliqueCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cliqueBaseCfg()
			tc.mut(&cfg)
			for _, topo := range []*topology.Topology{nil, topology.Clique(cfg.Network.N())} {
				cfg.Topology = topo
				if got := goldenDigest(t, cfg, tc.name == "hooks"); got != cliqueGolden[tc.name] {
					t.Errorf("explicit topology %t: digest %s, want %s", topo != nil, got, cliqueGolden[tc.name])
				}
			}
		})
	}
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

// withNodes replaces cfg's network and topology by a homogeneous
// network on topo.
func withNodes(cfg Config, topo *topology.Topology) Config {
	cfg.Network = model.Homogeneous(topo.N(), 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	cfg.Topology = topo
	return cfg
}

// nonCliqueCase is one non-clique scenario of the golden pins. want
// names the case whose digest it must reproduce; empty means its own.
type nonCliqueCase struct {
	name  string
	cfg   func() Config
	hooks bool
	want  string
}

func nonCliqueCases() []nonCliqueCase {
	return []nonCliqueCase{
		{name: "grid-capture", cfg: func() Config { return gridCfg(7) }},
		{name: "grid-noncapture", cfg: func() Config {
			cfg := gridCfg(11)
			cfg.Protocol.Variant = econcast.NonCapture
			return cfg
		}},
		{name: "ring-24", cfg: func() Config { return withNodes(gridCfg(3), topology.Ring(24)) }},
		{name: "rgg-50", cfg: func() Config {
			return withNodes(gridCfg(19), topology.RandomGeometric(50, 0.3, rng.New(5)))
		}},
		{name: "star-20", cfg: func() Config { return withNodes(gridCfg(23), topology.Star(20)) }},
		{name: "line-20", cfg: func() Config { return withNodes(gridCfg(23), topology.Line(20)) }},
		// Every fault process at once: crash/restart cycles crash
		// transmitters mid-hold, loss and silence touch the reception
		// paths, drift and brownout the timing and energy paths.
		{name: "grid-faults", cfg: func() Config {
			cfg := gridCfg(31)
			cfg.Faults = &faults.Config{
				Crash:    &faults.Crash{MeanUp: 40, MeanDown: 10},
				Loss:     &faults.Loss{P: 0.1},
				Drift:    &faults.Drift{Max: 0.05},
				Brownout: &faults.Brownout{MeanEvery: 60, MeanFor: 20},
				Silence:  &faults.Silence{MeanEvery: 80, MeanFor: 5},
			}
			return cfg
		}},
		// Two corners and a mid-grid node killed at a fixed time, so a
		// transmitter dies mid-hold and its release propagates.
		{name: "grid-kill-mid-hold", cfg: func() Config {
			cfg := gridCfg(43)
			cfg.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 14, 35}, KillAt: 120}}
			return cfg
		}},
		// Everything orthogonal at once: churn, a harvesting profile, the
		// hard battery floor, listener estimation noise, occupancy
		// tracking, and the delivery and tick hooks.
		{name: "kitchen-sink-4x4", hooks: true, cfg: func() Config {
			cfg := withNodes(gridCfg(47), topology.Grid(4, 4))
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
			return cfg
		}},
		// The deprecated Parallel field is inert.
		{name: "grid-capture-parallel-4", want: "grid-capture", cfg: func() Config {
			cfg := gridCfg(7)
			cfg.Parallel = 4
			return cfg
		}},
	}
}

// nonCliqueGolden holds goldenDigest for every
// non-clique case, recorded on the sharded coordinator, whose output
// was identical at every shard count.
var nonCliqueGolden = map[string]string{
	"grid-capture":       "efb17f82d41d98ed18d750bafdb8acbe48f9308bb3c3b01ea1e3c6c0339b0fa4",
	"grid-noncapture":    "db8742e5ee0224e0ecab8fea6e7209d998573bd0cfaa9c798546daae6bdbc16e",
	"ring-24":            "fdb4774821f9b6d23a6da104bc699f01e7fe4897aba17095768d84612a1f3168",
	"rgg-50":             "b6a1ceb76f1ec252dc7936707dee1c404de38891adc4995f7e2a50bc0d427b4e",
	"star-20":            "d0f41de1f315d3d997da576b656dace3b7ee8154bb1da659bcb75eab1108d6d4",
	"line-20":            "0a4de8cb4629fa4da97d25789b93d6a62418735d573fed87a0b8ba67d1248c3f",
	"grid-faults":        "e83d0713d96d658c9c4dcde25d1b89e146ba64b74f5582f18b9cbceb47f95613",
	"grid-kill-mid-hold": "f1c6053859feb0be33ad60ce8f75d3a0299694ad106ec5c99b50d1579e0dcde2",
	"kitchen-sink-4x4":   "5e816396d8e985cd4fa9e6f53f2118016e68b71774549e8d96c90beb78f30a61",
}

// TestNonCliqueGolden pins non-clique output: grids, a ring, a random
// geometric graph, the star and the line, under faults and hooks. The
// cases run in parallel: each formats a 30-105 MB trace, which makes
// this most of the package's test time.
func TestNonCliqueGolden(t *testing.T) {
	for _, tc := range nonCliqueCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := tc.want
			if want == "" {
				want = tc.name
			}
			if got := goldenDigest(t, tc.cfg(), tc.hooks); got != nonCliqueGolden[want] {
				t.Errorf("digest %s, want %s", got, nonCliqueGolden[want])
			}
		})
	}
}
