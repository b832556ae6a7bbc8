package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
		{"hooks", func(c *Config) {}}, // the recorders are attached by cliqueRecord
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

// cliqueRecord runs cfg and returns everything the run produced as
// text: the full event trace, the OnDeliver/OnTick records (for the
// "hooks" case), and %+v of the metrics.
func cliqueRecord(t *testing.T, name string, cfg Config) string {
	t.Helper()
	var rec strings.Builder
	if name == "hooks" {
		cfg.OnDeliver = func(tx, rx int, now float64) { fmt.Fprintf(&rec, "deliver %d %d %v\n", tx, rx, now) }
		cfg.OnTick = func(node int, now, eta float64) { fmt.Fprintf(&rec, "tick %d %v %v\n", node, now, eta) }
	}
	m, log := runLogged(t, cfg)
	return log + rec.String() + fmt.Sprintf("%+v\n", *m)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// cliqueGolden holds the sha256 of cliqueRecord's output for every
// clique case. The digests were produced by the engine that suspends
// frozen transitions instead of redrawing them, which changed every
// sample path but not the law: internal/sim/conform compared it against
// the redrawing engine before these replaced that engine's digests.
var cliqueGolden = map[string]string{
	"capture-groupput":       "f5ac57ac7d907b67d3811607929dde988f781ccceaf9c1163b96bae5b885ba06",
	"capture-anyput":         "3309291f6f51e7075102357466f5d88a347af30491c295fa246f60b4de6db010",
	"noncapture-groupput":    "87d7568ac9699be3214d7f9e364db86fb4550cc943f49e3ce891c19ffed86314",
	"noncapture-anyput":      "0644af64d59377815e4b4bb75ab820537504053e75c0f5b7e2d3f5892409157f",
	"estimate-listeners":     "c2d361182e5b731d67cf711f04208ae93d349c33d6464042062002311fa770f3",
	"occupancy":              "4d64b1b916047dae9b3d54757bd3c10f25f2e277c591dfebb84d9d9be6d3a34d",
	"hooks":                  "7bc3df6e56da9b52fc59ec8171d2bcc311c51490720f4d6b27aefde94eab89e5",
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
				if got := digest(cliqueRecord(t, tc.name, cfg)); got != cliqueGolden[tc.name] {
					t.Errorf("explicit topology %t: digest %s, want %s", topo != nil, got, cliqueGolden[tc.name])
				}
			}
		})
	}
}
