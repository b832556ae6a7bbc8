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
// clique case. The digests were produced by the single-queue engine at
// commit a8ba185, the last commit that had it, which ran every clique;
// the coordinator matched them byte for byte on both the nil and the
// explicit clique topology before that engine was deleted.
var cliqueGolden = map[string]string{
	"capture-groupput":       "a0811e68d9ca6c4c3da72e842b917cb51ad40da8a5bd2d7915959d5d4de6f4f6",
	"capture-anyput":         "50c032bf120eeb22080c9cf5fa55ff3f260a148fdba040738e3f74e9228de20f",
	"noncapture-groupput":    "071d7c38bcf1a25402f25db50c3f7e0d52e7b8cd8b6f3bb43e1190a2870d57d0",
	"noncapture-anyput":      "0ab0f32052ad930a7bbfa887a404c46b33fe7b403e6150bde23d1c1f248aceec",
	"estimate-listeners":     "fe864397a183b080d47c027c6415bf3a469a624c6e6c6a34e4ee1087f9074f66",
	"occupancy":              "82c64d335ae6000c698496d42f66d9545b83b4ea410d21d5a3b719b1267a9cc1",
	"hooks":                  "f1acffcf9e64afac1b834a650a40c84a36cc4a33efd80dbd424171ae94426337",
	"churn":                  "f3b77059fa2e7a4a263929509f092e213d404cab149b4bf89c2fa76da37009d6",
	"harvest":                "4f6525defefaaf113c1020769bbca0d1ccc15e8afb4c4b5e6627e91f5c1092d7",
	"battery-floor":          "28d7b0d4700635d97efb61065c056a3c35bdae63a6c6a34807c27a847905f371",
	"warm-frozen":            "712d376a2d6053f0b47adf7e36837b18e0cea9b0edbce0433bbe42f2ad05ade6",
	"faults":                 "a63aa18749e399b481bef4519b8bac91f451c85921bb10aac9a27bd663b956ff",
	"faults-noncapture-kill": "ad8c3d46f1e160a607b71b84bb7c3d354374db3bd7fc499713dc44ddf14abfa8",
}

// TestCliqueGolden pins clique output to the bytes the single-queue
// engine produced before every serial run moved onto the coordinator.
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
