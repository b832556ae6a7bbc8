package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"econcast/internal/faults"
	"econcast/internal/model"
)

// goldenCases are the pinned emulator configs. The kill rows crash
// nodes at a tick instant (300 s is a multiple of tau), inside a packet
// (node 0 at 100.004 s) and inside a ping interval (node 0 at 250.0301 s
// under seed 8); the fault mix turns every shared process on at once.
func goldenCases() []struct {
	name string
	cfg  Config
} {
	kill := func(n int, seed uint64, at float64, nodes ...int) Config {
		c := baseCfg()
		c.N, c.Seed = n, seed
		c.Faults = &faults.Config{Crash: &faults.Crash{Kill: nodes, KillAt: at}}
		return c
	}
	kill300 := kill(8, 1, 300, 0, 1, 2, 3)
	kill300.Duration, kill300.Warmup = 900, 400
	mix := baseCfg()
	mix.Duration, mix.Warmup = 400, 100
	mix.Faults = &faults.Config{
		Crash:    &faults.Crash{Kill: []int{1}, KillAt: 200},
		Loss:     &faults.Loss{P: 0.1},
		Drift:    &faults.Drift{Max: 0.03},
		Brownout: &faults.Brownout{MeanEvery: 60, MeanFor: 30},
		Silence:  &faults.Silence{MeanEvery: 80, MeanFor: 10},
	}
	budgets := baseCfg()
	budgets.Duration, budgets.Warmup = 1000, 200
	budgets.Budgets = []float64{1 * model.MilliWatt, 1 * model.MilliWatt, 1 * model.MilliWatt,
		5 * model.MilliWatt, 5 * model.MilliWatt}
	budgets.WarmEta = []float64{25, 25, 25, 16.5, 16.5}
	return []struct {
		name string
		cfg  Config
	}{
		{"base", baseCfg()},
		{"stress-16", Config{N: 16, Sigma: 0.25, Duration: 400, Warmup: 100, Seed: 11}},
		{"kill-at-tick", kill300},
		{"kill-mid-packet", kill(5, 1, 100.004, 0, 1)},
		{"kill-mid-ping", kill(5, 8, 250.0301, 0, 1)},
		{"fault-mix", mix},
		{"budgets-warm-eta", budgets},
	}
}

// testbedGolden holds goldenDigest for every golden case, recorded on
// the engine that left superseded timers in a container/heap queue and
// skipped them by version at dispatch.
var testbedGolden = map[string]string{
	"base":             "358b6a0ec2abb768ffc3ab117246da5d648b295250f94c9122ad54e2f13897e2",
	"stress-16":        "a928da80310e4e320328a9b1a9547d1cead2ce22e80269dfb6e961b1034ae6ef",
	"kill-at-tick":     "f01d77cc0927d995ff0949e64ed06837795b942c5f74a75940cce2df62a2a05e",
	"kill-mid-packet":  "8808aacf668c704a7e6f974bb1bf3c95e84c50506680607ec5555538870fae3f",
	"kill-mid-ping":    "500990efb995d09b003c476cfaeca4f9d51945c1f19635c53555546a97608afd",
	"fault-mix":        "404ad28f069d6ed33e6c1c4a2ae701c06aa10d78c3f9a975aff0ce3c08cc2fd0",
	"budgets-warm-eta": "41a4c5b13239e153d552b4f72d95ab4b7773743ec78ea24e8147bca661576614",
}

// goldenDigest returns the sha256 of json.Marshal of the run's metrics,
// followed by the ping histogram, which has no exported fields.
func goldenDigest(t *testing.T, m *Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b)
	for k := 0; k <= m.PingCounts.Max(); k++ {
		fmt.Fprintf(h, " %d", m.PingCounts.Count(k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTestbedGolden pins the emulator's output byte for byte. A matching
// digest also pins same-seed determinism.
func TestTestbedGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.PacketsSent <= 0 {
				t.Fatal("the emulated testbed made no progress")
			}
			if got := goldenDigest(t, m); got != testbedGolden[tc.name] {
				t.Errorf("digest %s, want %s", got, testbedGolden[tc.name])
			}
		})
	}
}

// goldenConfig returns the config of the named golden case.
func goldenConfig(t *testing.T, name string) Config {
	t.Helper()
	for _, tc := range goldenCases() {
		if tc.name == name {
			return tc.cfg
		}
	}
	t.Fatalf("no golden case %q", name)
	return Config{}
}

// sameSeedTwice runs cfg twice in one process and fails unless both runs
// make progress and agree byte for byte, ping histogram included.
func sameSeedTwice(t *testing.T, cfg Config) {
	t.Helper()
	var digests [2]string
	for k := range digests {
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.PacketsSent <= 0 {
			t.Fatal("the emulated testbed made no progress")
		}
		digests[k] = goldenDigest(t, m)
	}
	if digests[0] != digests[1] {
		t.Fatalf("same seed, different testbed metrics: %s vs %s", digests[0], digests[1])
	}
}

// TestDeterminism: the base clique reproduces for a fixed seed.
func TestDeterminism(t *testing.T) {
	sameSeedTwice(t, goldenConfig(t, "base"))
}

// TestRaceStressLargeClique runs the 16-node stress case so that
// `go test -race` covers this package at the same clique scale as the
// asim broker stress test. The emulator itself is one event loop on one
// goroutine (econlint's rawgoroutine forbids goroutines here).
func TestRaceStressLargeClique(t *testing.T) {
	sameSeedTwice(t, goldenConfig(t, "stress-16"))
}

// TestFaultSharedProcessesDeterministic: runs under the full fault mix
// reproduce for a fixed seed.
func TestFaultSharedProcessesDeterministic(t *testing.T) {
	sameSeedTwice(t, goldenConfig(t, "fault-mix"))
}
