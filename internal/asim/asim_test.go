package asim

import (
	"math"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/sim"
	"econcast/internal/statespace"
)

func net5() *model.Network {
	return model.Homogeneous(5, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
}

func baseCfg() Config {
	return Config{
		Network:  net5(),
		Mode:     model.Groupput,
		Variant:  econcast.Capture,
		Sigma:    0.5,
		Duration: 500,
		Warmup:   100,
		Seed:     1,
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Network = nil },
		func(c *Config) { c.Sigma = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Duration = math.Inf(1) },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.Warmup = math.NaN() },
		func(c *Config) { c.WarmEta = []float64{1, 2} },
	}
	for i, mut := range bad {
		c := baseCfg()
		mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDeterminismAcrossGoroutines(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 200, 50
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Groupput != b.Groupput || a.PacketsSent != b.PacketsSent {
		t.Fatalf("goroutine runs diverged: %v/%d vs %v/%d",
			a.Groupput, a.PacketsSent, b.Groupput, b.PacketsSent)
	}
}

// The goroutine runtime must reproduce the Gibbs-analysis throughput under
// frozen optimal multipliers, like the discrete-event engine does.
func TestFrozenEtaMatchesGibbs(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 3000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.12 {
		t.Fatalf("asim groupput %v, Gibbs %v (rel %.3f)", m.Groupput, ref.Throughput, rel)
	}
}

// Cross-engine consistency: the goroutine runtime and the discrete-event
// engine must agree statistically on the same workload.
func TestAgreesWithEventEngine(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac := baseCfg()
	ac.WarmEta = ref.Eta
	ac.FreezeEta = true
	ac.Duration = 3000
	ac.Warmup = 200
	am, err := Run(ac)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.Run(sim.Config{
		Network:   nw,
		Protocol:  sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration:  3000,
		Warmup:    200,
		Seed:      2,
		WarmEta:   ref.Eta,
		FreezeEta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(am.Groupput-sm.Groupput) / sm.Groupput; rel > 0.15 {
		t.Fatalf("asim %v vs sim %v (rel %.3f)", am.Groupput, sm.Groupput, rel)
	}
}

func TestAdaptivePowerTracksBudget(t *testing.T) {
	c := baseCfg()
	c.Delta = 0.1
	c.Duration = 4000
	c.Warmup = 1000
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Power {
		if math.Abs(p-10*model.MicroWatt)/(10*model.MicroWatt) > 0.15 {
			t.Fatalf("node %d: power %v, budget 10uW (eta %v)", i, p, m.EtaFinal[i])
		}
	}
	if m.Groupput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestAnyputMode(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Anyput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.Mode = model.Anyput
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 3000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Anyput-ref.Throughput) / ref.Throughput; rel > 0.12 {
		t.Fatalf("asim anyput %v, analytic %v", m.Anyput, ref.Throughput)
	}
}

func TestNonCaptureVariantRuns(t *testing.T) {
	c := baseCfg()
	c.Variant = econcast.NonCapture
	c.Duration = 1000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.PacketsSent <= 0 {
		t.Fatal("no packets")
	}
}
