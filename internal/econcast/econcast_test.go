package econcast

import (
	"math"
	"testing"

	"econcast/internal/model"
)

func baseConfig() Config {
	return Config{
		Mode:          model.Groupput,
		Variant:       Capture,
		Sigma:         0.5,
		Budget:        10 * model.MicroWatt,
		ListenPower:   500 * model.MicroWatt,
		TransmitPower: 500 * model.MicroWatt,
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Sigma = 0 },
		func(c *Config) { c.Sigma = -1 },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.ListenPower = 0 },
		func(c *Config) { c.TransmitPower = -1 },
		func(c *Config) { c.PacketTime = -1 },
		func(c *Config) { c.Delta = -0.1 },
		func(c *Config) { c.Sigma = math.Inf(1) },
		func(c *Config) { c.Budget = math.Inf(1) },
		func(c *Config) { c.ListenPower = math.Inf(1) },
		func(c *Config) { c.TransmitPower = math.Inf(1) },
		func(c *Config) { c.PacketTime = math.Inf(1) },
		func(c *Config) { c.Tau = math.Inf(1) },
		func(c *Config) { c.Delta = math.Inf(1) },
	}
	for i, mut := range bad {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewNodePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := baseConfig()
	c.Sigma = 0
	NewNode(c)
}

func TestDefaults(t *testing.T) {
	n := NewNode(baseConfig())
	cfg := n.Config()
	if cfg.PacketTime != 1e-3 {
		t.Fatalf("packet time default %v", cfg.PacketTime)
	}
	if cfg.Tau != 0.2 {
		t.Fatalf("tau default %v", cfg.Tau)
	}
	if cfg.Delta != 0.05 {
		t.Fatalf("delta default %v", cfg.Delta)
	}
}

// With eta = 0 the rate laws reduce to the bare exponentials of eq. (18).
func TestRatesAtZeroEta(t *testing.T) {
	n := NewNode(baseConfig())
	r := n.Rates(true, 2)
	perSec := 1000.0
	if math.Abs(r.SleepToListen-perSec) > 1e-9 {
		t.Fatalf("sl = %v", r.SleepToListen)
	}
	if math.Abs(r.ListenToSleep-perSec) > 1e-9 {
		t.Fatalf("ls = %v", r.ListenToSleep)
	}
	if math.Abs(r.ListenToTransmit-perSec) > 1e-9 { // L = X
		t.Fatalf("lx = %v", r.ListenToTransmit)
	}
	want := math.Exp(-2/0.5) * perSec
	if math.Abs(r.TransmitToListen-want) > 1e-9 {
		t.Fatalf("xl = %v, want %v", r.TransmitToListen, want)
	}
}

func TestCarrierSenseFreezes(t *testing.T) {
	n := NewNode(baseConfig())
	r := n.Rates(false, 1)
	if r.SleepToListen != 0 || r.ListenToSleep != 0 || r.ListenToTransmit != 0 {
		t.Fatalf("carrier-busy rates not frozen: %+v", r)
	}
	// The transmitter's own exit rate is never frozen.
	if r.TransmitToListen <= 0 {
		t.Fatal("transmit exit frozen")
	}
}

// A sensed carrier freezes the rates to exact zeros even where the
// listen->transmit exponential overflows: with L > X and a huge
// multiplier, exp(eta (L-X) / p0 / sigma) is +Inf, and 0·Inf would be
// NaN.
func TestFrozenRatesExactZeroAtHugeEta(t *testing.T) {
	for _, v := range []Variant{Capture, NonCapture} {
		c := baseConfig()
		c.Variant = v
		c.ListenPower = 900 * model.MicroWatt
		c.TransmitPower = 100 * model.MicroWatt
		p := NewParams(c)
		core := NewCore(0)
		core.Eta = 1e6
		if !math.IsInf(math.Exp(core.scaled(&p, p.ListenPower)-core.scaled(&p, p.TransmitPower)), 1) {
			t.Fatal("test premise: the listen->transmit exponential should overflow")
		}
		if sl := core.SleepToListen(&p, false); sl != 0 || math.Signbit(sl) {
			t.Fatalf("%v: frozen sleep->listen = %v, want +0", v, sl)
		}
		ls, lx := core.ListenRates(&p, false, 3)
		if ls != 0 || lx != 0 || math.Signbit(ls) || math.Signbit(lx) {
			t.Fatalf("%v: frozen listen rates = (%v, %v), want (+0, +0)", v, ls, lx)
		}
	}
}

func TestEtaLowersActivity(t *testing.T) {
	n := NewNode(baseConfig())
	r0 := n.Rates(true, 0)
	n.SetEta(2)
	r1 := n.Rates(true, 0)
	if r1.SleepToListen >= r0.SleepToListen {
		t.Fatal("higher eta should lower the wake-up rate")
	}
	if r1.ListenToSleep != r0.ListenToSleep {
		t.Fatal("listen->sleep rate must not depend on eta")
	}
}

func TestAsymmetricPowersShiftListenTransmitSplit(t *testing.T) {
	c := baseConfig()
	c.ListenPower = 900 * model.MicroWatt
	c.TransmitPower = 100 * model.MicroWatt
	n := NewNode(c)
	n.SetEta(1)
	r := n.Rates(true, 0)
	// Listening costs more than transmitting: the node should be eager to
	// leave listen for transmit (rate > 1/packet).
	if r.ListenToTransmit <= 1000 {
		t.Fatalf("lx = %v, want > 1000", r.ListenToTransmit)
	}
}

func TestNonCaptureVariant(t *testing.T) {
	c := baseConfig()
	c.Variant = NonCapture
	n := NewNode(c)
	// Always releases after one packet.
	if p := n.ContinueTransmitProb(5); p != 0 {
		t.Fatalf("NC continue prob = %v", p)
	}
	r := n.Rates(true, 3)
	if math.Abs(r.TransmitToListen-1000) > 1e-9 {
		t.Fatalf("NC xl = %v", r.TransmitToListen)
	}
	// The estimate boosts listen->transmit instead.
	rLow := n.Rates(true, 0)
	if r.ListenToTransmit <= rLow.ListenToTransmit {
		t.Fatal("NC lx should grow with the listener estimate")
	}
}

// The paper's §VIII-D anchors: with one ping received, an EconCast-C
// transmitter continues with probability 0.8647 at sigma=0.5 and 0.9817 at
// sigma=0.25.
func TestContinueProbabilityPaperAnchors(t *testing.T) {
	c := baseConfig()
	c.Sigma = 0.5
	if p := NewNode(c).ContinueTransmitProb(1); math.Abs(p-0.8647) > 1e-4 {
		t.Fatalf("sigma=0.5: continue prob %v, want 0.8647", p)
	}
	c.Sigma = 0.25
	if p := NewNode(c).ContinueTransmitProb(1); math.Abs(p-0.9817) > 1e-4 {
		t.Fatalf("sigma=0.25: continue prob %v, want 0.9817", p)
	}
	// No listeners: stop immediately.
	if p := NewNode(c).ContinueTransmitProb(0); p != 0 {
		t.Fatalf("no-listener continue prob %v", p)
	}
}

func TestEstimateModes(t *testing.T) {
	g := NewNode(baseConfig())
	if g.Estimate(3) != 3 || g.Estimate(0) != 0 {
		t.Fatal("groupput estimate should be the count")
	}
	c := baseConfig()
	c.Mode = model.Anyput
	a := NewNode(c)
	if a.Estimate(3) != 1 || a.Estimate(1) != 1 || a.Estimate(0) != 0 {
		t.Fatal("anyput estimate should be the indicator")
	}
}

func TestBatteryAccrual(t *testing.T) {
	c := baseConfig()
	c.InitialBattery = 1e-3
	c.Tau = 1e9 // no multiplier updates during this test
	n := NewNode(c)
	n.Advance(10, model.Sleep) // harvest only: +10*rho
	want := 1e-3 + 10*c.Budget
	if math.Abs(n.Battery()-want) > 1e-15 {
		t.Fatalf("battery %v, want %v", n.Battery(), want)
	}
	n.Advance(1, model.Listen) // drain L, harvest rho
	want += c.Budget - c.ListenPower
	if math.Abs(n.Battery()-want) > 1e-12 {
		t.Fatalf("battery %v, want %v", n.Battery(), want)
	}
}

func TestBatteryCapacityAndFloor(t *testing.T) {
	c := baseConfig()
	c.BatteryCapacity = 5e-6
	c.ClampBatteryAtZero = true
	c.Tau = 1e9
	n := NewNode(c)
	n.Advance(10, model.Sleep) // would exceed capacity
	if n.Battery() != 5e-6 {
		t.Fatalf("battery %v, want capped 5e-6", n.Battery())
	}
	n.Advance(1, model.Transmit) // would go negative
	if n.Battery() != 0 {
		t.Fatalf("battery %v, want floored 0", n.Battery())
	}
	if !n.Depleted() {
		t.Fatal("Depleted false at zero")
	}
}

// Eq. (17): overspending raises eta, underspending lowers it toward zero.
func TestMultiplierDynamics(t *testing.T) {
	c := baseConfig()
	c.Tau = 1
	c.Delta = 0.1
	n := NewNode(c)
	// One full interval of listening: battery slope = rho - L < 0.
	n.Advance(1, model.Listen)
	if n.Updates() != 1 {
		t.Fatalf("updates = %d", n.Updates())
	}
	if n.Eta() <= 0 {
		t.Fatal("eta should rise after overspending")
	}
	etaHigh := n.Eta()
	// Many intervals of pure sleeping: battery slope = +rho, eta decays.
	for i := 0; i < 1000; i++ {
		n.Advance(1, model.Sleep)
	}
	if n.Eta() >= etaHigh {
		t.Fatal("eta should fall after sustained surplus")
	}
	if n.Eta() < 0 {
		t.Fatal("eta went negative")
	}
}

// eta must converge so that consumption tracks the budget: simulate a node
// whose duty cycle is a function of eta and check the closed loop settles
// near budget-balance.
func TestMultiplierClosedLoop(t *testing.T) {
	c := baseConfig()
	c.Tau = 0.2
	c.Delta = 0.5
	n := NewNode(c)
	// Toy host: each interval the node listens for a fraction that decays
	// with eta (mimicking the Gibbs behaviour) and sleeps otherwise.
	listenFrac := func(eta float64) float64 {
		return math.Exp(-eta * 1.0 / c.Sigma) // L/p0 = 1
	}
	for k := 0; k < 4000; k++ {
		f := listenFrac(n.Eta())
		n.Advance(c.Tau*f, model.Listen)
		n.Advance(c.Tau*(1-f), model.Sleep)
	}
	f := listenFrac(n.Eta())
	consumption := f * c.ListenPower
	if math.Abs(consumption-c.Budget)/c.Budget > 0.25 {
		t.Fatalf("closed-loop consumption %v, budget %v", consumption, c.Budget)
	}
}

func TestAdvanceAcrossManyIntervals(t *testing.T) {
	c := baseConfig()
	c.Tau = 0.1
	n := NewNode(c)
	n.Advance(1.05, model.Sleep) // spans 10 full intervals
	if n.Updates() != 10 {
		t.Fatalf("updates = %d, want 10", n.Updates())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNode(baseConfig()).Advance(-1, model.Sleep)
}

func TestSetEtaClampsNegative(t *testing.T) {
	n := NewNode(baseConfig())
	n.SetEta(-3)
	if n.Eta() != 0 {
		t.Fatalf("eta = %v", n.Eta())
	}
}

func TestVariantString(t *testing.T) {
	if Capture.String() != "EconCast-C" || NonCapture.String() != "EconCast-NC" {
		t.Fatal("variant strings wrong")
	}
}
