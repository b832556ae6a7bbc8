package testbed

import (
	"math"
	"testing"

	"econcast/internal/faults"
	"econcast/internal/model"
)

// TestFaultKillHalf crashes half the emulated nodes mid-run: the run must
// complete, the survivors keep delivering, and the fault trace lands in
// the metrics.
func TestFaultKillHalf(t *testing.T) {
	c := baseCfg()
	c.N = 8
	c.Duration, c.Warmup = 900, 400
	c.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 1, 2, 3}, KillAt: 300}}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatalf("survivors delivered nothing: groupput = %v", m.Groupput)
	}
	if len(m.FaultTrace) != 4 {
		t.Fatalf("fault trace has %d events, want 4 crash-downs", len(m.FaultTrace))
	}
	for _, ev := range m.FaultTrace {
		if ev.Kind != faults.CrashDown || ev.At != 300 {
			t.Fatalf("unexpected trace event %+v", ev)
		}
	}
	// Dead nodes are parked asleep: near-zero consumption over the
	// post-kill measurement window.
	for i := 0; i < 4; i++ {
		if m.Power[i] > model.MilliWatt {
			t.Errorf("dead node %d consumed %v W over the post-kill window", i, m.Power[i])
		}
	}
}

// TestFaultCrashMidHold crashes the transmitter mid-hold. At seed 1
// node 0 is inside a 40 ms packet at 100.004 s and inside its 8 ms ping
// interval at 248.4736 s, and node 1 is inside a packet at 395.33 s.
// Each case steps the engine up to the crash and checks that it takes a
// node in Transmit; once the crash instant has passed the medium must be
// released, and the survivors keep transmitting.
func TestFaultCrashMidHold(t *testing.T) {
	for _, killAt := range []float64{100.004, 248.4736, 395.33} {
		c := baseCfg()
		c.Duration, c.Warmup = 2000, 500
		c.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 1}, KillAt: killAt}}
		e, err := newEngine(c)
		if err != nil {
			t.Fatalf("killAt=%v: %v", killAt, err)
		}
		e.start()
		for at, _, _ := e.head(); at < killAt; at, _, _ = e.head() {
			e.step()
		}
		tx := e.transmitter
		if tx != 0 && tx != 1 || e.nodes[tx].state != model.Transmit {
			t.Fatalf("killAt=%v: transmitter %d is not a killed node in Transmit", killAt, tx)
		}
		for at, _, _ := e.head(); at <= killAt; at, _, _ = e.head() {
			e.step()
		}
		if e.transmitter == tx {
			t.Fatalf("killAt=%v: crashed node %d still holds the medium", killAt, tx)
		}
		for e.step() {
		}
		e.drain()
		if m := e.finish(); m.Groupput <= 0 {
			t.Fatalf("killAt=%v: survivors delivered nothing", killAt)
		}
	}
}

// TestFaultSilenceMutesDeliveries checks a silenced transmitter occupies
// the channel but delivers nothing and collects no pings.
func TestFaultSilenceMutesDeliveries(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 300, 50
	c.Faults = &faults.Config{Silence: &faults.Silence{MeanEvery: 1e-3, MeanFor: 1e9}}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.PacketsDelivered != 0 {
		t.Fatalf("silenced network delivered %d packets", m.PacketsDelivered)
	}
	if m.PacketsSent == 0 {
		t.Fatal("silence stopped transmissions; it should only mute them")
	}
	if m.PingCounts.N() > 0 && m.PingCounts.Mean() != 0 {
		t.Fatal("silenced packets collected pings")
	}
}

// TestFaultLegacyImperfectionsMapToProcesses pins that the hardware's
// default sleep-clock drift and ping loss compile into shared Drift/Loss
// fault processes, so LostPings is populated by the default 2%
// decode-failure rate.
func TestFaultLegacyImperfectionsMapToProcesses(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 1500, 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.LostPings == 0 {
		t.Fatal("default 2% ping loss produced no LostPings")
	}
	if len(m.FaultTrace) != 0 {
		t.Fatalf("drift/loss-only run produced %d trace events, want 0", len(m.FaultTrace))
	}
}

// TestExplicitZeroImperfectionsStick pins that explicit zero Drift and
// Loss processes give perfect clocks and lossless pings instead of
// falling back to the hardware defaults, and that the actual power pays
// the 8% regulator overhead on the virtual battery's nominal draw.
func TestExplicitZeroImperfectionsStick(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 1500, 200
	defaulted, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range defaulted.Power {
		// Sleep draws nothing, so all of the actual draw pays the overhead.
		if want := defaulted.VirtualPower[i] * (1 + regulatorOverhead); math.Abs(p-want) > 1e-12*want {
			t.Fatalf("node %d: actual power %v, want virtual %v plus 8%%", i, p, defaulted.VirtualPower[i])
		}
	}
	c.Faults = &faults.Config{Drift: &faults.Drift{Max: 0}, Loss: &faults.Loss{P: 0}}
	perfect, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.LostPings != 0 {
		t.Fatalf("zero ping loss still lost %d pings", perfect.LostPings)
	}
	if perfect.Groupput == defaulted.Groupput && perfect.PacketsSent == defaulted.PacketsSent {
		t.Fatal("zero imperfections behaved identically to the defaults — the zeros were dropped")
	}
}
