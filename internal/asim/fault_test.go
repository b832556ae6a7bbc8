package asim

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"econcast/internal/faults"
	"econcast/internal/model"
)

// TestFaultKillHalfSurvives crashes half an 8-node clique mid-run: every
// crashed node's goroutine panics, the recovers isolate the panics, and
// the broker keeps computing throughput over the survivors.
func TestFaultKillHalfSurvives(t *testing.T) {
	c := baseCfg()
	c.Network = model.Homogeneous(8, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	c.Duration, c.Warmup = 600, 300
	c.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 1, 2, 3}, KillAt: 200}}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatalf("survivors delivered nothing: groupput = %v", m.Groupput)
	}
	if m.Dead == nil {
		t.Fatal("Dead not populated after four crashes")
	}
	for i := 0; i < 8; i++ {
		if m.Dead[i] != (i < 4) {
			t.Errorf("Dead[%d] = %v, want %v", i, m.Dead[i], i < 4)
		}
	}
	for i := 0; i < 4; i++ {
		if m.Power[i] != 0 || m.EtaFinal[i] != 0 {
			t.Errorf("dead node %d reported Power=%v EtaFinal=%v, want 0/0", i, m.Power[i], m.EtaFinal[i])
		}
	}
	if len(m.FaultTrace) != 4 {
		t.Fatalf("fault trace has %d events, want 4", len(m.FaultTrace))
	}
}

// TestFaultCrashDeterminism pins that runs with goroutine-death faults
// stay byte-identical across repetitions, including the Dead vector and
// the fault trace.
func TestFaultCrashDeterminism(t *testing.T) {
	cfg := baseCfg()
	cfg.Duration, cfg.Warmup = 300, 50
	cfg.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{1, 3}, KillAt: 120}}
	run := func() string {
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged under crash faults:\n%s\n%s", a, b)
	}
}

// TestFaultWatchdogCatchesStall wedges one node's goroutine mid-run and
// checks the watchdog fails the run with a diagnostic instead of
// hanging — the hardened-shutdown guarantee. The generous test timeout
// only matters if the watchdog is broken.
func TestFaultWatchdogCatchesStall(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 300, 50
	c.watchdog = 200 * time.Millisecond
	c.stall = &stallSpec{node: 2, at: 100}
	done := make(chan error, 1)
	go func() {
		_, err := Run(c)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a wedged node returned no error")
		}
		if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "node 2") {
			t.Fatalf("watchdog diagnostic missing from error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with a wedged node hung despite the watchdog")
	}
}

// TestFaultRestartRejected pins that asim refuses crash/restart
// schedules: a goroutine death is permanent, and silently dropping the
// restarts would diverge from the shared fault trace.
func TestFaultRestartRejected(t *testing.T) {
	c := baseCfg()
	c.Faults = &faults.Config{Crash: &faults.Crash{MeanUp: 50, MeanDown: 10}}
	_, err := Run(c)
	if err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("restarting schedule not rejected: err = %v", err)
	}
}

// TestFaultLossAndSilence checks receiver-side loss and transmitter
// silence flow through the broker's delivery accounting.
func TestFaultLossAndSilence(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 400, 100
	base, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = &faults.Config{Loss: &faults.Loss{P: 0.4}}
	lossy, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.LostReceptions == 0 {
		t.Fatal("40% loss produced no LostReceptions")
	}
	if !(lossy.Groupput < base.Groupput) {
		t.Errorf("loss did not reduce groupput: %v vs %v", lossy.Groupput, base.Groupput)
	}
	c.Faults = &faults.Config{Silence: &faults.Silence{MeanEvery: 1e-3, MeanFor: 1e9}}
	silent, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if silent.PacketsDelivered != 0 {
		t.Fatalf("always-silent network delivered %d packets", silent.PacketsDelivered)
	}
	if silent.PacketsSent == 0 {
		t.Fatal("silence stopped transmissions; it should only mute them")
	}
}

// TestFaultDriftAndBrownout checks the node-side fault projections
// (clock drift, harvest brownouts) run healthy and deterministically.
func TestFaultDriftAndBrownout(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 300, 100
	c.Faults = &faults.Config{
		Drift:    &faults.Drift{Max: 0.05},
		Brownout: &faults.Brownout{MeanEvery: 40, MeanFor: 20},
	}
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Groupput != b.Groupput || a.PacketsSent != b.PacketsSent {
		t.Fatal("drift+brownout runs with the same seed diverged")
	}
	if a.Groupput <= 0 {
		t.Fatal("faulted network delivered nothing")
	}
}

// TestFaultTransmitterCrashMidHold pushes crash times into the middle of
// likely channel holds: the broker must release the medium and keep the
// survivors delivering, at every offset.
func TestFaultTransmitterCrashMidHold(t *testing.T) {
	for _, killAt := range []float64{60.0004, 150.0157, 260.11} {
		c := baseCfg()
		c.Duration, c.Warmup = 400, 300
		c.Faults = &faults.Config{Crash: &faults.Crash{Kill: []int{0, 1}, KillAt: killAt}}
		m, err := Run(c)
		if err != nil {
			t.Fatalf("killAt=%v: %v", killAt, err)
		}
		if m.Groupput <= 0 {
			t.Fatalf("killAt=%v: survivors delivered nothing", killAt)
		}
	}
}

// TestFaultStressManyCrashes runs a 16-node clique where 12 nodes die at
// staggered times under -race: panic isolation, medium release, and the
// shutdown drain must all stay clean with heavy goroutine churn.
func TestFaultStressManyCrashes(t *testing.T) {
	c := clique16()
	c.Duration, c.Warmup = 200, 20
	kills := make([]int, 0, 12)
	for i := 0; i < 12; i++ {
		kills = append(kills, i)
	}
	c.Faults = &faults.Config{Crash: &faults.Crash{Kill: kills, KillAt: 90}}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	deadCount := 0
	for _, d := range m.Dead {
		if d {
			deadCount++
		}
	}
	if deadCount != 12 {
		t.Fatalf("%d dead nodes, want 12", deadCount)
	}
	if m.Groupput < 0 {
		t.Fatalf("negative groupput %v", m.Groupput)
	}
}
