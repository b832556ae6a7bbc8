package sim

import (
	"math"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// The suspension rules, each checked on a three-node Capture clique
// whose handlers are driven by hand: node 0 starts a transmission at t0,
// freezing nodes 1 and 2, and its hold ends at t1.

// handClique builds the clique, seeds every node's first transition,
// and returns it with t0, a time before any of those transitions is
// due. leave0 is when node 0 departs under churn (+Inf: never), and
// leave1 the same for node 1; a departed transmitter releases the
// channel at its next packet end.
func handClique(t *testing.T, leave0, leave1 *float64, mut func(*Config)) (*coordinator, float64) {
	t.Helper()
	cfg := Config{
		Network:   model.Homogeneous(3, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology:  topology.Clique(3),
		Protocol:  Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration:  1000,
		Seed:      7,
		WarmEta:   []float64{3000, 3000, 3000},
		FreezeEta: true,
		Churn: func(node int, t float64) bool {
			switch node {
			case 0:
				return t < *leave0
			case 1:
				return t < *leave1
			}
			return true
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(cfg, flt, 1)
	c.start()
	first := math.Inf(1)
	for i := 0; i < c.n; i++ {
		k, ok := pending(c, i)
		if !ok {
			t.Fatalf("node %d has no first transition", i)
		}
		first = math.Min(first, k.at)
	}
	return c, first / 2
}

// pending returns node i's pending transition, ok false when none.
func pending(c *coordinator, i int) (transKey, bool) {
	tr := &c.shards[c.hot[i].shardOf].trans
	if p := tr.pos[i]; p >= 0 {
		return tr.keys[p], true
	}
	return transKey{}, false
}

// transmitAt wakes node tx and starts its transmission at time at.
func transmitAt(c *coordinator, tx int, at float64) {
	c.now = at
	c.setState(tx, model.Listen)
	c.startTransmission(tx)
}

func never() *float64 { v := math.Inf(1); return &v }

// A frozen sleeper keeps its residual dwell exactly and is re-armed at
// now + residual when the carrier frees up, with no draw on its stream.
func TestSuspendKeepsResidual(t *testing.T) {
	leave0 := math.Inf(1)
	c, t0 := handClique(t, &leave0, never(), nil)
	before, _ := pending(c, 1)
	stream := c.rngs[1]

	transmitAt(c, 0, t0)
	h := &c.hot[1]
	if !h.has(fSuspended) || h.resid != before.at-t0 {
		t.Fatalf("after the freeze: suspended %t, resid %v, want resid %v", h.has(fSuspended), h.resid, before.at-t0)
	}
	if _, ok := pending(c, 1); ok {
		t.Fatal("a suspended transition stayed in the heap")
	}

	t1 := t0 + c.packetTime
	leave0 = t1 // node 0 departs, so its hold ends with the first packet
	c.now = t1
	c.handlePacketEnd(0)
	after, ok := pending(c, 1)
	if !ok || after.at != t1+(before.at-t0) {
		t.Fatalf("after the unfreeze: pending %t at %v, want %v", ok, after.at, t1+(before.at-t0))
	}
	if h.has(fSuspended) {
		t.Fatal("still suspended after the unfreeze")
	}
	if c.rngs[1] != stream {
		t.Fatal("the freeze and unfreeze drew from the node's stream")
	}
}

// A multiplier tick during the freeze may change the rates, so it drops
// the suspension and the unfreeze draws a fresh dwell.
func TestSuspendDroppedByTick(t *testing.T) {
	leave0 := math.Inf(1)
	c, t0 := handClique(t, &leave0, never(), nil)
	before, _ := pending(c, 1)
	transmitAt(c, 0, t0)

	c.now = t0 + c.packetTime/2
	c.handleTick(1, c.tau)
	if c.hot[1].has(fSuspended) {
		t.Fatal("a tick during the freeze left the suspension in place")
	}
	stream := c.rngs[1]

	t1 := t0 + c.packetTime
	leave0 = t1
	c.now = t1
	c.handlePacketEnd(0)
	after, ok := pending(c, 1)
	if !ok {
		t.Fatal("no transition after the unfreeze")
	}
	if c.rngs[1] == stream {
		t.Fatal("the unfreeze did not draw a fresh dwell")
	}
	if after.at == t1+(before.at-t0) {
		t.Fatal("the unfreeze reused the dropped residual")
	}
}

// A node that departs under churn during the freeze gets no timer when
// the carrier frees up: churn has no boundary events, so the unfreeze
// itself must check presence.
func TestSuspendChurnDeparture(t *testing.T) {
	leave0, leave1 := math.Inf(1), math.Inf(1)
	c, t0 := handClique(t, &leave0, &leave1, nil)
	stream := c.rngs[1]
	transmitAt(c, 0, t0)
	if !c.hot[1].has(fSuspended) {
		t.Fatal("the sleeper was not suspended")
	}

	t1 := t0 + c.packetTime
	leave1 = t0 + c.packetTime/2
	leave0 = t1
	c.now = t1
	c.handlePacketEnd(0)
	if _, ok := pending(c, 1); ok {
		t.Fatal("a departed node was re-armed")
	}
	if c.hot[1].has(fSuspended) {
		t.Fatal("a departed node kept its suspension")
	}
	if c.rngs[1] != stream {
		t.Fatal("a departed node drew from its stream")
	}
}

// A crash of the transmitter releases the channel, and its frozen
// neighbors resume from their residuals.
func TestSuspendTransmitterCrash(t *testing.T) {
	c, t0 := handClique(t, never(), never(), nil)
	before := [3]transKey{}
	streams := c.rngs
	for j := 1; j < 3; j++ {
		before[j], _ = pending(c, j)
	}
	transmitAt(c, 0, t0)

	tk := t0 + c.packetTime/2
	flt, err := faults.Compile(&faults.Config{Crash: &faults.Crash{Kill: []int{0}, KillAt: tk}}, c.n, c.cfg.Duration, c.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c.flt = flt
	c.now = tk
	c.handleFault(0)
	if c.hot[0].state != model.Sleep {
		t.Fatalf("crashed transmitter in state %v", c.hot[0].state)
	}
	for j := 1; j < 3; j++ {
		after, ok := pending(c, j)
		want := tk + (before[j].at - t0)
		if !ok || after.at != want {
			t.Errorf("node %d: pending %t at %v, want %v", j, ok, after.at, want)
		}
		if c.hot[j].has(fSuspended) || c.rngs[j] != streams[j] {
			t.Errorf("node %d: suspended %t, stream advanced %t", j, c.hot[j].has(fSuspended), c.rngs[j] != streams[j])
		}
	}
}

// A frozen listener that the hard battery floor forces to sleep loses
// its suspension: the forced sleep cancels its transition, and a
// depleted sleeper gets no timer.
func TestSuspendDroppedByForcedSleep(t *testing.T) {
	c, t0 := handClique(t, never(), never(), func(cfg *Config) {
		cfg.HardBatteryFloor = true
		cfg.InitialBattery = 1e-3
	})
	c.now = t0
	c.setState(1, model.Listen)
	c.scheduleTransition(1)
	transmitAt(c, 0, t0)
	if !c.hot[1].has(fSuspended) {
		t.Fatal("the Capture listener was not suspended")
	}
	if c.pktListeners[0][0] != 1 {
		t.Fatalf("listeners %v, want node 1 first", c.pktListeners[0])
	}

	c.cores[1].Battery = 0
	c.now = t0 + c.packetTime
	c.handlePacketEnd(0)
	if c.hot[1].state != model.Sleep {
		t.Fatalf("depleted listener in state %v, want forced to sleep", c.hot[1].state)
	}
	if c.hot[1].has(fSuspended) {
		t.Fatal("the forced sleep left the suspension in place")
	}
	if _, ok := pending(c, 1); ok {
		t.Fatal("a depleted sleeper has a pending transition")
	}
}
