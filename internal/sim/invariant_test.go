package sim

import (
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/evq"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/topology"
)

// stepped builds cfg's coordinator, seeds it, and calls check after the
// seeding and after every step, one event each. It returns the number
// of steps.
func stepped(t *testing.T, cfg Config, check func(c *coordinator)) (*coordinator, int) {
	t.Helper()
	if cfg.Topology == nil {
		cfg.Topology = topology.Clique(cfg.Network.N())
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCoordinator(cfg, flt)
	if err != nil {
		t.Fatal(err)
	}
	c.start()
	check(c)
	steps := 0
	for c.step() {
		check(c)
		steps++
	}
	return c, steps
}

// listenersWithinNeighbors fails t unless the listener window of every
// in-flight packet is a subsequence of its transmitter's neighbor window:
// startPacket writes a packet's listeners in neighbor order into the
// window the neighbors' offsets bound. Only startPacket writes a window,
// and the packet it starts is in flight after that step, so checking
// after every step checks every window the run writes.
func listenersWithinNeighbors(t *testing.T, c *coordinator) {
	for i := 0; i < c.n; i++ {
		if !c.nodes[i].has(fPktActive) {
			continue
		}
		nbrs, lst := c.neighbors(i), c.listeners(i)
		k := 0
		for _, j := range lst {
			for k < len(nbrs) && nbrs[k] != j {
				k++
			}
			if k == len(nbrs) {
				t.Fatalf("node %d: listeners %v not a subset of neighbors %v", i, lst, nbrs)
			}
			k++
		}
	}
}

// underRace shortens cfg to the horizon d, scaling its warmup alike, when
// the test binary runs under the race detector. The step-by-step
// invariant tests check after every event, which the detector slows
// about tenfold; the shorter runs still pass each test's non-vacuity
// guard, and the non-race run keeps the full horizon.
func underRace(cfg Config, d float64) Config {
	if raceEnabled {
		cfg.Warmup *= d / cfg.Duration
		cfg.Duration = d
	}
	return cfg
}

// TestPendingEventsBounded pins the bounds and orders of the pending
// event sources after every step. The transition heap holds at most one
// entry per node: a superseded transition is cancelled in place and a
// frozen one suspended, so nothing accumulates. Left in the heap to be
// dropped at dispatch instead, the superseded transitions of the cold
// clique below peak at 1,079,115 entries for ten nodes: its multipliers
// grow until sleep dwells run past the horizon, and those entries are
// never popped. The packet-end FIFO is (at, seq)-sorted, which is what
// lets a FIFO stand in for a heap, and holds at most two entries per
// node (a crashed transmitter's stale packet end can outlive it into a
// new hold). The fault boundaries not yet dispatched stay sorted, and
// every listener window stays inside its neighbor window. The
// grid adds carrier-sense freezes and resamples of neighbors, and the
// faulty grid crashes, restarts and silences. Under the race detector
// the runs are 1000 s, 60 s and 30 s (about 340k, 1.2M and 260k steps).
func TestPendingEventsBounded(t *testing.T) {
	grid := withNodes(gridCfg(5), topology.Grid(10, 10))
	faulty := gridCfg(17)
	faulty.Faults = &faults.Config{
		Crash:   &faults.Crash{MeanUp: 40, MeanDown: 10},
		Silence: &faults.Silence{MeanEvery: 80, MeanFor: 5},
	}
	sorted := func(keys []evq.Key) bool {
		for i := 1; i < len(keys); i++ {
			if !evq.Less(keys[i-1].At, keys[i-1].Seq, keys[i].At, keys[i].Seq) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cold-clique", underRace(Config{
			Network:  model.Homogeneous(10, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
			Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
			Duration: 5000,
			Warmup:   500,
			Seed:     3,
		}, 1000)},
		{"grid", underRace(grid, 60)},
		{"grid-faults", underRace(faulty, 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxPkts := 0
			var pkts []evq.Key
			c, steps := stepped(t, tc.cfg, func(c *coordinator) {
				if c.trans.Len() > c.n {
					t.Fatalf("%d pending transitions for %d nodes", c.trans.Len(), c.n)
				}
				q := &c.pkts
				if q.n > 2*c.n {
					t.Fatalf("%d pending packet ends for %d nodes", q.n, c.n)
				}
				pkts = pkts[:0]
				for k := 0; k < q.n; k++ {
					pkts = append(pkts, q.keys[(q.head+k)&(len(q.keys)-1)])
				}
				if !sorted(pkts) {
					t.Fatalf("packet-end FIFO out of (at, seq) order: %v", pkts)
				}
				if !sorted(c.faults[c.faultNext:]) {
					t.Fatal("unread fault boundaries out of (at, seq) order")
				}
				listenersWithinNeighbors(t, c)
				maxPkts = max(maxPkts, q.n)
			})
			if steps < 10_000 {
				t.Fatalf("only %d steps; the check is too weak", steps)
			}
			if tc.cfg.Faults != nil && c.faultNext < 2 {
				t.Fatalf("only %d fault boundaries dispatched; the check is too weak", c.faultNext)
			}
			t.Logf("%d steps, packet-end high-water %d, %d of %d fault boundaries dispatched",
				steps, maxPkts, c.faultNext, len(c.faults))
		})
	}
}

// TestListeningToBalances pins the inverted listener relation the
// hidden-terminal check reads: between any two events, and at the end of
// a run, nodes[j].listeningTo equals the number of in-flight packets
// (fPktActive slots) whose listener window holds j, and every listener
// window lies inside its neighbor window. Crashes abandon packets
// mid-flight, so the fault runs exercise the unwind path too. Under the
// race detector the runs are 30 s instead of 300 s.
func TestListeningToBalances(t *testing.T) {
	check := func(t *testing.T, c *coordinator) (inFlight int) {
		t.Helper()
		want := make([]int32, c.n)
		for i := 0; i < c.n; i++ {
			if !c.nodes[i].has(fPktActive) {
				continue
			}
			inFlight++
			for _, j := range c.listeners(i) {
				want[j]++
			}
		}
		for j := range want {
			if got := c.nodes[j].listeningTo; got != want[j] {
				t.Fatalf("node %d: listeningTo = %d, want %d", j, got, want[j])
			}
		}
		listenersWithinNeighbors(t, c)
		return inFlight
	}
	faulty := &faults.Config{
		Crash:   &faults.Crash{MeanUp: 40, MeanDown: 10},
		Loss:    &faults.Loss{P: 0.1},
		Silence: &faults.Silence{MeanEvery: 80, MeanFor: 5},
	}
	for _, tc := range []struct {
		name   string
		topo   *topology.Topology // nil keeps gridCfg's 6x6 grid
		faults *faults.Config
	}{
		{"fault-free", nil, nil},
		{"faults", nil, faulty},
		{"clique", topology.Clique(36), faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gridCfg(17)
			if tc.topo != nil {
				cfg.Topology = tc.topo
			}
			cfg.Faults = tc.faults
			cfg = underRace(cfg, 30)
			busy := 0
			c, _ := stepped(t, cfg, func(c *coordinator) {
				if check(t, c) > 0 {
					busy++
				}
			})
			c.drain()
			check(t, c)
			if busy == 0 {
				t.Fatal("no packet was ever in flight; the check is vacuous")
			}
		})
	}
}
