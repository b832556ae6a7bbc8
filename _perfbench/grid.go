package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sim"
	"econcast/internal/topology"
)

// gridSize is the grid-100k input shape. The horizon is far shorter
// than the scale experiment's 0.15 s so one run dispatches a couple of
// million events and several runs fit in one benchmark run.
type gridSize struct {
	rows, cols       int
	duration, warmup float64 // simulated seconds
}

var gridFull = gridSize{rows: 316, cols: 316, duration: 0.02, warmup: 0.004}

// gridSeedDomain separates this workload's seed derivation.
const gridSeedDomain = 0x67726964 // "grid"

// gridInputs is what setup builds: the topology and the network.
type gridInputs struct {
	topo *topology.Topology
	nw   *model.Network
}

// gridSetup builds the inputs and reports how long the topology took.
func gridSetup(sz gridSize, tr *tracer, parent int64) (in gridInputs, topoS float64) {
	topoS = tr.do("topology.Grid", parent, func(int64) { in.topo = topology.Grid(sz.rows, sz.cols) })
	tr.do("model.Homogeneous", parent, func(int64) {
		in.nw = model.Homogeneous(in.topo.N(), 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	})
	return in, topoS
}

func gridConfig(sz gridSize, in gridInputs, seed uint64) sim.Config {
	return sim.Config{
		Network:  in.nw,
		Topology: in.topo,
		Protocol: sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		Duration: sz.duration,
		Warmup:   sz.warmup,
		Seed:     rng.DeriveSeed(seed, gridSeedDomain),
	}
}

// checkSim applies the output checks that hold for every fault-free run.
func checkSim(m *sim.Metrics) error {
	switch {
	case m.Anyput > m.Groupput:
		return fmt.Errorf("anyput %g > groupput %g", m.Anyput, m.Groupput)
	case m.PacketsAnyDeliver > m.PacketsSent:
		return fmt.Errorf("packets delivered to anyone %d > sent %d", m.PacketsAnyDeliver, m.PacketsSent)
	case m.LostReceptions != 0:
		return fmt.Errorf("%d receptions lost without faults", m.LostReceptions)
	case m.Events <= 0:
		return fmt.Errorf("no events dispatched")
	}
	return nil
}

// runGrid is one grid-100k repeat: set up, then one sim.Run at the
// shipped defaults. Traced, it also times the layer calls the run is
// made of and repeats the run on the serial engine.
func runGrid(sz gridSize, seed uint64, tr *tracer) *result {
	res := newResult()
	root, rootStart := tr.begin()
	t0 := time.Now()
	in, topoS := gridSetup(sz, tr, root)
	res.SetupS = time.Since(t0).Seconds()

	cfg := gridConfig(sz, in, seed)
	var m *sim.Metrics
	var err error
	c0 := cpuSeconds()
	res.WallS = tr.do("sim.Run", root, func(int64) { m, err = sim.Run(cfg) })
	res.CPUS = cpuSeconds() - c0
	res.Ops++
	if err != nil {
		res.fail("sim.Run: %v", err)
		tr.end(root, 0, 0, "bench.grid-100k", rootStart)
		return res
	}
	if err := checkSim(m); err != nil {
		res.fail("sim output: %v", err)
	}
	res.Digest = fmt.Sprintf("events=%d groupput=%x", m.Events, math.Float64bits(m.Groupput))
	res.Named["events_per_s"] = float64(m.Events) / res.WallS
	if tr == nil {
		return res
	}

	// The traced remainder of the ladder: the partition Run builds
	// internally, the same run on the serial engine, and the RNG draw.
	l := res.Layer
	l["sim.run_s"] = res.WallS
	l["sim.events"] = float64(m.Events)
	l["sim.ns_per_event"] = res.WallS * 1e9 / float64(m.Events)
	l["sim.delivered_per_sent"] = float64(m.PacketsDelivered) / float64(m.PacketsSent)
	l["sim.collided_per_sent"] = float64(m.CollidedReceptions) / float64(m.PacketsSent)
	l["topology.grid_build_ms"] = topoS * 1e3
	l["topology.partition_ms"] = 1e3 * tr.do("topology.NewPartition", root, func(int64) {
		topology.NewPartition(in.topo, in.topo.N()/1024)
	})

	serialCfg := cfg
	serialCfg.Parallel = 1
	var ms *sim.Metrics
	serialWall := tr.do("sim.Run.serial", root, func(int64) { ms, err = sim.Run(serialCfg) })
	res.Ops++
	switch {
	case err != nil:
		res.fail("serial sim.Run: %v", err)
	case !reflect.DeepEqual(m, ms):
		res.fail("default and Parallel=1 metrics differ (events %d vs %d)", m.Events, ms.Events)
	default:
		l["sim.serial_ns_per_event"] = serialWall * 1e9 / float64(ms.Events)
	}

	l["rng.exp_ns"] = expNanos(tr, root, seed)
	tr.end(root, 0, 0, "bench.grid-100k", rootStart)
	l["residual.grid_s"] = float64(selfTimes(tr.snapshot())[root]) / 1e9
	return res
}

// expSink keeps the timed draws observable so the loop is not elided.
var expSink float64

// expNanos times rng.Source.Exp draws: the median over batches of the
// per-draw cost.
func expNanos(tr *tracer, parent int64, seed uint64) float64 {
	const batches, draws = 5, 2_000_000
	src := rng.New(rng.DeriveSeed(seed, gridSeedDomain, 1))
	sink := 0.0
	per := make([]float64, batches)
	for b := range per {
		per[b] = tr.do("rng.Exp", parent, func(int64) {
			for i := 0; i < draws; i++ {
				sink += src.Exp(1)
			}
		}) * 1e9 / draws
	}
	expSink = sink
	return median(per)
}
