package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"econcast/internal/econcast"
	"econcast/internal/experiments"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sim"
	"econcast/internal/statespace"
	"econcast/internal/topology"
)

// paperFigs are the figures paper-quick regenerates, in order.
var paperFigs = []string{"fig2", "fig4", "fig5", "fig6"}

// runPaper is one paper-quick repeat: the figures in quick mode at the
// default worker count. start is when the process was launched, so
// setup covers process start-up through the first experiment call.
// Traced, it also regenerates the figures on one worker and times the
// single-queue cells and the P4 solve the figures are built from.
func runPaper(figs []string, seed uint64, start time.Time, tr *tracer) *result {
	res := newResult()
	root, rootStart := tr.begin()
	exps, err := lookupFigs(figs)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.SetupS = time.Since(start).Seconds()

	c0 := cpuSeconds()
	digest, times, wall := paperPass(res, exps, seed, 0, tr, root, "")
	res.Digest, res.WallS, res.CPUS = digest, wall, cpuSeconds()-c0
	if tr == nil {
		return res
	}

	l := res.Layer
	sum := 0.0
	for i, e := range exps {
		l["experiments."+e.ID+"_s"] = times[i]
		sum += times[i]
	}
	l["residual.paper_s"] = wall - sum
	serialDigest, _, serialWall := paperPass(res, exps, seed, 1, tr, root, ".serial")
	if serialDigest != digest {
		res.fail("tables at Workers=1 differ from tables at the default worker count")
	}
	l["experiments.serial_s"] = serialWall
	l["sweep.speedup"] = serialWall / wall
	l["sim.clique_ns_per_event"] = cellNanosPerEvent(res, tr, root, "sim.Run.clique", cliqueCell(seed))
	l["sim.smallgrid_ns_per_event"] = cellNanosPerEvent(res, tr, root, "sim.Run.smallgrid", smallGridCell(seed))
	l["statespace.p4_us"] = p4Micros(res, tr, root, seed)
	tr.end(root, 0, 0, "bench.paper-quick", rootStart)
	return res
}

func lookupFigs(figs []string) ([]experiments.Experiment, error) {
	exps := make([]experiments.Experiment, 0, len(figs))
	for _, id := range figs {
		e, ok := experiments.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// paperPass regenerates every figure once at the given worker count,
// checks the paper's ratio bounds, and fingerprints the tables.
func paperPass(res *result, exps []experiments.Experiment, seed uint64, workers int, tr *tracer, parent int64, suffix string) (digest string, times []float64, wall float64) {
	h := sha256.New()
	t0 := time.Now()
	for _, e := range exps {
		var tables []*experiments.Table
		var err error
		times = append(times, tr.do("experiments."+e.ID+suffix, parent, func(int64) {
			tables, err = e.Run(experiments.Options{Quick: true, Seed: seed, Workers: workers})
		}))
		res.Ops++
		if err != nil {
			res.fail("%s: %v", e.ID, err)
			continue
		}
		if err := checkRatios(e.ID, tables); err != nil {
			res.fail("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			h.Write([]byte(t.Format()))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), times, time.Since(t0).Seconds()
}

var paperNode = model.Node{
	Budget:        10 * model.MicroWatt,
	ListenPower:   500 * model.MicroWatt,
	TransmitPower: 500 * model.MicroWatt,
}

// cliqueCell is fig5's N=10, sigma=0.5 groupput cell: a clique on the
// single-queue engine, warm-started at the P4 operating point.
func cliqueCell(seed uint64) func() (sim.Config, error) {
	return func() (sim.Config, error) {
		const n, sigma = 10, 0.5
		nw := model.Homogeneous(n, paperNode.Budget, paperNode.ListenPower, paperNode.TransmitPower)
		ref, err := statespace.SolveP4(nw, sigma, model.Groupput, nil)
		if err != nil {
			return sim.Config{}, err
		}
		return sim.Config{
			Network:  nw,
			Protocol: sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: sigma, Delta: 0.1},
			Duration: 5000,
			Warmup:   500,
			Seed:     rng.DeriveSeed(seed, uint64(model.Groupput), n, math.Float64bits(sigma)),
			WarmEta:  ref.Eta,
		}, nil
	}
}

// smallGridCell is fig6's N=25, sigma=0.5 cell: a 5x5 grid, below the
// auto-shard threshold, so it also runs on the single-queue engine.
func smallGridCell(seed uint64) func() (sim.Config, error) {
	return func() (sim.Config, error) {
		const n, sigma = 25, 0.5
		return sim.Config{
			Network:          model.Homogeneous(n, paperNode.Budget, paperNode.ListenPower, paperNode.TransmitPower),
			Topology:         topology.SquareGrid(n),
			Protocol:         sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: sigma, Delta: 0.1},
			Duration:         3000,
			Warmup:           500,
			Seed:             rng.DeriveSeed(seed, n, math.Float64bits(sigma)),
			HardBatteryFloor: true,
			InitialBattery:   2e-3,
		}, nil
	}
}

// cellNanosPerEvent runs one figure cell directly and returns its
// simulator cost per dispatched event.
func cellNanosPerEvent(res *result, tr *tracer, parent int64, name string, cell func() (sim.Config, error)) float64 {
	cfg, err := cell()
	res.Ops++
	if err != nil {
		res.fail("%s: %v", name, err)
		return 0
	}
	var m *sim.Metrics
	wall := tr.do(name, parent, func(int64) { m, err = sim.Run(cfg) })
	if err == nil {
		err = checkSim(m)
	}
	if err != nil {
		res.fail("%s: %v", name, err)
		return 0
	}
	return wall * 1e9 / float64(m.Events)
}

// p4Micros times statespace.SolveP4 on fresh fig2-shaped networks
// (N=5, heterogeneity h=100) and returns the median in microseconds.
func p4Micros(res *result, tr *tracer, parent int64, seed uint64) float64 {
	const solves = 20
	src := rng.New(rng.DeriveSeed(seed, 0x7034)) // "p4"
	spec := model.HeterogeneitySpec{N: 5, H: 100}
	per := make([]float64, 0, solves)
	for i := 0; i < solves; i++ {
		nw := spec.Sample(src)
		var err error
		wall := tr.do("statespace.SolveP4", parent, func(int64) {
			_, err = statespace.SolveP4(nw, 0.25, model.Groupput, nil)
		})
		res.Ops++
		if err != nil {
			res.fail("SolveP4: %v", err)
			continue
		}
		per = append(per, wall*1e6)
	}
	return median(per)
}
