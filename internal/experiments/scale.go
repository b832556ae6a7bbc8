package experiments

import (
	"fmt"
	"math"
	"time"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sim"
	"econcast/internal/sweep"
	"econcast/internal/topology"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Title: "Scale: spatial-interference engine on grids and RGGs, N = 1k-100k",
		Run:   runScale,
	})
}

// scaleCase is one cell of the scale sweep. The topology is built inside
// the cell (construction cost is part of scaling), and the horizon
// shrinks with N so every cell dispatches a comparable event count.
type scaleCase struct {
	name     string
	n        int
	build    func(src *rng.Source) *topology.Topology
	duration float64
	warmup   float64
}

// scaleResult carries one cell's measurements back through the sweep:
// the deterministic simulation outputs plus the (nondeterministic)
// wall-clock cost, kept in separate tables downstream.
type scaleResult struct {
	events  int
	packets int
	group   float64
	seconds float64
}

func gridCase(side int, duration, warmup float64) scaleCase {
	return scaleCase{
		name:     fmt.Sprintf("grid %dx%d", side, side),
		n:        side * side,
		build:    func(*rng.Source) *topology.Topology { return topology.Grid(side, side) },
		duration: duration,
		warmup:   warmup,
	}
}

func rggCase(n int, duration, warmup float64) scaleCase {
	// Radius targets a constant expected degree (~6) so density, and with
	// it per-node event rates, stay comparable across N.
	radius := math.Sqrt(6 / (math.Pi * float64(n)))
	return scaleCase{
		name:     fmt.Sprintf("rgg %d", n),
		n:        n,
		build:    func(src *rng.Source) *topology.Topology { return topology.RandomGeometric(n, radius, src) },
		duration: duration,
		warmup:   warmup,
	}
}

// runScale sweeps the engine across topology size on grid and
// random-geometric families. Each cell is one sim run; the
// deterministic outputs land in the first table, and in full mode a
// second table reports the wall-clock throughput of each cell.
func runScale(opts Options) ([]*Table, error) {
	var cases []scaleCase
	if opts.Quick {
		cases = []scaleCase{
			gridCase(32, 4, 1),
			gridCase(100, 0.4, 0.1),
			rggCase(1000, 4, 1),
			rggCase(10000, 0.4, 0.1),
		}
	} else {
		cases = []scaleCase{
			gridCase(32, 40, 5),
			gridCase(100, 4, 0.5),
			gridCase(316, 0.4, 0.05),
			rggCase(1000, 40, 5),
			rggCase(10000, 4, 0.5),
			rggCase(100000, 0.4, 0.05),
		}
	}

	results, err := sweep.Map(opts.Workers, cases, func(ci int, sc scaleCase) (scaleResult, error) {
		begin := time.Now() //lint:allow wallclock throughput is this experiment's measurement; no simulated quantity reads it
		topo := sc.build(rng.New(rng.DeriveSeed(opts.Seed, 71, uint64(ci), 1)))
		m, err := sim.Run(sim.Config{
			Network:  model.Homogeneous(sc.n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
			Topology: topo,
			Protocol: sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
			Duration: sc.duration,
			Warmup:   sc.warmup,
			Seed:     rng.DeriveSeed(opts.Seed, 71, uint64(ci), 2),
		})
		if err != nil {
			return scaleResult{}, err
		}
		return scaleResult{
			events:  m.Events,
			packets: m.PacketsSent,
			group:   m.Groupput,
			seconds: time.Since(begin).Seconds(), //lint:allow wallclock throughput is this experiment's measurement; no simulated quantity reads it
		}, nil
	})
	if err != nil {
		return nil, err
	}

	det := &Table{
		Name: "Scale: event engine (rho=60uW, L=X=500uW, sigma=0.5)",
		Notes: "byte-identical at every worker count; " +
			"horizons shrink with N so cells dispatch comparable event counts",
		Head: []string{"topology", "N", "events", "packets", "groupput(agg)"},
	}
	for i, sc := range cases {
		r := results[i]
		det.Rows = append(det.Rows, []string{
			sc.name, fmt.Sprint(sc.n),
			fmt.Sprint(r.events), fmt.Sprint(r.packets), f4(r.group),
		})
	}
	if opts.Quick {
		// Quick mode (tests, byte-identity pins) reports only the
		// deterministic table; wall-clock numbers vary run to run.
		return []*Table{det}, nil
	}
	perf := &Table{
		Name:  "Scale: wall-clock throughput (this machine, nondeterministic)",
		Notes: "includes topology construction and engine setup",
		Head:  []string{"topology", "N", "events/sec", "ns/event"},
	}
	for i, sc := range cases {
		r := results[i]
		evps := float64(r.events) / r.seconds
		perf.Rows = append(perf.Rows, []string{
			sc.name, fmt.Sprint(sc.n),
			fmt.Sprintf("%.0f", evps), fmt.Sprintf("%.0f", 1e9*r.seconds/float64(r.events)),
		})
	}
	return []*Table{det, perf}, nil
}
