package sim

import (
	"fmt"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sweep"
	"econcast/internal/topology"
)

// scaleBenchCase is one N-point of the scale benchmarks. Horizons
// shrink with N so every point dispatches a few million events; the
// topology is built once and shared read-only across replicate cells.
type scaleBenchCase struct {
	label    string
	topo     *topology.Topology
	n        int
	duration float64
	warmup   float64
}

func scaleBenchCases() []scaleBenchCase {
	return []scaleBenchCase{
		{label: "n=1k", topo: topology.Grid(32, 32), n: 1024, duration: 2.5, warmup: 0.5},
		{label: "n=10k", topo: topology.Grid(100, 100), n: 10000, duration: 0.25, warmup: 0.05},
		{label: "n=100k", topo: topology.Grid(316, 316), n: 99856, duration: 0.15, warmup: 0.02},
	}
}

func (sc scaleBenchCase) config(seed uint64) Config {
	return Config{
		Network:  model.Homogeneous(sc.n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
		Topology: sc.topo,
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
		Duration: sc.duration,
		Warmup:   sc.warmup,
		Seed:     seed,
	}
}

// BenchmarkScaleGrid is the committed scale datapoint generator for
// BENCH_PR9.json: aggregate engine throughput on grids at
// N = 1k/10k/100k, with 4 replicate sims fanned out as sweep cells at
// worker counts 1/4/16 (clamped to the replicate count; on a 1-core
// runner the aggregate is bounded by single-thread throughput). The
// events/s metric is total dispatched events over wall time, including
// engine setup.
func BenchmarkScaleGrid(b *testing.B) {
	for _, sc := range scaleBenchCases() {
		b.Run(sc.label, func(b *testing.B) {
			for _, workers := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						reps := []uint64{1, 2, 3, 4}
						total := 0
						counts, err := sweep.Map(workers, reps, func(ri int, rep uint64) (int, error) {
							m, err := Run(sc.config(rng.DeriveSeed(7, uint64(sc.n), rep)))
							if err != nil {
								return 0, err
							}
							return m.Events, nil
						})
						if err != nil {
							b.Fatal(err)
						}
						for _, c := range counts {
							total += c
						}
						b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
					}
				})
			}
		})
	}
}
