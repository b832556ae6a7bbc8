package experiments

import (
	"fmt"
	"math"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sim"
	"econcast/internal/statespace"
	"econcast/internal/sweep"
)

func init() {
	register(Experiment{
		ID:    "ablations",
		Title: "Ablations: ping noise, delta/tau tradeoff (§V-F), C vs NC, storage size",
		Run:   runAblations,
	})
}

func ablationNet() *model.Network {
	return model.Homogeneous(5, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
}

func runAblations(opts Options) ([]*Table, error) {
	duration, warmup := 12000.0, 2000.0
	algIters := 4000
	if opts.Quick {
		duration, warmup = 2500, 500
		algIters = 800
	}
	nw := ablationNet()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		return nil, err
	}
	refQ, err := statespace.SolveP4(nw, 0.25, model.Groupput, nil)
	if err != nil {
		return nil, err
	}

	// All four ablation sections are declared as one flat cell slice (each
	// cell yields a formatted row) and fanned out together; section offsets
	// slice the results back apart.
	var cells []sweep.Cell[[]string]

	// 1. Ping-estimate noise: each listener's ping is lost independently
	// with probability p; the transmitter's c-hat undercounts.
	losses := []float64{0, 0.25, 0.5, 0.75}
	for _, loss := range losses {
		loss := loss
		cells = append(cells, func() ([]string, error) {
			cfg := sim.Config{
				Network:  nw,
				Protocol: sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
				Duration: duration, Warmup: warmup,
				Seed:    rng.DeriveSeed(opts.Seed, 1, math.Float64bits(loss)),
				WarmEta: ref.Eta,
			}
			if loss > 0 {
				p := loss
				cfg.EstimateListeners = func(actual int, src *rng.Source) int {
					count := 0
					for k := 0; k < actual; k++ {
						if !src.Bernoulli(p) {
							count++
						}
					}
					return count
				}
			}
			m, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprintf("%.0f%%", 100*loss), f4(m.Groupput), f3(m.Groupput / ref.Throughput),
			}, nil
		})
	}

	// 2. delta/tau tradeoff via Algorithm 1: large steps adapt fast but
	// oscillate; small steps converge slowly (§V-F). Deterministic solver
	// cells — no seed involved.
	schedules := []struct {
		name  string
		delta func(int) float64
	}{
		{"constant 0.05", statespace.ConstantDelta(0.05)},
		{"constant 0.5", statespace.ConstantDelta(0.5)},
		{"constant 5", statespace.ConstantDelta(5)},
		{"harmonic 2/k", statespace.HarmonicDelta(2)},
	}
	for _, c := range schedules {
		c := c
		cells = append(cells, func() ([]string, error) {
			res, trace, err := statespace.SolveAlgorithm1(nw, 0.5, model.Groupput, c.delta, algIters)
			if err != nil {
				return nil, err
			}
			last := trace.Violation[len(trace.Violation)-1]
			return []string{
				c.name, fmt.Sprintf("%d", algIters), f4(last),
				f3((res.Throughput - ref.Throughput) / ref.Throughput),
			}, nil
		})
	}

	// 3. Capture vs non-capture: same stationary throughput, very
	// different burstiness.
	variants := []econcast.Variant{econcast.Capture, econcast.NonCapture}
	for _, v := range variants {
		v := v
		cells = append(cells, func() ([]string, error) {
			m, err := sim.Run(sim.Config{
				Network:  nw,
				Protocol: sim.Protocol{Mode: model.Groupput, Variant: v, Sigma: 0.5},
				Duration: duration, Warmup: warmup,
				Seed:    rng.DeriveSeed(opts.Seed, 2, uint64(v)),
				WarmEta: ref.Eta, FreezeEta: true,
			})
			if err != nil {
				return nil, err
			}
			lat := 0.0
			if m.Latency.N() > 0 {
				lat = m.Latency.Mean()
			}
			return []string{
				v.String(), f4(m.Groupput), f3(m.BurstLengths.Mean()), f3(lat),
			}, nil
		})
	}

	// 4. Storage size under a hard battery floor at sigma=0.25: small
	// stores truncate bursts (and throughput); larger stores approach the
	// idealized virtual battery. These cells start cold, and the largest
	// store has not settled within the quick horizon (its groupput
	// ranged from 0.24 to 1.11 of analytic over seeds 1-6), so quick
	// mode runs them at full length too; the four cells stay cheap.
	const storeDuration, storeWarmup = 12000.0, 2000.0
	floors := []float64{0.2e-3, 1e-3, 5e-3, 20e-3}
	for _, floor := range floors {
		floor := floor
		cells = append(cells, func() ([]string, error) {
			m, err := sim.Run(sim.Config{
				Network:  nw,
				Protocol: sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.25, Delta: 0.1},
				Duration: storeDuration, Warmup: storeWarmup,
				Seed:             rng.DeriveSeed(opts.Seed, 3, math.Float64bits(floor)),
				HardBatteryFloor: true, InitialBattery: floor,
			})
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprintf("%.1f mJ", floor*1e3), f4(m.Groupput), f3(m.Groupput / refQ.Throughput),
			}, nil
		})
	}

	rows, err := sweep.Run(opts.Workers, cells)
	if err != nil {
		return nil, err
	}

	noise := &Table{
		Name:  "Ablation: ping loss probability vs throughput (sigma=0.5, warm start)",
		Notes: fmt.Sprintf("analytic T^0.5 = %s; estimates need not be accurate for EconCast to function (§V-C)", f4(ref.Throughput)),
		Head:  []string{"ping loss", "groupput", "vs analytic"},
	}
	dt := &Table{
		Name: "Ablation: Algorithm 1 step size (delta) vs convergence (§V-F)",
		Head: []string{"schedule", "iters", "final violation", "throughput err"},
	}
	cvn := &Table{
		Name: "Ablation: EconCast-C vs EconCast-NC (sigma=0.5, frozen eta*)",
		Head: []string{"variant", "groupput", "hold length", "mean latency (s)"},
	}
	store := &Table{
		Name:  "Ablation: energy storage size with a hard floor (sigma=0.25, cold start)",
		Notes: fmt.Sprintf("analytic T^0.25 = %s; bursts need storage (§VII-D)", f4(refQ.Throughput)),
		Head:  []string{"initial store", "groupput", "vs analytic"},
	}
	off := 0
	take := func(t *Table, n int) {
		t.Rows = append(t.Rows, rows[off:off+n]...)
		off += n
	}
	take(noise, len(losses))
	take(dt, len(schedules))
	take(cvn, len(variants))
	take(store, len(floors))

	return []*Table{noise, dt, cvn, store}, nil
}
