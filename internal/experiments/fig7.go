package experiments

import (
	"fmt"
	"math"

	"econcast/internal/baselines"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/statespace"
	"econcast/internal/stats"
	"econcast/internal/sweep"
	"econcast/internal/testbed"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: emulated-testbed throughput ratios (Ideal/Relaxed) and battery variance",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table III: emulated EconCast-C vs Panda analytic (normalized to T^sigma_g)",
		Run:   runTable3,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Table IV: distribution of pings (active listeners) per transmission",
		Run:   runTable4,
	})
}

func testbedNode(budget float64) model.Node {
	return model.Node{
		Budget:        budget,
		ListenPower:   67.08 * model.MilliWatt,
		TransmitPower: 56.29 * model.MilliWatt,
	}
}

func runTestbed(n int, budget, sigma float64, opts Options) (*testbed.Metrics, error) {
	duration, warmup := 40000.0, 6000.0
	if opts.Quick {
		duration, warmup = 6000, 1500
	}
	return testbed.Run(testbed.Config{
		N:        n,
		Budget:   budget,
		Sigma:    sigma,
		Duration: duration,
		Warmup:   warmup,
		Seed:     rng.DeriveSeed(opts.Seed, uint64(n), math.Float64bits(budget), math.Float64bits(sigma)),
	})
}

// testbedPoint is one emulation operating point shared by the testbed
// sweeps below.
type testbedPoint struct {
	n      int
	budget float64
	sigma  float64
}

func runFig7(opts Options) ([]*Table, error) {
	t := &Table{
		Name: "Fig. 7: testbed-emulation ratios (paper: Ideal 57-77%, Relaxed 67-81%)",
		Notes: "Ideal = experimental / T^sigma(rho); Relaxed = experimental / T^sigma(actual power); " +
			"battery variance = per-node power / rho (mean [min, max])",
		Head: []string{"rho(mW)", "N", "sigma", "Ideal", "Relaxed", "power/rho mean", "min", "max"},
	}
	var points []testbedPoint
	for _, budget := range []float64{1 * model.MilliWatt, 5 * model.MilliWatt} {
		for _, n := range []int{5, 10} {
			for _, sigma := range []float64{0.25, 0.5} {
				points = append(points, testbedPoint{n: n, budget: budget, sigma: sigma})
			}
		}
	}
	rows, err := sweep.Map(opts.Workers, points, func(_ int, p testbedPoint) ([]string, error) {
		m, err := runTestbed(p.n, p.budget, p.sigma, opts)
		if err != nil {
			return nil, err
		}
		ideal, err := statespace.SolveP4Typed([]int{p.n}, []model.Node{testbedNode(p.budget)}, p.sigma, model.Groupput, nil)
		if err != nil {
			return nil, err
		}
		var pow stats.Accumulator
		for _, pw := range m.Power {
			pow.Add(pw)
		}
		relaxedRef, err := statespace.SolveP4Typed([]int{p.n}, []model.Node{testbedNode(pow.Mean())}, p.sigma, model.Groupput, nil)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%.0f", p.budget/model.MilliWatt),
			fmt.Sprintf("%d", p.n),
			fmt.Sprintf("%.2f", p.sigma),
			pct(m.Groupput / ideal.Throughput),
			pct(m.Groupput / relaxedRef.Throughput),
			f3(pow.Mean() / p.budget),
			f3(pow.Min() / p.budget),
			f3(pow.Max() / p.budget),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return []*Table{t}, nil
}

func runTable3(opts Options) ([]*Table, error) {
	const sigma = 0.25
	t := &Table{
		Name: "Table III: EconCast-C (emulated) vs Panda (analytic), sigma=0.25",
		Notes: "paper row anchors: T~/T^sigma = 67-81%, Panda/T^sigma = 6-36%, " +
			"EconCast/Panda = 2.3x-10.8x (throughputs normalized by T^sigma_g)",
		Head: []string{"(N, rho mW)", "T~/T^sigma %", "Panda/T^sigma %", "T~/Panda"},
	}
	points := []testbedPoint{
		{n: 5, budget: 1 * model.MilliWatt, sigma: sigma},
		{n: 10, budget: 1 * model.MilliWatt, sigma: sigma},
		{n: 5, budget: 5 * model.MilliWatt, sigma: sigma},
		{n: 10, budget: 5 * model.MilliWatt, sigma: sigma},
	}
	rows, err := sweep.Map(opts.Workers, points, func(_ int, p testbedPoint) ([]string, error) {
		m, err := runTestbed(p.n, p.budget, p.sigma, opts)
		if err != nil {
			return nil, err
		}
		node := testbedNode(p.budget)
		ref, err := statespace.SolveP4Typed([]int{p.n}, []model.Node{node}, p.sigma, model.Groupput, nil)
		if err != nil {
			return nil, err
		}
		// Panda at the testbed's packet length.
		panda, err := baselines.PandaOptimize(p.n, node, 40e-3, model.Groupput)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("(%d, %.0f)", p.n, p.budget/model.MilliWatt),
			pct(m.Groupput / ref.Throughput),
			pct(panda.Groupput / ref.Throughput),
			fmt.Sprintf("%.2f", m.Groupput/panda.Groupput),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return []*Table{t}, nil
}

func runTable4(opts Options) ([]*Table, error) {
	const sigma = 0.25
	t := &Table{
		Name:  "Table IV: pings (estimated listeners) per transmission, N=5, sigma=0.25",
		Notes: "paper: rho=1mW -> 89.0/9.7/1.3/0/0 %; rho=5mW -> 59.2/31.2/8.2/1.2/0.1 %",
		Head:  []string{"rho(mW)", "0", "1", "2", "3", "4"},
	}
	budgets := []float64{1 * model.MilliWatt, 5 * model.MilliWatt}
	rows, err := sweep.Map(opts.Workers, budgets, func(_ int, budget float64) ([]string, error) {
		m, err := runTestbed(5, budget, sigma, opts)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.0f", budget/model.MilliWatt)}
		for v := 0; v <= 4; v++ {
			row = append(row, pct(m.PingCounts.Fraction(v)))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return []*Table{t}, nil
}
