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
	"econcast/internal/viz"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4: average burst length vs sigma (analytic curves + simulation markers)",
		Run:   runFig4,
	})
}

// fig4Cell holds everything one sigma contributes: analytic burst lengths
// per network size, simulated means (NaN where no marker is simulated),
// and the anyput curve values.
type fig4Cell struct {
	analytic []float64
	simMean  []float64
	anyCurve float64
	anyput   []float64
}

func runFig4(opts Options) ([]*Table, error) {
	ns := []int{5, 10}
	curveSigmas := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0}
	node := model.Node{
		Budget:        10 * model.MicroWatt,
		ListenPower:   500 * model.MicroWatt,
		TransmitPower: 500 * model.MicroWatt,
	}

	tg := &Table{
		Name:  "Fig. 4(a): groupput average burst length (eq. 34)",
		Notes: "curves analytic; markers from simulation at sigma in {0.25, 0.5}",
		Head:  []string{"sigma", "N=5 analytic", "N=10 analytic", "N=5 sim", "N=10 sim"},
	}
	ta := &Table{
		Name: "Fig. 4(b): anyput average burst length (eq. 35: e^{1/sigma}, independent of N)",
		Head: []string{"sigma", "analytic", "N=5 analytic", "N=10 analytic"},
	}

	simAt := map[float64]bool{0.25: true, 0.5: true}
	duration, warmup := 20000.0, 500.0
	if opts.Quick {
		duration, warmup = 3000, 200
	}

	chart := &viz.Chart{
		Title:    "Fig. 4(a): groupput average burst length",
		Subtitle: "rho=10uW, L=X=500uW; curves analytic (eq. 34), markers simulated",
		XLabel:   "sigma", YLabel: "average burst length (packets)",
		YLog: true,
	}
	chart.Series = append(chart.Series,
		viz.Series{Name: "N=5 analytic"},
		viz.Series{Name: "N=10 analytic"},
		viz.Series{Name: "N=5 sim", MarkersOnly: true},
		viz.Series{Name: "N=10 sim", MarkersOnly: true},
	)

	cells := make([]sweep.Cell[fig4Cell], 0, len(curveSigmas))
	for _, sigma := range curveSigmas {
		sigma := sigma
		cells = append(cells, func() (fig4Cell, error) {
			c := fig4Cell{anyCurve: statespace.AnyputBurstLength(sigma)}
			for _, n := range ns {
				res, err := statespace.SolveP4Typed([]int{n}, []model.Node{node}, sigma, model.Groupput, nil)
				if err != nil {
					return fig4Cell{}, err
				}
				c.analytic = append(c.analytic, res.BurstLength)
			}
			for _, n := range ns {
				if !simAt[sigma] {
					c.simMean = append(c.simMean, math.NaN())
					continue
				}
				nw := model.Homogeneous(n, node.Budget, node.ListenPower, node.TransmitPower)
				ref, err := statespace.SolveP4(nw, sigma, model.Groupput, nil)
				if err != nil {
					return fig4Cell{}, err
				}
				m, err := sim.Run(sim.Config{
					Network:   nw,
					Protocol:  sim.Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: sigma},
					Duration:  duration,
					Warmup:    warmup,
					Seed:      rng.DeriveSeed(opts.Seed, uint64(n), math.Float64bits(sigma)),
					WarmEta:   ref.Eta,
					FreezeEta: true,
				})
				if err != nil {
					return fig4Cell{}, err
				}
				c.simMean = append(c.simMean, m.BurstLengths.Mean())
			}
			for _, n := range ns {
				res, err := statespace.SolveP4Typed([]int{n}, []model.Node{node}, sigma, model.Anyput, nil)
				if err != nil {
					return fig4Cell{}, err
				}
				c.anyput = append(c.anyput, res.BurstLength)
			}
			return c, nil
		})
	}
	res, err := sweep.Run(opts.Workers, cells)
	if err != nil {
		return nil, err
	}

	for i, sigma := range curveSigmas {
		c := res[i]
		rowG := []string{fmt.Sprintf("%.2f", sigma)}
		for ni := range ns {
			rowG = append(rowG, sci(c.analytic[ni]))
			chart.Series[ni].X = append(chart.Series[ni].X, sigma)
			chart.Series[ni].Y = append(chart.Series[ni].Y, c.analytic[ni])
		}
		for ni := range ns {
			mean := c.simMean[ni]
			if math.IsNaN(mean) {
				rowG = append(rowG, "-")
				continue
			}
			rowG = append(rowG, sci(mean))
			if mean > 0 {
				chart.Series[2+ni].X = append(chart.Series[2+ni].X, sigma)
				chart.Series[2+ni].Y = append(chart.Series[2+ni].Y, mean)
			}
		}
		tg.Rows = append(tg.Rows, rowG)

		rowA := []string{fmt.Sprintf("%.2f", sigma), sci(c.anyCurve)}
		for ni := range ns {
			rowA = append(rowA, sci(c.anyput[ni]))
		}
		ta.Rows = append(ta.Rows, rowA)
	}
	tg.Chart = chart
	return []*Table{tg, ta}, nil
}
