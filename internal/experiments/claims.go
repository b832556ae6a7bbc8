package experiments

import (
	"fmt"

	"econcast/internal/baselines"
	"econcast/internal/model"
	"econcast/internal/oracle"
	"econcast/internal/statespace"
)

func init() {
	register(Experiment{
		ID:    "text-homog",
		Title: "Text claims: homogeneous closed forms and the 6x-17x Panda comparison",
		Run:   runClaims,
	})
}

func runClaims(opts Options) ([]*Table, error) {
	node := model.Node{
		Budget:        10 * model.MicroWatt,
		ListenPower:   500 * model.MicroWatt,
		TransmitPower: 500 * model.MicroWatt,
	}
	const n = 5

	// Closed forms vs LP.
	cfG, _ := oracle.GroupputClosedForm(n, node)
	lpG, err := oracle.Groupput(model.Homogeneous(n, node.Budget, node.ListenPower, node.TransmitPower))
	if err != nil {
		return nil, err
	}
	cfA, _ := oracle.AnyputClosedForm(n, node)
	lpA, err := oracle.Anyput(model.Homogeneous(n, node.Budget, node.ListenPower, node.TransmitPower))
	if err != nil {
		return nil, err
	}
	t1 := &Table{
		Name: "§IV closed forms vs LP (N=5, rho=10uW, L=X=500uW)",
		Head: []string{"quantity", "closed form", "LP"},
		Rows: [][]string{
			{"T*_g", f4(cfG.Throughput), f4(lpG.Throughput)},
			{"T*_a", f4(cfA.Throughput), f4(lpA.Throughput)},
			{"beta* (groupput)", sci(cfG.Beta[0]), sci(lpG.Beta[0])},
		},
	}

	// The 6x/17x claim: EconCast's ratio over Panda's at L=X.
	panda, err := baselines.PandaOptimize(n, node, 1e-3, model.Groupput)
	if err != nil {
		return nil, err
	}
	pandaRatio := panda.Groupput / lpG.Throughput
	t2 := &Table{
		Name:  "§VII-C claim: EconCast outperforms Panda 6x (sigma=0.5) and 17x (sigma=0.25)",
		Notes: "ratios are T^sigma_g/T*_g and T_panda/T*_g at L=X=500uW",
		Head:  []string{"sigma", "EconCast ratio", "Panda ratio", "improvement", "paper"},
	}
	for _, c := range []struct {
		sigma float64
		paper string
	}{{0.5, "6x"}, {0.25, "17x"}} {
		p4, err := statespace.SolveP4Typed([]int{n}, []model.Node{node}, c.sigma, model.Groupput, nil)
		if err != nil {
			return nil, err
		}
		ratio := p4.Throughput / lpG.Throughput
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%.2f", c.sigma),
			f3(ratio), f3(pandaRatio),
			fmt.Sprintf("%.1fx", ratio/pandaRatio),
			c.paper,
		})
	}
	return []*Table{t1, t2}, nil
}
