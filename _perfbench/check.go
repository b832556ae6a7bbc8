package main

import (
	"fmt"
	"strconv"
	"strings"

	"econcast/internal/experiments"
	"econcast/internal/serve"
)

// feasTol is the relative slack allowed on the oracle's constraints:
// the LP's own pivoting tolerance is far below it.
const feasTol = 1e-9

// ratioTol is the slack on the ratio columns the paper bounds by 1.
// fig2 prints its ratios to three decimals and fig6 its throughputs to
// four, so a true ratio of exactly 1 may print up to this much above it.
const ratioTol = 1e-3

// checkAnswer reports why resp is not a feasible, non-degraded answer
// for the fleet req asked about.
func checkAnswer(req *serve.Request, resp *serve.Response) error {
	if resp.Provenance == serve.ProvDegraded {
		return fmt.Errorf("degraded answer")
	}
	// Every clique answer and the lower bound keep the single-transmitter
	// constraint (11); the upper bound drops it by construction (§IV-C).
	if err := feasible(req.Nodes, &resp.Result, true); err != nil {
		return err
	}
	if req.Objective != serve.ObjBounds {
		return nil
	}
	if resp.Upper == nil {
		return fmt.Errorf("bounds answer without an upper bound")
	}
	if err := feasible(req.Nodes, resp.Upper, false); err != nil {
		return fmt.Errorf("upper bound: %w", err)
	}
	if resp.Throughput > resp.Upper.Throughput*(1+feasTol) {
		return fmt.Errorf("lower bound %g above upper bound %g", resp.Throughput, resp.Upper.Throughput)
	}
	return nil
}

// feasible checks r against the power budget (9) and the time budget
// (10) of every node, and, when singleTx holds, against (11).
func feasible(nodes []serve.NodeSpec, r *serve.Result, singleTx bool) error {
	if len(r.Alpha) != len(nodes) || len(r.Beta) != len(nodes) {
		return fmt.Errorf("answer has %d/%d fractions for %d nodes", len(r.Alpha), len(r.Beta), len(nodes))
	}
	sumBeta := 0.0
	for i, nd := range nodes {
		a, b := r.Alpha[i], r.Beta[i]
		if a < -feasTol || b < -feasTol {
			return fmt.Errorf("node %d: negative fraction alpha=%g beta=%g", i, a, b)
		}
		if p := a*nd.Listen + b*nd.Transmit; p > nd.Budget*(1+feasTol) {
			return fmt.Errorf("node %d: power %g W over budget %g W", i, p, nd.Budget)
		}
		if a+b > 1+feasTol {
			return fmt.Errorf("node %d: alpha+beta = %g > 1", i, a+b)
		}
		sumBeta += b
	}
	if singleTx && sumBeta > 1+feasTol {
		return fmt.Errorf("sum of beta = %g > 1", sumBeta)
	}
	return nil
}

// checkRatios checks the paper's ratio-by-1 bounds on one figure's
// tables: fig2's T^sigma/T* means, and fig6's simulated groupput over
// the §IV-C upper bound T*_nc.
func checkRatios(id string, tables []*experiments.Table) error {
	for _, t := range tables {
		for _, row := range t.Rows {
			switch id {
			case "fig2":
				// h, then (mean, ci) per sigma.
				for c := 1; c < len(row); c += 2 {
					v, err := cell(row, c)
					if err != nil {
						return err
					}
					if v > 1+ratioTol {
						return fmt.Errorf("%s: h=%s ratio %g > 1", t.Name, row[0], v)
					}
				}
			case "fig6":
				// N, lower, upper, sim per sigma..., ratio@0.25.
				upper, err := cell(row, 2)
				if err != nil {
					return err
				}
				for c := 3; c < len(row)-1; c++ {
					sim, err := cell(row, c)
					if err != nil {
						return err
					}
					if sim > upper*(1+ratioTol) {
						return fmt.Errorf("%s: N=%s simulated %g above T*_nc upper %g", t.Name, row[0], sim, upper)
					}
				}
			}
		}
	}
	return nil
}

func cell(row []string, c int) (float64, error) {
	if c >= len(row) {
		return 0, fmt.Errorf("row %q has no column %d", strings.Join(row, " "), c)
	}
	return strconv.ParseFloat(row[c], 64)
}
