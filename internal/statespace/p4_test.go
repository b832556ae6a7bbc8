package statespace

import (
	"math"
	"testing"

	"econcast/internal/model"
	"econcast/internal/rng"
)

// oracleGroupputHomog is the paper's closed form (§IV-A): beta* =
// rho/(X+(N-1)L), alpha* = (N-1)beta*, T*_g = N alpha*.
func oracleGroupputHomog(n int, rho, l, x float64) float64 {
	beta := rho / (x + float64(n-1)*l)
	return float64(n) * float64(n-1) * beta
}

func TestSolveP4HomogeneousConsumesBudget(t *testing.T) {
	nw := testNet5()
	for _, sigma := range []float64{0.25, 0.5} {
		res, err := SolveP4(nw, sigma, model.Groupput, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("sigma=%v: not converged after %d iters", sigma, res.Iterations)
		}
		for i, c := range res.Consumption {
			if math.Abs(c-10*model.MicroWatt)/(10*model.MicroWatt) > 1e-4 {
				t.Fatalf("sigma=%v node %d: consumption %v, want 10uW", sigma, i, c)
			}
		}
	}
}

func TestSolveP4ThroughputBelowOracleAndMonotone(t *testing.T) {
	nw := testNet5()
	oracle := oracleGroupputHomog(5, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	prev := 0.0
	for _, sigma := range []float64{1.0, 0.5, 0.25, 0.15} {
		res, err := SolveP4(nw, sigma, model.Groupput, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.Throughput / oracle
		if ratio <= 0 || ratio >= 1 {
			t.Fatalf("sigma=%v: ratio %v outside (0,1)", sigma, ratio)
		}
		if ratio <= prev {
			t.Fatalf("sigma=%v: ratio %v did not increase from %v", sigma, ratio, prev)
		}
		prev = ratio
	}
	// Anchors consistent with the paper's Fig. 2 (h=10): ratio ~0.9 at
	// sigma=0.1 and ~0.4 at sigma=0.25, approaching 1 as sigma -> 0.
	res, _ := SolveP4(nw, 0.25, model.Groupput, nil)
	if r := res.Throughput / oracle; r < 0.3 || r > 0.6 {
		t.Fatalf("sigma=0.25 ratio %v outside expected band", r)
	}
	res, _ = SolveP4(nw, 0.1, model.Groupput, nil)
	if r := res.Throughput / oracle; r < 0.85 {
		t.Fatalf("sigma=0.1 ratio %v, want ~0.9", r)
	}
}

func TestSolveP4AnyputClosedFormAnchor(t *testing.T) {
	// Oracle anyput (homogeneous): beta* = rho/(X+L), T*_a = N beta*.
	nw := testNet5()
	oracle := 5 * 10 * model.MicroWatt / (1000 * model.MicroWatt)
	prev := 0.0
	for _, sigma := range []float64{0.5, 0.25} {
		res, err := SolveP4(nw, sigma, model.Anyput, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.Throughput / oracle
		if ratio <= prev || ratio >= 1 {
			t.Fatalf("sigma=%v: anyput ratio %v (prev %v)", sigma, ratio, prev)
		}
		prev = ratio
	}
}

// The aggregated path at T = 1 must agree with exact enumeration.
func TestHomogeneousAggregationMatchesExact(t *testing.T) {
	node := model.Node{Budget: 10 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 300 * model.MicroWatt}
	for _, mode := range []model.Mode{model.Groupput, model.Anyput} {
		for _, sigma := range []float64{0.25, 0.5} {
			exact, err := SolveP4(model.Homogeneous(5, node.Budget, node.ListenPower, node.TransmitPower), sigma, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := SolveP4Typed([]int{5}, []model.Node{node}, sigma, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact.Throughput-agg.Throughput) > 1e-6*math.Max(exact.Throughput, 1e-12) {
				t.Fatalf("mode=%v sigma=%v: exact %v vs aggregated %v",
					mode, sigma, exact.Throughput, agg.Throughput)
			}
			if math.Abs(exact.Alpha[0]-agg.Alpha[0]) > 1e-6 {
				t.Fatalf("alpha mismatch: %v vs %v", exact.Alpha[0], agg.Alpha[0])
			}
			if mode == model.Groupput &&
				math.Abs(exact.BurstLength-agg.BurstLength)/exact.BurstLength > 1e-4 {
				t.Fatalf("burst mismatch: %v vs %v", exact.BurstLength, agg.BurstLength)
			}
		}
	}
}

// The raw evaluators, exact and aggregated at T = 1, must agree at
// arbitrary eta, not just at the optimum.
func TestHomogEvalMatchesExactEval(t *testing.T) {
	node := model.Node{Budget: 0.02, ListenPower: 1, TransmitPower: 0.6}
	n := 4
	nw := model.Homogeneous(n, node.Budget, node.ListenPower, node.TransmitPower)
	sp, _ := Enumerate(nw)
	rho := make([]float64, n)
	for i := range rho {
		rho[i] = node.Budget
	}
	for _, sigma := range []float64{0.3, 0.8} {
		ex := &exactEval{space: sp, mode: model.Groupput, sig: sigma, rho: rho}
		hg := newTypedEval([]int{n}, []model.Node{node}, sigma, model.Groupput)
		for _, h := range []float64{0, 0.5, 1.5, 4} {
			etaVec := uniform(h, n)
			re := ex.eval(etaVec)
			rh := hg.eval([]float64{h})
			if math.Abs(re.thr-rh.thr) > 1e-9 {
				t.Fatalf("eta=%v: thr %v vs %v", h, re.thr, rh.thr)
			}
			if math.Abs(re.alpha[0]-rh.alpha[0]) > 1e-9 {
				t.Fatalf("eta=%v: alpha %v vs %v", h, re.alpha[0], rh.alpha[0])
			}
			if math.Abs(re.beta[0]-rh.beta[0]) > 1e-9 {
				t.Fatalf("eta=%v: beta %v vs %v", h, re.beta[0], rh.beta[0])
			}
			// Dual values agree exactly (same Z, same eta.rho term).
			if math.Abs(re.dual-rh.dual) > 1e-9 {
				t.Fatalf("eta=%v: dual %v vs %v", h, re.dual, rh.dual)
			}
		}
	}
}

// A homogeneous network past the exact limit is solved as one node type
// and must spend every node's budget in both modes.
func TestSolveP4LargeNViaAggregation(t *testing.T) {
	const n, budget, power = 100, 10 * model.MicroWatt, 500 * model.MicroWatt
	nw := model.Homogeneous(n, budget, power, power)
	oracles := map[model.Mode]float64{
		model.Groupput: oracleGroupputHomog(n, budget, power, power),
		model.Anyput:   n * budget / (2 * power), // beta* = rho/(X+L), T*_a = N beta*
	}
	for _, mode := range []model.Mode{model.Groupput, model.Anyput} {
		res, err := SolveP4(nw, 0.5, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("mode=%v: not converged", mode)
		}
		if len(res.Alpha) != n || len(res.Consumption) != n {
			t.Fatalf("mode=%v: %d alphas, %d consumptions", mode, len(res.Alpha), len(res.Consumption))
		}
		for i, c := range res.Consumption {
			if math.Abs(c-budget)/budget > 1e-4 {
				t.Fatalf("mode=%v node %d: consumption %v, want %v", mode, i, c, budget)
			}
		}
		if r := res.Throughput / oracles[mode]; r <= 0 || r >= 1 {
			t.Fatalf("mode=%v: ratio %v", mode, r)
		}
	}
}

func TestSolveP4LargeHeterogeneous(t *testing.T) {
	// Two node types at N=30: handled by the typed aggregation.
	nw := model.Homogeneous(30, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	nw.Nodes[3].Budget *= 2
	res, err := SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || !res.Converged {
		t.Fatalf("typed dispatch failed: %+v", res)
	}
	// Thirty distinct types: genuinely intractable, must error.
	many := model.Homogeneous(30, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	for i := range many.Nodes {
		many.Nodes[i].Budget = (10 + float64(i)) * model.MicroWatt
	}
	if _, err := SolveP4(many, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("expected error for 30 distinct node types")
	}
}

func TestSolveP4InvalidInputs(t *testing.T) {
	if _, err := SolveP4(testNet5(), 0, model.Groupput, nil); err == nil {
		t.Fatal("sigma=0 accepted")
	}
	if _, err := SolveP4(&model.Network{}, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("empty network accepted")
	}
}

// Heterogeneous solve: each node's consumption must respect (and for tight
// budgets, meet) its own budget.
func TestSolveP4Heterogeneous(t *testing.T) {
	src := rng.New(3)
	spec := model.HeterogeneitySpec{N: 5, H: 100}
	for trial := 0; trial < 3; trial++ {
		nw := spec.Sample(src)
		res, err := SolveP4(nw, 0.5, model.Groupput, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Consumption {
			budget := nw.Nodes[i].Budget
			if c > budget*(1+1e-3) {
				t.Fatalf("trial %d node %d: consumption %v exceeds budget %v",
					trial, i, c, budget)
			}
		}
		if res.Throughput <= 0 {
			t.Fatalf("trial %d: throughput %v", trial, res.Throughput)
		}
	}
}

// Eta returned unscaled must reproduce the optimal distribution on the
// original (unscaled) network.
func TestEtaUnscaledReproducesOptimum(t *testing.T) {
	nw := testNet5()
	res, err := SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := Enumerate(nw)
	d := sp.Gibbs(res.Eta, 0.5, model.Groupput)
	if math.Abs(d.Throughput()-res.Throughput) > 1e-9 {
		t.Fatalf("rebuilt throughput %v, solver %v", d.Throughput(), res.Throughput)
	}
	alpha, _ := d.Fractions()
	if math.Abs(alpha[0]-res.Alpha[0]) > 1e-9 {
		t.Fatalf("rebuilt alpha %v, solver %v", alpha[0], res.Alpha[0])
	}
}

func TestBurstLengthShape(t *testing.T) {
	// Anyput burst length is exactly e^{1/sigma}, independent of N (eq. 35).
	for _, sigma := range []float64{0.25, 0.5, 1} {
		want := math.Exp(1 / sigma)
		for _, n := range []int{5, 10} {
			nw := model.Homogeneous(n, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
			res, err := SolveP4(nw, sigma, model.Anyput, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.BurstLength-want)/want > 1e-9 {
				t.Fatalf("anyput burst N=%d sigma=%v: %v, want %v", n, sigma, res.BurstLength, want)
			}
		}
	}
	// Groupput burst grows as sigma decreases, and with N (Fig. 4a).
	burst := func(n int, sigma float64) float64 {
		nw := model.Homogeneous(n, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
		res, err := SolveP4(nw, sigma, model.Groupput, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.BurstLength
	}
	if !(burst(5, 0.25) > burst(5, 0.5)) {
		t.Fatal("groupput burst did not grow as sigma decreased")
	}
	if !(burst(10, 0.25) > burst(5, 0.25)) {
		t.Fatal("groupput burst did not grow with N")
	}
	// Paper anchors: N=10, sigma=0.25 gives ~85; sigma=0.1 gives ~4e5.
	b25 := burst(10, 0.25)
	if b25 < 10 || b25 > 1000 {
		t.Fatalf("burst(10, 0.25) = %v, expected order ~85", b25)
	}
	b10 := burst(10, 0.1)
	if b10 < 1e4 {
		t.Fatalf("burst(10, 0.1) = %v, expected > 1e4", b10)
	}
}

// Algorithm 1 (literal) must approach the line-searched solution.
func TestAlgorithm1Converges(t *testing.T) {
	nw := testNet5()
	ref, err := SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, trace, err := SolveAlgorithm1(nw, 0.5, model.Groupput, ConstantDelta(0.5), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Violation) != 3000 {
		t.Fatalf("trace length %d", len(trace.Violation))
	}
	if math.Abs(res.Throughput-ref.Throughput)/ref.Throughput > 0.15 {
		t.Fatalf("Algorithm 1 throughput %v, reference %v", res.Throughput, ref.Throughput)
	}
	// Violation at the end must be far below the start.
	last := trace.Violation[len(trace.Violation)-1]
	if last > trace.Violation[0]*0.1 {
		t.Fatalf("violation did not decrease: %v -> %v", trace.Violation[0], last)
	}
}

func BenchmarkSolveP4ExactN5(b *testing.B) {
	nw := testNet5()
	for i := 0; i < b.N; i++ {
		if _, err := SolveP4(nw, 0.25, model.Groupput, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Independent optimality check: the dual D(eta) = sigma logZ + eta.rho is
// convex, so eta* from the solver must be a global minimizer; random
// perturbations around it must not decrease D.
func TestDualOptimalityProbe(t *testing.T) {
	src := rng.New(17)
	nw := model.HeterogeneitySpec{N: 4, H: 50}.Sample(src)
	const sigma = 0.4
	res, err := SolveP4(nw, sigma, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	p0 := scaleFactor(nw)
	scaled := scaledNetwork(nw, p0)
	sp, _ := Enumerate(scaled)
	rho := make([]float64, nw.N())
	for i, n := range scaled.Nodes {
		rho[i] = n.Budget
	}
	ev := &exactEval{space: sp, mode: model.Groupput, sig: sigma, rho: rho}
	etaStar := make([]float64, nw.N())
	for i := range etaStar {
		etaStar[i] = res.Eta[i] * p0 // back to scaled units
	}
	base := ev.eval(etaStar).dual
	for trial := 0; trial < 200; trial++ {
		perturbed := make([]float64, len(etaStar))
		for i := range perturbed {
			perturbed[i] = math.Max(0, etaStar[i]+src.Uniform(-0.3, 0.3))
		}
		if d := ev.eval(perturbed).dual; d < base-1e-7*math.Abs(base)-1e-10 {
			t.Fatalf("perturbation improved dual: %v < %v", d, base)
		}
	}
}
