package statespace

import (
	"fmt"
	"math"

	"econcast/internal/model"
)

// P4Options tunes the dual solver for problem (P4).
type P4Options struct {
	// MaxIter bounds the number of dual iterations (default 600).
	MaxIter int
	// Tol is the relative KKT tolerance on per-node power consumption
	// (default 1e-6).
	Tol float64
}

func (o *P4Options) withDefaults() P4Options {
	out := P4Options{MaxIter: 600, Tol: 1e-6}
	if o != nil {
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
	}
	return out
}

// P4Result is the solution of the entropy-regularized throughput
// maximization (P4): the achievable throughput T^sigma of EconCast and the
// associated optimal operating point.
type P4Result struct {
	Throughput  float64   // T^sigma = sum_w pi*_w T_w
	Alpha       []float64 // optimal listen fractions
	Beta        []float64 // optimal transmit fractions
	Eta         []float64 // optimal Lagrange multipliers (unscaled)
	Consumption []float64 // mean power draw per node (Watts)
	BurstLength float64   // analytical average burst length (eqs. 34-35)
	DualValue   float64   // D(eta*) = sigma log Z + eta . rho (scaled units)
	Iterations  int
	Converged   bool
}

// evaluator abstracts the Gibbs computation so the dual descent is shared
// between the exact enumeration and the typed aggregation. All
// quantities are in scaled power units (max power level = 1).
type evaluator interface {
	// eval returns the dual value D(eta), per-node power consumption,
	// listen/transmit fractions, throughput, and burst length at eta.
	eval(eta []float64) evalResult
	budgets() []float64 // scaled budgets rho'
	dims() int          // number of dual variables
	sigma() float64
}

type evalResult struct {
	dual  float64
	cons  []float64
	alpha []float64
	beta  []float64
	thr   float64
	burst float64
}

// solveDual minimizes D(eta) over eta >= 0 using a log-domain
// diagonally-preconditioned descent with backtracking. The direction
// d_i = sigma*ln(cons_i/rho_i) is a Newton-like step for the approximately
// exponential dependence of consumption on eta_i, and the dual value
// D(eta) = sigma*logZ + eta.rho provides an exact line-search merit.
func solveDual(ev evaluator, opts P4Options) (eta []float64, res evalResult, iters int, converged bool) {
	n := ev.dims()
	rho := ev.budgets()
	sigma := ev.sigma()
	eta = make([]float64, n)
	res = ev.eval(eta)
	dir := make([]float64, n)
	trial := make([]float64, n)
	for iters = 1; iters <= opts.MaxIter; iters++ {
		// KKT residual: consumption must equal budget where eta_i > 0 and
		// not exceed it where eta_i = 0.
		kkt := 0.0
		for i := 0; i < n; i++ {
			var v float64
			if eta[i] > 0 {
				v = math.Abs(res.cons[i]-rho[i]) / rho[i]
			} else {
				v = math.Max(0, res.cons[i]-rho[i]) / rho[i]
			}
			if v > kkt {
				kkt = v
			}
		}
		if kkt < opts.Tol {
			converged = true
			return eta, res, iters, true
		}
		for i := 0; i < n; i++ {
			dir[i] = sigma * math.Log(res.cons[i]/rho[i])
			if eta[i] == 0 && dir[i] < 0 { //lint:allow floateq projection boundary: eta is clamped to exactly 0
				dir[i] = 0
			}
		}
		step := 1.0
		accepted := false
		for try := 0; try < 40; try++ {
			for i := 0; i < n; i++ {
				trial[i] = math.Max(0, eta[i]+step*dir[i])
			}
			cand := ev.eval(trial)
			if cand.dual <= res.dual {
				copy(eta, trial)
				res = cand
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted {
			// The merit is flat to machine precision; treat as converged to
			// the achievable accuracy.
			return eta, res, iters, kkt < math.Sqrt(opts.Tol)
		}
	}
	return eta, res, opts.MaxIter, false
}

// exactEval evaluates the Gibbs distribution over an enumerated space with
// power levels scaled by 1/p0.
type exactEval struct {
	space *Space // built over the scaled network
	mode  model.Mode
	sig   float64
	rho   []float64
}

func (e *exactEval) dims() int          { return e.space.nw.N() }
func (e *exactEval) budgets() []float64 { return e.rho }
func (e *exactEval) sigma() float64     { return e.sig }

func (e *exactEval) eval(eta []float64) evalResult {
	d := e.space.Gibbs(eta, e.sig, e.mode)
	alpha, beta := d.Fractions()
	cons := make([]float64, len(alpha))
	dual := e.sig * d.LogZ()
	for i := range cons {
		node := e.space.nw.Nodes[i]
		cons[i] = alpha[i]*node.ListenPower + beta[i]*node.TransmitPower
		dual += eta[i] * e.rho[i]
	}
	thr := d.Throughput()
	burst := d.AvgBurstLength()
	d.Release()
	return evalResult{
		dual:  dual,
		cons:  cons,
		alpha: alpha,
		beta:  beta,
		thr:   thr,
		burst: burst,
	}
}

// scaleFactor returns the largest power level in the network, used to
// rescale the problem to O(1) magnitudes for the dual descent.
func scaleFactor(nw *model.Network) float64 {
	p0 := 0.0
	for _, n := range nw.Nodes {
		p0 = math.Max(p0, math.Max(n.ListenPower, n.TransmitPower))
	}
	return p0
}

func scaledNetwork(nw *model.Network, p0 float64) *model.Network {
	nodes := make([]model.Node, nw.N())
	for i, n := range nw.Nodes {
		nodes[i] = model.Node{
			Budget:        n.Budget / p0,
			ListenPower:   n.ListenPower / p0,
			TransmitPower: n.TransmitPower / p0,
		}
	}
	return &model.Network{Nodes: nodes}
}

// SolveP4 computes the achievable throughput T^sigma of EconCast by solving
// the entropy-regularized problem (P4) through its Lagrangian dual. For
// networks small enough it uses exact state enumeration; larger networks
// are grouped into identical-node types (a homogeneous network is one) and
// solved on the aggregated class space (SolveP4Typed). Only large networks
// with too many distinct node types are rejected.
func SolveP4(nw *model.Network, sigma float64, mode model.Mode, opts *P4Options) (*P4Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("statespace: sigma %v must be positive", sigma)
	}
	if nw.N() <= model.MaxNodesExact {
		return solveP4Exact(nw, sigma, mode, opts.withDefaults())
	}
	counts, types, perm := groupTypes(nw)
	res, err := SolveP4Typed(counts, types, sigma, mode, opts)
	if err != nil {
		return nil, err
	}
	return permuteResult(res, perm), nil
}

// groupTypes decomposes a network into identical-node types. perm[i] gives
// the position of original node i in the type-major ordering SolveP4Typed
// reports.
func groupTypes(nw *model.Network) (counts []int, types []model.Node, perm []int) {
	index := map[model.Node]int{}
	for _, nd := range nw.Nodes {
		if _, seen := index[nd]; !seen {
			index[nd] = len(types)
			types = append(types, nd)
			counts = append(counts, 0)
		}
		counts[index[nd]]++
	}
	// Type-major position of each original node.
	offset := make([]int, len(types))
	for t := 1; t < len(types); t++ {
		offset[t] = offset[t-1] + counts[t-1]
	}
	next := append([]int(nil), offset...)
	perm = make([]int, nw.N())
	for i, nd := range nw.Nodes {
		t := index[nd]
		perm[i] = next[t]
		next[t]++
	}
	return counts, types, perm
}

// permuteResult reorders per-node slices from type-major order back to the
// original node order.
func permuteResult(res *P4Result, perm []int) *P4Result {
	reorder := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, p := range perm {
			out[i] = v[p]
		}
		return out
	}
	res.Alpha = reorder(res.Alpha)
	res.Beta = reorder(res.Beta)
	res.Eta = reorder(res.Eta)
	res.Consumption = reorder(res.Consumption)
	return res
}

func solveP4Exact(nw *model.Network, sigma float64, mode model.Mode, opts P4Options) (*P4Result, error) {
	p0 := scaleFactor(nw)
	scaled := scaledNetwork(nw, p0)
	sp, err := Enumerate(scaled)
	if err != nil {
		return nil, err
	}
	rho := make([]float64, nw.N())
	for i, n := range scaled.Nodes {
		rho[i] = n.Budget
	}
	ev := &exactEval{space: sp, mode: mode, sig: sigma, rho: rho}
	eta, res, iters, converged := solveDual(ev, opts)
	return finishResult(eta, res, iters, converged, p0), nil
}

func finishResult(eta []float64, res evalResult, iters int, converged bool, p0 float64) *P4Result {
	unscaled := make([]float64, len(eta))
	cons := make([]float64, len(res.cons))
	for i := range eta {
		unscaled[i] = eta[i] / p0
		cons[i] = res.cons[i] * p0
	}
	return &P4Result{
		Throughput:  res.thr,
		Alpha:       res.alpha,
		Beta:        res.beta,
		Eta:         unscaled,
		Consumption: cons,
		BurstLength: res.burst,
		DualValue:   res.dual,
		Iterations:  iters,
		Converged:   converged,
	}
}

// Algorithm1Trace records the multiplier trajectory of the paper's literal
// Algorithm 1 (gradient descent with delta_k = delta0/k), used for the
// convergence ablation.
type Algorithm1Trace struct {
	Eta        [][]float64 // eta after each iteration (scaled units)
	Violation  []float64   // max relative power violation per iteration
	Throughput []float64   // T^sigma estimate per iteration
}

// HarmonicDelta returns the paper's Algorithm 1 step schedule
// delta_k = delta0 / k.
func HarmonicDelta(delta0 float64) func(k int) float64 {
	return func(k int) float64 { return delta0 / float64(k) }
}

// ConstantDelta returns the constant step schedule the paper recommends for
// practice in §V-F.
func ConstantDelta(delta float64) func(k int) float64 {
	return func(int) float64 { return delta }
}

// SolveAlgorithm1 runs the paper's Algorithm 1 on the scaled problem:
// eta_i(k) = [eta_i(k-1) - delta_k * (rho_i - cons_i(k))]^+, with the given
// step schedule (HarmonicDelta reproduces the paper verbatim; ConstantDelta
// matches the practical recommendation of §V-F). It is slower than
// SolveP4's line-searched descent and is provided to reproduce the paper's
// convergence behaviour and the delta/tau tradeoff discussion.
func SolveAlgorithm1(nw *model.Network, sigma float64, mode model.Mode, delta func(k int) float64, iters int) (*P4Result, *Algorithm1Trace, error) {
	if err := nw.Validate(); err != nil {
		return nil, nil, err
	}
	if nw.N() > model.MaxNodesExact {
		return nil, nil, fmt.Errorf("statespace: Algorithm 1 requires exact enumeration (N <= %d)", model.MaxNodesExact)
	}
	p0 := scaleFactor(nw)
	scaled := scaledNetwork(nw, p0)
	sp, err := Enumerate(scaled)
	if err != nil {
		return nil, nil, err
	}
	rho := make([]float64, nw.N())
	for i, n := range scaled.Nodes {
		rho[i] = n.Budget
	}
	ev := &exactEval{space: sp, mode: mode, sig: sigma, rho: rho}
	eta := make([]float64, nw.N())
	trace := &Algorithm1Trace{}
	var res evalResult
	for k := 1; k <= iters; k++ {
		res = ev.eval(eta)
		dk := delta(k)
		worst := 0.0
		for i := range eta {
			eta[i] = math.Max(0, eta[i]-dk*(rho[i]-res.cons[i]))
			if v := math.Abs(res.cons[i]-rho[i]) / rho[i]; v > worst {
				worst = v
			}
		}
		trace.Eta = append(trace.Eta, append([]float64(nil), eta...))
		trace.Violation = append(trace.Violation, worst)
		trace.Throughput = append(trace.Throughput, res.thr)
	}
	res = ev.eval(eta)
	out := finishResult(eta, res, iters, trace.Violation[len(trace.Violation)-1] < 0.05, p0)
	return out, trace, nil
}
