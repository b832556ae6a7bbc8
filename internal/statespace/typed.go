package statespace

import (
	"fmt"
	"math"

	"econcast/internal/model"
)

// maxClasses bounds the aggregated class space, measured as
// (T+1) * prod(counts[t]+1) for T node types.
const maxClasses = 1 << 20

// SolveP4Typed solves (P4) for a network made of a few node *types*:
// counts[t] identical nodes with parameters types[t]. The state space is
// aggregated into classes (transmitter type, listener count per type), so
// the complexity is (T+1) * prod(counts[t]+1) instead of (N+2)*2^(N-1) —
// hundreds of nodes are tractable when T is small. A homogeneous network
// is the case T = 1 (2n+1 classes); with all counts equal to 1 the classes
// are the states of the exact enumeration.
func SolveP4Typed(counts []int, types []model.Node, sigma float64, mode model.Mode, opts *P4Options) (*P4Result, error) {
	if len(counts) != len(types) || len(types) == 0 {
		return nil, fmt.Errorf("statespace: %d counts for %d types", len(counts), len(types))
	}
	nw := &model.Network{Nodes: types}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	total := 0
	classes := len(types) + 1
	for t, c := range counts {
		if c < 1 {
			return nil, fmt.Errorf("statespace: type %d count %d must be positive", t, c)
		}
		total += c
		if classes <= maxClasses { // saturate instead of overflowing
			classes *= c + 1
		}
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("statespace: sigma %v must be positive", sigma)
	}
	if classes > maxClasses {
		return nil, fmt.Errorf("statespace: %d node types of %d nodes exceed the limit of %d aggregated classes",
			len(types), total, maxClasses)
	}

	p0 := scaleFactor(nw)
	ev := newTypedEval(counts, scaledNetwork(nw, p0).Nodes, sigma, mode)
	eta, res, iters, converged := solveDual(ev, opts.withDefaults())
	out := finishResult(eta, res, iters, converged, p0)

	// Expand per-type values to per-node slices (type-major order).
	expand := func(v []float64) []float64 {
		full := make([]float64, 0, total)
		for t, c := range counts {
			for k := 0; k < c; k++ {
				full = append(full, v[t])
			}
		}
		return full
	}
	out.Alpha = expand(out.Alpha)
	out.Beta = expand(out.Beta)
	out.Eta = expand(out.Eta)
	out.Consumption = expand(out.Consumption)
	return out, nil
}

// typedEval evaluates the Gibbs distribution aggregated onto (transmitter
// type, per-type listener counts) classes. All members of a class share
// one Gibbs weight, so a class contributes its multiplicity times that
// weight. The classes and everything about them that does not depend on
// eta are tabulated once by newTypedEval, so eval is arithmetic over flat
// per-class arrays.
type typedEval struct {
	counts []int
	types  []model.Node // scaled
	mode   model.Mode
	sig    float64
	rho    []float64

	// The class table, one entry per class: no transmitter first, then
	// transmitter type 0..T-1; within each, listener counts ascending with
	// type 0 outermost.
	logMult   []float64   // log of the number of states in the class
	tx        []int       // transmitter type, -1 for none
	tw        []float64   // throughput T_w of the class's states under mode
	decay     []float64   // exp(-listeners/sigma) where tw > 0: burst-length weight (eq. 34)
	listeners [][]float64 // listeners[t][i]: type-t listeners of class i

	w []float64 // scratch for eval: class log-weights, then probabilities
}

func newTypedEval(counts []int, types []model.Node, sigma float64, mode model.Mode) *typedEval {
	T := len(types)
	e := &typedEval{
		counts: counts,
		types:  types,
		mode:   mode,
		sig:    sigma,
		rho:    make([]float64, T),
	}
	for t, ty := range types {
		e.rho[t] = ty.Budget
	}
	// lgBinom[t][k][c] = log C(counts[t]-k, c): k = 1 when the transmitter
	// is of type t and so cannot also listen.
	lgBinom := make([][2][]float64, T)
	for t, n := range counts {
		lgBinom[t][0] = logBinomials(n)
		lgBinom[t][1] = logBinomials(n - 1)
	}
	size := 0
	for tx := -1; tx < T; tx++ {
		m := 1
		for t, n := range counts {
			if t == tx {
				n--
			}
			m *= n + 1
		}
		size += m
	}
	e.logMult = make([]float64, 0, size)
	e.tx = make([]int, 0, size)
	e.tw = make([]float64, 0, size)
	e.decay = make([]float64, 0, size)
	e.listeners = make([][]float64, T)
	for t := range e.listeners {
		e.listeners[t] = make([]float64, 0, size)
	}
	ls := make([]float64, T)
	lgTx := 0.0 // log counts[tx]: which node of the type transmits
	var rec func(tx, t int, logMult float64, sum int)
	rec = func(tx, t int, logMult float64, sum int) {
		if t < T {
			k := 0
			if tx == t {
				k = 1
			}
			for c := 0; c <= counts[t]-k; c++ {
				ls[t] = float64(c)
				rec(tx, t+1, logMult+lgBinom[t][k][c], sum+c)
			}
			ls[t] = 0
			return
		}
		tw, decay := 0.0, 0.0
		if tx >= 0 {
			logMult += lgTx
			tw = float64(sum)
			if mode == model.Anyput {
				tw = math.Min(tw, 1)
			}
			if sum > 0 {
				decay = math.Exp(-float64(sum) / sigma)
			}
		}
		e.logMult = append(e.logMult, logMult)
		e.tx = append(e.tx, tx)
		e.tw = append(e.tw, tw)
		e.decay = append(e.decay, decay)
		for t, c := range ls {
			e.listeners[t] = append(e.listeners[t], c)
		}
	}
	for tx := -1; tx < T; tx++ {
		if tx >= 0 {
			lgTx = math.Log(float64(counts[tx]))
		}
		rec(tx, 0, 0, 0)
	}
	e.w = make([]float64, size)
	return e
}

// logBinomials returns log C(n, c) for c in 0..n.
func logBinomials(n int) []float64 {
	out := make([]float64, n+1)
	lgN, _ := math.Lgamma(float64(n + 1))
	for c := 0; c <= n; c++ {
		lgC, _ := math.Lgamma(float64(c + 1))
		lgNC, _ := math.Lgamma(float64(n - c + 1))
		out[c] = lgN - lgC - lgNC
	}
	return out
}

func (e *typedEval) dims() int          { return len(e.types) }
func (e *typedEval) budgets() []float64 { return e.rho }
func (e *typedEval) sigma() float64     { return e.sig }

// eval reuses only e.w between calls: the result's slices are fresh, as
// solveDual keeps the accepted result across line-search trials.
func (e *typedEval) eval(eta []float64) evalResult {
	w := e.w
	clear(w)
	// Energy cost of each class, summed in type order.
	for t, ls := range e.listeners {
		et, l := eta[t], e.types[t].ListenPower
		for i, c := range ls {
			w[i] += c * et * l
		}
	}
	for i, x := range e.tx {
		cost := w[i]
		if x >= 0 {
			cost += eta[x] * e.types[x].TransmitPower
		}
		w[i] = e.logMult[i] + (e.tw[i]-cost)/e.sig
	}
	logZ := logSumExp(w)

	T := len(e.types)
	out := make([]float64, 3*T)
	alpha, beta, cons := out[:T:T], out[T:2*T:2*T], out[2*T:]
	var thr, burstNum, burstDen float64
	for i, x := range e.tx {
		p := math.Exp(w[i] - logZ)
		w[i] = p
		if x >= 0 {
			beta[x] += p
			thr += e.tw[i] * p
			if e.tw[i] > 0 { // at least one listener: the class starts a burst
				burstNum += p
				burstDen += p * e.decay[i]
			}
		}
	}

	dual := e.sig * logZ
	for t, ty := range e.types {
		eListen := 0.0
		for i, c := range e.listeners[t] {
			eListen += c * w[i]
		}
		n := float64(e.counts[t])
		alpha[t] = eListen / n
		beta[t] /= n
		cons[t] = alpha[t]*ty.ListenPower + beta[t]*ty.TransmitPower
		dual += n * eta[t] * e.rho[t]
	}
	burst := math.Inf(1)
	if e.mode == model.Anyput {
		burst = AnyputBurstLength(e.sig)
	} else if burstDen > 0 {
		burst = burstNum / burstDen
	}
	return evalResult{
		dual:  dual,
		cons:  cons,
		alpha: alpha,
		beta:  beta,
		thr:   thr,
		burst: burst,
	}
}
