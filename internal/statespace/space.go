// Package statespace provides the exact Markov-chain analysis of EconCast
// from Sections IV–VI of the paper: enumeration of the collision-free
// network state space W, the Gibbs stationary distribution of eq. (19), the
// transition-rate structure of eq. (31), the dual (Lagrangian) solver for
// the entropy-regularized problem (P4) following Algorithm 1, and the
// closed-form burstiness analysis of Appendix E (eqs. 34–35).
//
// Networks of up to model.MaxNodesExact nodes are enumerated exactly.
// Larger ones are solved on one aggregated class space (SolveP4Typed):
// nodes are grouped into identical types, and a class is a transmitter
// type plus a listener count per type. A homogeneous network is one type,
// 2N+1 classes, so it is tractable at any N.
//
// Enumerate caches per-state derived quantities — listener popcounts,
// throughputs for both modes, and the listener occupancy masks — so the
// Gibbs hot loop is pure table arithmetic: the per-state energy cost is a
// single lookup into a per-listener-mask prefix table rebuilt once per
// eta, instead of an O(N) scan over node states. The dual descent calls
// Gibbs hundreds of times per solve, so Space also pools the Dist buffers
// (see Dist.Release); the steady-state loop allocates nothing.
package statespace

import (
	"fmt"
	"math"
	"math/bits"

	"econcast/internal/model"
)

// Space is the enumerated collision-free state space W of a network: all
// states with at most one transmitter (§III-C), of size (N+2)*2^(N-1).
type Space struct {
	nw     *model.Network
	states []model.NetState
	index  []int // key -> state index, or -1

	// Derived per-state caches, filled at Enumerate time.
	pops []uint8      // listener popcount c_w per state
	tws  [2][]float64 // per-state throughput T_w, indexed by model.Mode

	// Scratch reused across Gibbs/Fractions calls (cold-allocated here so
	// the hot loop allocates nothing). A Space is not safe for concurrent
	// use; parallel sweeps enumerate one Space per cell.
	maskCost []float64 // per listener-mask eta-weighted listen cost
	maskMass []float64 // per listener-mask probability mass (Fractions)
	etaL     []float64 // eta_j * L_j
	etaX     []float64 // eta_j * X_j, shifted by one so index 0 = no transmitter
	scratch  *Dist     // single-slot Dist pool (see Dist.Release)
}

// Enumerate builds the exact state space. It returns an error if the
// network is invalid or too large to enumerate.
func Enumerate(nw *model.Network) (*Space, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	n := nw.N()
	if n > model.MaxNodesExact {
		return nil, fmt.Errorf("statespace: N=%d exceeds exact-enumeration limit %d",
			n, model.MaxNodesExact)
	}
	numStates := model.NumStates(n)
	sp := &Space{
		nw:       nw,
		states:   make([]model.NetState, 0, numStates),
		index:    make([]int, (n+1)<<uint(n)),
		pops:     make([]uint8, 0, numStates),
		maskCost: make([]float64, 1<<uint(n)),
		maskMass: make([]float64, 1<<uint(n)),
		etaL:     make([]float64, n),
		etaX:     make([]float64, n+1),
	}
	for i := range sp.index {
		sp.index[i] = -1
	}
	add := func(s model.NetState) {
		sp.index[sp.key(s)] = len(sp.states)
		sp.states = append(sp.states, s)
		sp.pops = append(sp.pops, uint8(bits.OnesCount64(s.Listeners)))
	}
	full := uint64(1)<<uint(n) - 1
	// States without a transmitter: every listener subset.
	for mask := uint64(0); mask <= full; mask++ {
		add(model.NetState{Transmitter: model.NoTransmitter, Listeners: mask})
	}
	// States with one transmitter: every subset of the rest listening.
	for tx := 0; tx < n; tx++ {
		rest := full &^ (1 << uint(tx))
		// Iterate over all submasks of rest, including the empty one.
		for sub := rest; ; sub = (sub - 1) & rest {
			add(model.NetState{Transmitter: tx, Listeners: sub})
			if sub == 0 {
				break
			}
		}
	}
	// Cache T_w for both modes: groupput counts listeners, anyput counts
	// whether any listener hears the (unique) transmitter.
	sp.tws[model.Groupput] = make([]float64, len(sp.states))
	sp.tws[model.Anyput] = make([]float64, len(sp.states))
	for i, w := range sp.states {
		if !w.HasTransmitter() {
			continue
		}
		c := float64(sp.pops[i])
		sp.tws[model.Groupput][i] = c
		if c > 0 {
			sp.tws[model.Anyput][i] = 1
		}
	}
	return sp, nil
}

// key maps a valid state to a dense integer.
func (sp *Space) key(s model.NetState) int {
	n := sp.nw.N()
	return (s.Transmitter+1)<<uint(n) | int(s.Listeners)
}

// Len returns |W|.
func (sp *Space) Len() int { return len(sp.states) }

// Network returns the network the space was built over.
func (sp *Space) Network() *model.Network { return sp.nw }

// State returns the i-th state.
func (sp *Space) State(i int) model.NetState { return sp.states[i] }

// NumListeners returns the cached listener popcount of the i-th state.
func (sp *Space) NumListeners(i int) int { return int(sp.pops[i]) }

// Index returns the index of state s, or -1 if s is not in W.
func (sp *Space) Index(s model.NetState) int {
	if !s.Valid(sp.nw.N()) {
		return -1
	}
	return sp.index[sp.key(s)]
}

// logSumExp returns log(sum(exp(xs))) computed stably.
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// Dist is the Gibbs stationary distribution pi^eta of eq. (19) over an
// enumerated space, for a fixed multiplier vector eta, temperature sigma,
// and throughput mode.
type Dist struct {
	space *Space
	mode  model.Mode
	sigma float64
	logPi []float64 // log pi_w (normalized)
	pi    []float64 // pi_w, materialized once (exp is the hot path)
	logZ  float64
}

// Gibbs computes the stationary distribution (19) for multipliers eta.
//
// The per-state energy cost sum_j eta_j P_j(w) is assembled from two
// caches: a per-listener-mask prefix table (rebuilt in one O(2^N) pass per
// call — cheap next to |W| = (N+2) 2^(N-1)) and the per-node transmit
// costs, so each of the |W| states costs O(1) instead of O(N). Buffers
// come from the Space's Dist pool; release them with Dist.Release when the
// distribution is no longer needed (the dual descent does) to keep the
// steady-state loop allocation-free.
func (sp *Space) Gibbs(eta []float64, sigma float64, mode model.Mode) *Dist {
	n := sp.nw.N()
	if len(eta) != n {
		panic("statespace: eta length mismatch")
	}
	if sigma <= 0 {
		panic("statespace: sigma must be positive")
	}
	d := sp.scratch
	if d != nil {
		sp.scratch = nil
	} else {
		d = &Dist{
			logPi: make([]float64, sp.Len()), //lint:allow hotalloc pool miss: one buffer per live Dist, reused via Release in steady state
			pi:    make([]float64, sp.Len()), //lint:allow hotalloc pool miss: one buffer per live Dist, reused via Release in steady state
		}
	}
	d.space = sp
	d.mode = mode
	d.sigma = sigma

	// Per-node eta-weighted powers; etaX is shifted so Transmitter+1
	// indexes it directly (0 = no transmitter, zero cost).
	sp.etaX[0] = 0
	for j := 0; j < n; j++ {
		sp.etaL[j] = eta[j] * sp.nw.Nodes[j].ListenPower
		sp.etaX[j+1] = eta[j] * sp.nw.Nodes[j].TransmitPower
	}
	// Listener-mask cost table: one add per mask via the lowest set bit.
	mc := sp.maskCost
	mc[0] = 0
	for mask := uint64(1); mask < uint64(len(mc)); mask++ {
		lsb := mask & -mask
		mc[mask] = mc[mask^lsb] + sp.etaL[bits.TrailingZeros64(lsb)]
	}
	tw := sp.tws[mode]
	inv := 1 / sigma
	for i, w := range sp.states {
		d.logPi[i] = (tw[i] - mc[w.Listeners] - sp.etaX[w.Transmitter+1]) * inv
	}
	d.logZ = logSumExp(d.logPi)
	for i := range d.logPi {
		d.logPi[i] -= d.logZ
		d.pi[i] = math.Exp(d.logPi[i])
	}
	return d
}

// Release returns the distribution's buffers to its Space for reuse by a
// later Gibbs call. The Dist must not be used after Release. Callers that
// keep the Dist (or hold several at once) simply never release; only the
// hot dual-descent loop needs the pooling.
func (d *Dist) Release() {
	d.space.scratch = d
}

// Pi returns pi_w for state index i.
func (d *Dist) Pi(i int) float64 { return d.pi[i] }

// LogZ returns log of the normalizing constant Z_eta (with the
// un-normalized weights of eq. 19).
func (d *Dist) LogZ() float64 { return d.logZ }

// Throughput returns the expected state throughput sum_w pi_w T_w under the
// distribution's own mode.
func (d *Dist) Throughput() float64 {
	tw := d.space.tws[d.mode]
	sum := 0.0
	for i, t := range tw {
		if t > 0 {
			sum += t * d.pi[i]
		}
	}
	return sum
}

// Fractions returns alpha (listen) and beta (transmit) time fractions per
// node, eq. (24). The listener side first collapses the |W| states onto
// their 2^N listener masks (states with different transmitters share a
// mask), then unpacks each mask's aggregated mass once — roughly (N+2)/2
// fewer bit scans than walking every state.
func (d *Dist) Fractions() (alpha, beta []float64) {
	n := d.space.nw.N()
	alpha = make([]float64, n)
	beta = make([]float64, n)
	mm := d.space.maskMass
	for i := range mm {
		mm[i] = 0
	}
	for i, w := range d.space.states {
		p := d.pi[i]
		if w.HasTransmitter() {
			beta[w.Transmitter] += p
		}
		mm[w.Listeners] += p
	}
	for mask, p := range mm {
		if p == 0 { //lint:allow floateq zero-mass skip is an optimization; tiny mass still accumulates
			continue
		}
		for b := uint64(mask); b != 0; b &= b - 1 {
			alpha[bits.TrailingZeros64(b)] += p
		}
	}
	return alpha, beta
}

// PowerConsumption returns each node's mean power draw alpha_i L_i +
// beta_i X_i under the distribution.
func (d *Dist) PowerConsumption() []float64 {
	alpha, beta := d.Fractions()
	out := make([]float64, len(alpha))
	for i := range out {
		node := d.space.nw.Nodes[i]
		out[i] = alpha[i]*node.ListenPower + beta[i]*node.TransmitPower
	}
	return out
}

// AvgBurstLength returns the analytical average burst length of EconCast-C
// under this distribution, eq. (34) for groupput mode and eq. (35)
// (= e^{1/sigma}) for anyput mode, where bursts are consecutive packets
// received before the transmitter releases the channel.
func (d *Dist) AvgBurstLength() float64 {
	if d.mode == model.Anyput {
		return AnyputBurstLength(d.sigma)
	}
	num := 0.0
	den := 0.0
	for i, w := range d.space.states {
		if !w.HasTransmitter() {
			continue
		}
		c := int(d.space.pops[i])
		if c < 1 {
			continue
		}
		p := d.pi[i]
		num += p
		den += p * math.Exp(-float64(c)/d.sigma)
	}
	if den == 0 { //lint:allow floateq exact-zero denominator guard before division
		return math.Inf(1)
	}
	return num / den
}

// AnyputBurstLength returns eq. (35): the anyput average burst length
// e^{1/sigma}, independent of N.
func AnyputBurstLength(sigma float64) float64 { return math.Exp(1 / sigma) }

// Entropy returns -sum_w pi_w log pi_w.
func (d *Dist) Entropy() float64 {
	h := 0.0
	for _, lp := range d.logPi {
		p := math.Exp(lp)
		if p > 0 {
			h -= p * lp
		}
	}
	return h
}

// P4Objective returns the (P4) objective sum pi T - sigma sum pi log pi at
// this distribution.
func (d *Dist) P4Objective() float64 {
	return d.Throughput() + d.sigma*d.Entropy()
}
