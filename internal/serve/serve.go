// Package serve is the always-on oracle/control plane: a fault-hardened
// serving layer that answers "optimal rates for this fleet" queries by
// wrapping the memoized oracle (internal/oracle) behind a full
// robustness envelope — admission control with propagated deadlines
// and a bounded queue, singleflight dedup on the oracle's canonical
// cache key, a circuit breaker around the LP solver with a graceful
// degrade ladder, and a crash-safe persistent solution cache.
//
// The paper's protocols only reach capacity when nodes run at the
// oracle-computed operating point, and both the throughput-optimal CSMA
// line and the dynamic-topology broadcast sequel (PAPERS.md) re-adapt
// parameters on every fleet change, so a production fleet re-queries
// this service continuously. The design goal is therefore *bounded
// degradation*: under overload the service refuses what its queue cannot
// hold with 429 + Retry-After; with the solver slow, stuck, or failing
// it serves provenance-labeled cached or closed-form approximations
// instead of erroring; after a crash it recovers its persistent cache
// record by record, skipping corruption. The chaos harness in
// chaos_test.go composes injected solver stalls, crashes and cache
// corruption against synthetic heavy traffic to prove each of
// those properties under -race.
//
// Unlike the simulators, this package legitimately lives on the wall
// clock (deadlines, Retry-After, breaker cool-downs are real-time
// quantities), and it is licensed for goroutines and selects — see the
// econlint exemptions in internal/lint. Every boundary-crossing channel
// is direction-typed and the admission hot path is allocation-free
// (hotalloc root gate.admit).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"econcast/internal/model"
	"econcast/internal/oracle"
	"econcast/internal/topology"
)

// Provenance labels of a Response: how the answer was produced.
const (
	// ProvExact: the LP solver produced this answer for this request.
	ProvExact = "exact"
	// ProvCached: served from the persistent/in-memory solution cache
	// (bitwise-identical to the exact answer that populated it).
	ProvCached = "cached"
	// ProvDegraded: the breaker is open (or the solve failed) and no
	// cached answer exists; this is the symmetric closed-form
	// approximation, not the LP optimum.
	ProvDegraded = "degraded"
)

// Objective names accepted in a Request.
const (
	ObjGroupput = "groupput" // (P2), clique
	ObjAnyput   = "anyput"   // (P3), clique
	ObjBounds   = "bounds"   // §IV-C non-clique lower/upper bounds
	ObjExact    = "exact"    // exact non-clique configuration LP (N <= 16)
)

// NodeSpec is one node's power parameters (all in watts).
type NodeSpec struct {
	Budget   float64 `json:"budget"`
	Listen   float64 `json:"listen"`
	Transmit float64 `json:"transmit"`
}

// TopoSpec selects a non-clique topology for the bounds/exact
// objectives. Kind is one of grid, ring, line, star; grid uses
// Rows x Cols, the others use N.
type TopoSpec struct {
	Kind string `json:"kind"`
	Rows int    `json:"rows,omitempty"`
	Cols int    `json:"cols,omitempty"`
	N    int    `json:"n,omitempty"`
}

// Request is one oracle query. Either the homogeneous shorthand
// (N/Rho/Listen/Transmit) or the explicit Nodes list describes the
// fleet; Nodes wins when both are present.
type Request struct {
	Objective string `json:"objective"`

	// Homogeneous shorthand.
	N        int     `json:"n,omitempty"`
	Rho      float64 `json:"rho,omitempty"`
	Listen   float64 `json:"listen,omitempty"`
	Transmit float64 `json:"transmit,omitempty"`

	// Heterogeneous fleet; overrides the shorthand.
	Nodes []NodeSpec `json:"nodes,omitempty"`

	// Topology, required for bounds/exact, rejected for clique
	// objectives (groupput/anyput are clique formulations).
	Topology *TopoSpec `json:"topology,omitempty"`

	// TimeoutMs optionally tightens the server's per-request solve
	// budget; it can never widen it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Result is one operating point: throughput plus per-node listen (alpha)
// and transmit (beta) time fractions.
type Result struct {
	Throughput float64   `json:"throughput"`
	Alpha      []float64 `json:"alpha"`
	Beta       []float64 `json:"beta"`
}

// Response is the answer to a Request. For ObjBounds, the embedded
// Result is the lower (achievable) bound and Upper carries the upper
// bound; Upper is nil for every other objective and for degraded
// answers (the closed form approximates only the achievable point).
type Response struct {
	Result
	Upper      *Result `json:"upper,omitempty"`
	Provenance string  `json:"provenance"`
}

// clone deep-copies r so singleflight followers and cache hits can hand
// out independent slices.
func (r *Response) clone() *Response {
	out := &Response{Result: cloneResult(r.Result), Provenance: r.Provenance}
	if r.Upper != nil {
		u := cloneResult(*r.Upper)
		out.Upper = &u
	}
	return out
}

func cloneResult(r Result) Result {
	return Result{
		Throughput: r.Throughput,
		Alpha:      append([]float64(nil), r.Alpha...),
		Beta:       append([]float64(nil), r.Beta...),
	}
}

// ErrBadRequest wraps every request-validation failure, so the HTTP
// layer can map it to 400 without string matching.
var ErrBadRequest = errors.New("serve: bad request")

// maxFleet bounds the fleet size a single query may ask about; the
// dense per-node LP beyond this is not a serving-latency workload.
const maxFleet = 1024

// compiled is a validated, canonicalized request: the model network,
// the topology (nil for clique objectives), and the serving cache key.
type compiled struct {
	objective string
	nw        *model.Network
	topo      *topology.Topology
	key       string
}

// compile validates req and builds its canonical form. The cache key is
// the objective byte plus oracle.CanonicalKey — the same canonical
// bytes the in-process memo uses — so batch (cmd/oracle) and serving
// (cmd/oracled) answers dedup and persist under one identity.
func (req *Request) compile() (*compiled, error) {
	nw, err := req.network()
	if err != nil {
		return nil, err
	}
	var topo *topology.Topology
	var kind oracle.Kind
	switch req.Objective {
	case ObjGroupput, ObjAnyput:
		if req.Topology != nil {
			return nil, fmt.Errorf("%w: objective %q is a clique formulation; use bounds or exact for topologies", ErrBadRequest, req.Objective)
		}
		kind = oracle.KindGroupput
		if req.Objective == ObjAnyput {
			kind = oracle.KindAnyput
		}
	case ObjBounds, ObjExact:
		if req.Topology == nil {
			return nil, fmt.Errorf("%w: objective %q needs a topology", ErrBadRequest, req.Objective)
		}
		topo, err = req.Topology.build(nw.N())
		if err != nil {
			return nil, err
		}
		kind = oracle.KindGroupput
		if req.Objective == ObjExact {
			kind = oracle.KindNonCliqueExact
			if nw.N() > oracle.MaxNodesExactNonClique {
				return nil, fmt.Errorf("%w: exact objective limited to %d nodes, got %d", ErrBadRequest, oracle.MaxNodesExactNonClique, nw.N())
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown objective %q", ErrBadRequest, req.Objective)
	}
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &compiled{
		objective: req.Objective,
		nw:        nw,
		topo:      topo,
		key:       objByte(req.Objective) + oracle.CanonicalKey(kind, nw, topo),
	}, nil
}

func objByte(objective string) string {
	switch objective {
	case ObjGroupput:
		return "g"
	case ObjAnyput:
		return "a"
	case ObjBounds:
		return "b"
	case ObjExact:
		return "x"
	}
	return "?"
}

func (req *Request) network() (*model.Network, error) {
	if len(req.Nodes) > 0 {
		if len(req.Nodes) > maxFleet {
			return nil, fmt.Errorf("%w: fleet of %d exceeds the %d-node serving limit", ErrBadRequest, len(req.Nodes), maxFleet)
		}
		nw := &model.Network{Nodes: make([]model.Node, len(req.Nodes))}
		for i, n := range req.Nodes {
			nw.Nodes[i] = model.Node{Budget: n.Budget, ListenPower: n.Listen, TransmitPower: n.Transmit}
		}
		return nw, nil
	}
	if req.N <= 0 {
		return nil, fmt.Errorf("%w: need n > 0 or a nodes list", ErrBadRequest)
	}
	if req.N > maxFleet {
		return nil, fmt.Errorf("%w: fleet of %d exceeds the %d-node serving limit", ErrBadRequest, req.N, maxFleet)
	}
	return model.Homogeneous(req.N, req.Rho, req.Listen, req.Transmit), nil
}

func (t *TopoSpec) build(n int) (*topology.Topology, error) {
	var topo *topology.Topology
	switch t.Kind {
	case "grid":
		if t.Rows <= 0 || t.Cols <= 0 {
			return nil, fmt.Errorf("%w: grid topology needs rows > 0 and cols > 0", ErrBadRequest)
		}
		// Bounding each side by n first keeps the product from wrapping.
		if t.Rows > n || t.Cols > n || t.Rows*t.Cols != n {
			return nil, fmt.Errorf("%w: grid %dx%d does not have the fleet's %d nodes", ErrBadRequest, t.Rows, t.Cols, n)
		}
		topo = topology.Grid(t.Rows, t.Cols)
	case "ring", "line", "star":
		tn := t.N
		if tn == 0 {
			tn = n
		}
		if tn != n {
			return nil, fmt.Errorf("%w: topology has %d nodes, fleet has %d", ErrBadRequest, tn, n)
		}
		switch t.Kind {
		case "ring":
			topo = topology.Ring(n)
		case "line":
			topo = topology.Line(n)
		default:
			topo = topology.Star(n)
		}
	default:
		return nil, fmt.Errorf("%w: unknown topology kind %q", ErrBadRequest, t.Kind)
	}
	return topo, nil
}

// degraded builds the closed-form fallback answer for c: the symmetric
// approximation of §IV-A/B evaluated at the fleet's mean parameters.
// It is instant (no LP), always available, and clearly labeled — the
// bottom rung of the degrade ladder when the breaker is open and
// nothing is cached.
func degraded(c *compiled) *Response {
	n := c.nw.N()
	mean := model.Node{}
	for _, nd := range c.nw.Nodes {
		mean.Budget += nd.Budget
		mean.ListenPower += nd.ListenPower
		mean.TransmitPower += nd.TransmitPower
	}
	fn := float64(n)
	mean.Budget /= fn
	mean.ListenPower /= fn
	mean.TransmitPower /= fn

	var sol *oracle.Solution
	if c.objective == ObjAnyput {
		sol, _ = oracle.AnyputClosedForm(n, mean)
	} else {
		sol, _ = oracle.GroupputClosedForm(n, mean)
	}
	// The closed form assumes the power constraint dominates; clamp the
	// point back into (10) and (11) so a degraded answer is never an
	// infeasible operating point, merely a suboptimal one.
	alpha, beta := sol.Alpha[0], sol.Beta[0]
	if s := alpha + beta; s > 1 {
		alpha /= s
		beta /= s
	}
	if fn*beta > 1 {
		beta = 1 / fn
	}
	out := &Response{Provenance: ProvDegraded}
	if c.objective == ObjAnyput {
		out.Throughput = fn * beta
	} else {
		out.Throughput = fn * alpha
	}
	out.Alpha = repeat(alpha, n)
	out.Beta = repeat(beta, n)
	return out
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Binary value encoding for the persistent cache: little-endian, fully
// self-describing, no floats-as-text round trips (bitwise identity is
// the contract).
//
//	u32 len(alpha) | f64 throughput | f64 alpha... | f64 beta... |
//	u8 hasUpper | [same for upper]
func encodeResponse(r *Response) []byte {
	buf := make([]byte, 0, 16+16*len(r.Alpha))
	buf = appendResult(buf, &r.Result)
	if r.Upper != nil {
		buf = append(buf, 1)
		buf = appendResult(buf, r.Upper)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func appendResult(buf []byte, r *Result) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Alpha)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Throughput))
	for _, a := range r.Alpha {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
	}
	for _, b := range r.Beta {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b))
	}
	return buf
}

var errCorruptValue = errors.New("serve: corrupt cached value")

// decodeResponse is the inverse of encodeResponse. The provenance of a
// decoded response is ProvCached by construction.
func decodeResponse(b []byte) (*Response, error) {
	res, rest, err := takeResult(b)
	if err != nil {
		return nil, err
	}
	out := &Response{Result: *res, Provenance: ProvCached}
	if len(rest) < 1 {
		return nil, errCorruptValue
	}
	hasUpper := rest[0]
	rest = rest[1:]
	if hasUpper > 1 {
		return nil, errCorruptValue // not encodeResponse's output
	}
	if hasUpper == 1 {
		up, rest2, err := takeResult(rest)
		if err != nil {
			return nil, err
		}
		out.Upper = up
		rest = rest2
	}
	if len(rest) != 0 {
		return nil, errCorruptValue
	}
	return out, nil
}

func takeResult(b []byte) (*Result, []byte, error) {
	if len(b) < 12 {
		return nil, nil, errCorruptValue
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || n > maxFleet {
		return nil, nil, errCorruptValue
	}
	need := 12 + 16*n
	if len(b) < need {
		return nil, nil, errCorruptValue
	}
	r := &Result{
		Throughput: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		Alpha:      make([]float64, n),
		Beta:       make([]float64, n),
	}
	off := 12
	for i := 0; i < n; i++ {
		r.Alpha[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for i := 0; i < n; i++ {
		r.Beta[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return r, b[need:], nil
}
