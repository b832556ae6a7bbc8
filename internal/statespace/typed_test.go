package statespace

import (
	"math"
	"testing"

	"econcast/internal/model"
)

func TestTypedMatchesExactOnSmallMixedNetwork(t *testing.T) {
	a := model.Node{Budget: 5 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 500 * model.MicroWatt}
	b := model.Node{Budget: 40 * model.MicroWatt, ListenPower: 450 * model.MicroWatt, TransmitPower: 550 * model.MicroWatt}
	nw := &model.Network{Nodes: []model.Node{a, a, a, b, b}}
	for _, mode := range []model.Mode{model.Groupput, model.Anyput} {
		for _, sigma := range []float64{0.3, 0.6} {
			exact, err := SolveP4(nw, sigma, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			typed, err := SolveP4Typed([]int{3, 2}, []model.Node{a, b}, sigma, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(exact.Throughput-typed.Throughput) / exact.Throughput; rel > 1e-6 {
				t.Fatalf("mode=%v sigma=%v: exact %v vs typed %v", mode, sigma, exact.Throughput, typed.Throughput)
			}
			// Per-node alphas: first three are type a, last two type b.
			if math.Abs(exact.Alpha[0]-typed.Alpha[0]) > 1e-6 ||
				math.Abs(exact.Alpha[4]-typed.Alpha[4]) > 1e-6 {
				t.Fatalf("mode=%v: alpha mismatch: %v vs %v", mode, exact.Alpha, typed.Alpha)
			}
			if math.Abs(exact.BurstLength-typed.BurstLength)/exact.BurstLength > 1e-4 {
				t.Fatalf("mode=%v: burst mismatch: %v vs %v", mode, exact.BurstLength, typed.BurstLength)
			}
		}
	}
}

func TestTypedLargeNetworkConverges(t *testing.T) {
	a := model.Node{Budget: 5 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 500 * model.MicroWatt}
	b := model.Node{Budget: 50 * model.MicroWatt, ListenPower: 600 * model.MicroWatt, TransmitPower: 400 * model.MicroWatt}
	res, err := SolveP4Typed([]int{25, 25}, []model.Node{a, b}, 0.4, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if len(res.Alpha) != 50 {
		t.Fatalf("alpha length %d", len(res.Alpha))
	}
	// Consumption respects per-type budgets.
	if res.Consumption[0] > a.Budget*1.001 || res.Consumption[49] > b.Budget*1.001 {
		t.Fatalf("consumption violated: %v / %v", res.Consumption[0], res.Consumption[49])
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

// SolveP4 must auto-dispatch large type-structured heterogeneous networks
// to the typed solver (previously an error).
func TestSolveP4AutoDispatchTyped(t *testing.T) {
	a := model.Node{Budget: 5 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 500 * model.MicroWatt}
	b := model.Node{Budget: 50 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 500 * model.MicroWatt}
	nodes := make([]model.Node, 0, 30)
	// Interleave so the permutation logic is exercised.
	for i := 0; i < 15; i++ {
		nodes = append(nodes, a, b)
	}
	nw := &model.Network{Nodes: nodes}
	res, err := SolveP4(nw, 0.4, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 is type a (5 uW), node 1 type b (50 uW): consumption must
	// track each node's own budget in the original order.
	if math.Abs(res.Consumption[0]-a.Budget)/a.Budget > 1e-3 {
		t.Fatalf("node 0 consumption %v, budget %v", res.Consumption[0], a.Budget)
	}
	if math.Abs(res.Consumption[1]-b.Budget)/b.Budget > 1e-3 {
		t.Fatalf("node 1 consumption %v, budget %v", res.Consumption[1], b.Budget)
	}
	if res.Alpha[1] <= res.Alpha[0] {
		t.Fatal("richer node should listen more")
	}
}

func TestTypedErrors(t *testing.T) {
	node := model.Node{Budget: 1, ListenPower: 1, TransmitPower: 1}
	if _, err := SolveP4Typed([]int{1, 2}, []model.Node{node}, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SolveP4Typed([]int{0}, []model.Node{node}, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := SolveP4Typed([]int{2}, []model.Node{node}, 0, model.Groupput, nil); err == nil {
		t.Fatal("sigma=0 accepted")
	}
	if _, err := SolveP4Typed([]int{2}, []model.Node{{}}, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("invalid node accepted")
	}
	if _, err := SolveP4Typed([]int{maxClasses / 2}, []model.Node{node}, 0.5, model.Groupput, nil); err == nil {
		t.Fatal("class space over the limit accepted")
	}
}

// TestReducedClassSizesExact pins the combinatorial core of the symmetry
// reduction at T = 1: for every n <= 8 the class multiplicities partition
// the full collision-free state space exactly, class by class and in total.
func TestReducedClassSizesExact(t *testing.T) {
	node := model.Node{Budget: 0.5, ListenPower: 0.9, TransmitPower: 1.0}
	for n := 1; n <= 8; n++ {
		ev := newTypedEval([]int{n}, []model.Node{node}, 0.5, model.Groupput)
		if got, want := len(ev.logMult), 2*n+1; got != want {
			t.Fatalf("n=%d: %d classes, want %d", n, got, want)
		}
		sp, err := Enumerate(homogNetworkWith(n, node))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		counts := make([]int64, len(ev.logMult))
		for i := 0; i < sp.Len(); i++ {
			counts[classOf(sp.State(i), n)]++
		}
		var total int64
		for k, lm := range ev.logMult {
			size := int64(math.Round(math.Exp(lm)))
			if size != counts[k] {
				t.Errorf("n=%d class %d (tx=%d, c=%v): size %d, enumerated %d",
					n, k, ev.tx[k], ev.listeners[0][k], size, counts[k])
			}
			total += size
		}
		if want := int64(model.NumStates(n)); total != want {
			t.Errorf("n=%d: class sizes sum to %d, want |W|=%d", n, total, want)
		}
	}
}

// TestReducedGibbsMatchesFullEnumeration validates the T = 1 aggregated
// Gibbs distribution against the full enumeration for n <= 8: the dual
// value (hence the normalizer), class masses, throughput, time fractions,
// consumption and burst length must all agree to floating-point accuracy.
func TestReducedGibbsMatchesFullEnumeration(t *testing.T) {
	node := model.Node{Budget: 0.4, ListenPower: 0.8, TransmitPower: 1.0}
	for n := 1; n <= 8; n++ {
		sp, err := Enumerate(homogNetworkWith(n, node))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, mode := range []model.Mode{model.Groupput, model.Anyput} {
			for _, sigma := range []float64{0.25, 1, 3} {
				ev := newTypedEval([]int{n}, []model.Node{node}, sigma, mode)
				for _, eta := range []float64{0, 0.7, 2.5} {
					full := sp.Gibbs(uniform(eta, n), sigma, mode)
					red := ev.eval([]float64{eta})

					check := func(name string, got, want float64) {
						tol := 1e-11 * math.Max(1, math.Abs(want))
						if math.Abs(got-want) > tol {
							t.Errorf("n=%d mode=%v sigma=%v eta=%v %s: aggregated %v, full %v",
								n, mode, sigma, eta, name, got, want)
						}
					}
					check("dual", red.dual, sigma*full.LogZ()+float64(n)*eta*node.Budget)
					check("throughput", red.thr, full.Throughput())
					check("burst", red.burst, full.AvgBurstLength())

					fa, fb := full.Fractions()
					for i := 0; i < n; i++ {
						check("alpha", red.alpha[0], fa[i])
						check("beta", red.beta[0], fb[i])
						check("consumption", red.cons[0], fa[i]*node.ListenPower+fb[i]*node.TransmitPower)
					}

					classMass := make([]float64, len(ev.w))
					for i := 0; i < sp.Len(); i++ {
						classMass[classOf(sp.State(i), n)] += full.Pi(i)
					}
					for k := range classMass {
						check("classProb", ev.w[k], classMass[k])
					}
					full.Release()
				}
			}
		}
	}
}

// TestReducedLargeN sanity-checks the T = 1 class space far beyond the
// exact limit: class masses normalize and the anyput ceiling holds.
func TestReducedLargeN(t *testing.T) {
	node := model.Node{Budget: 0.4, ListenPower: 0.8, TransmitPower: 1.0}
	ev := newTypedEval([]int{500}, []model.Node{node}, 0.5, model.Anyput)
	res := ev.eval([]float64{1.2})
	sum := 0.0
	for _, p := range ev.w {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("class masses sum to %v, want 1", sum)
	}
	if res.thr < 0 || res.thr > 1 {
		t.Fatalf("anyput throughput %v outside [0,1]", res.thr)
	}
}

// classOf maps a state of an n-node homogeneous network to its T = 1
// class index: c listeners with no transmitter is class c, and with a
// transmitter class n+1+c.
func classOf(s model.NetState, n int) int {
	c := 0
	for b := s.Listeners; b != 0; b &= b - 1 {
		c++
	}
	if !s.HasTransmitter() {
		return c
	}
	return n + 1 + c
}

func homogNetwork(n int) *model.Network {
	return homogNetworkWith(n, model.Node{Budget: 0.5, ListenPower: 0.9, TransmitPower: 1.0})
}

func homogNetworkWith(n int, node model.Node) *model.Network {
	nodes := make([]model.Node, n)
	for i := range nodes {
		nodes[i] = node
	}
	return &model.Network{Nodes: nodes}
}

func uniform(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
