package conform

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sim"
	"econcast/internal/statespace"
	"econcast/internal/sweep"
	"econcast/internal/topology"
)

var (
	update = flag.Bool("update", false, "regenerate "+refPath+" from the current engine")
	commit = flag.String("commit", "", "with -update: the commit whose engine generates the reference")
)

const (
	refPath = "testdata/reference.json"

	// seeds is K, the number of independent replicates per scenario.
	// Under the race detector the check uses the first raceSeeds of them
	// (see race_on_test.go): a smaller sample of the same law.
	seeds = 40

	// alpha is the family-wise false-rejection rate. Every statistic of
	// every scenario is one test in the family (Bonferroni).
	alpha = 0.01

	// The reference and the check draw from disjoint seed families, so
	// the two samples are independent and the two-sample tests are exact
	// in their assumptions even when the engine is unchanged.
	refDomain   = 0x52454600 // "REF"
	checkDomain = 0x43484b00 // "CHK"
)

// scenario is one catalogue entry: a configuration, less its seed.
type scenario struct {
	name string
	cfg  sim.Config
	// gibbs marks a Capture clique at frozen eta*: its occupancy is also
	// compared against the Gibbs distribution (19) at that eta.
	gibbs bool
	eta   []float64
}

// catalogue returns the scenarios: cliques with n <= 6 in both variants
// and both modes at frozen eta*, a heterogeneous clique, and one case
// each for the hard battery floor, churn and a non-clique (3x3 grid).
func catalogue(t testing.TB) []scenario {
	t.Helper()
	const (
		sigma    = 0.5
		duration = 300.0
		warmup   = 20.0
	)
	frozen := func(name string, nw *model.Network, variant econcast.Variant, mode model.Mode) scenario {
		p4, err := statespace.SolveP4(nw, sigma, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		return scenario{
			name: name,
			cfg: sim.Config{
				Network:   nw,
				Protocol:  sim.Protocol{Mode: mode, Variant: variant, Sigma: sigma},
				Duration:  duration,
				Warmup:    warmup,
				WarmEta:   p4.Eta,
				FreezeEta: true,
			},
			gibbs: variant == econcast.Capture,
			eta:   p4.Eta,
		}
	}
	hom := func(n int, rho float64) *model.Network {
		return model.Homogeneous(n, rho*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	}
	het := &model.Network{Nodes: []model.Node{
		{Budget: 30 * model.MicroWatt, ListenPower: 500 * model.MicroWatt, TransmitPower: 500 * model.MicroWatt},
		{Budget: 60 * model.MicroWatt, ListenPower: 400 * model.MicroWatt, TransmitPower: 600 * model.MicroWatt},
		{Budget: 120 * model.MicroWatt, ListenPower: 600 * model.MicroWatt, TransmitPower: 450 * model.MicroWatt},
	}}
	cat := []scenario{
		frozen("clique4-C-groupput", hom(4, 60), econcast.Capture, model.Groupput),
		frozen("clique4-C-anyput", hom(4, 60), econcast.Capture, model.Anyput),
		frozen("clique4-NC-groupput", hom(4, 60), econcast.NonCapture, model.Groupput),
		frozen("clique4-NC-anyput", hom(4, 60), econcast.NonCapture, model.Anyput),
		frozen("clique6-C-groupput", hom(6, 40), econcast.Capture, model.Groupput),
		frozen("clique3-hetero-C-groupput", het, econcast.Capture, model.Groupput),
	}

	// Hard battery floor: eta held at 0.8 eta*, so the nodes overspend
	// and the floor binds, forcing depleted listeners to sleep.
	floor := frozen("clique4-C-floor", hom(4, 60), econcast.Capture, model.Groupput)
	floor.gibbs = false
	floor.cfg.WarmEta = scaled(floor.eta, 0.8)
	floor.cfg.HardBatteryFloor = true
	floor.cfg.InitialBattery = 2e-3
	cat = append(cat, floor)

	// Churn: odd nodes leave for alternate 25-second windows.
	churn := frozen("clique5-C-churn", hom(5, 60), econcast.Capture, model.Groupput)
	churn.gibbs = false
	churn.cfg.Churn = func(node int, t float64) bool {
		return node%2 == 0 || int(t/25)%2 == 0
	}
	cat = append(cat, churn)

	// A 3x3 grid, with eta frozen at its clique value: hidden terminals
	// and partial carrier sense, several shards' worth of structure.
	grid := frozen("grid3x3-C-groupput", hom(9, 60), econcast.Capture, model.Groupput)
	grid.gibbs = false
	grid.cfg.Topology = topology.Grid(3, 3)
	cat = append(cat, grid)
	return cat
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f * x
	}
	return out
}

// latencyQuantiles and runLengthPoints fix where the latency quantiles
// and the run-length empirical CDF are read.
var (
	latencyQuantiles = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	runLengthPoints  = []int{1, 2, 4, 8, 16}
)

// sample is one run's summary: named scalar statistics in a fixed order,
// plus the occupancy of every visited network state (for the pooled TV
// distances, which are reported but not tested).
type sample struct {
	names  []string
	values []float64
	occ    map[string]float64
}

func (s *sample) add(name string, v float64) {
	s.names = append(s.names, name)
	s.values = append(s.values, v)
}

func stateKey(s model.NetState) string {
	return fmt.Sprintf("%d/%x", s.Transmitter, s.Listeners)
}

// measure runs sc at seed and summarizes it. Every statistic is a
// function of one run, so across seeds each is an i.i.d. sample; the
// within-run samples (bursts, latencies) are serially dependent, which
// is why they enter only through per-run summaries.
func measure(sc *scenario, seed uint64) (sample, error) {
	cfg := sc.cfg
	cfg.Seed = seed
	cfg.TrackOccupancy = true
	runs := newRunTracker(cfg.Network.N(), cfg.Warmup, model.DefaultIfZero(cfg.Protocol.PacketTime, 1e-3))
	cfg.OnDeliver = runs.observe
	m, err := sim.Run(cfg)
	if err != nil {
		return sample{}, err
	}
	runs.close()
	n := cfg.Network.N()

	var s sample
	s.add("groupput", m.Groupput)
	s.add("anyput", m.Anyput)
	s.add("burst mean", m.BurstLengths.Mean())
	s.add("burst sd", m.BurstLengths.Stddev())
	for _, k := range runLengthPoints {
		s.add(fmt.Sprintf("run F(%d)", k), runs.cdf(k))
	}
	for _, q := range latencyQuantiles {
		v := math.NaN()
		if m.Latency.N() > 0 {
			v = m.Latency.Quantile(q)
		}
		s.add(fmt.Sprintf("latency q%02.0f", 100*q), v)
	}

	// Occupancy, folded in a fixed state order.
	states := make([]model.NetState, 0, len(m.Occupancy))
	for st := range m.Occupancy {
		states = append(states, st)
	}
	sort.Slice(states, func(a, b int) bool {
		if states[a].Transmitter != states[b].Transmitter {
			return states[a].Transmitter < states[b].Transmitter
		}
		return states[a].Listeners < states[b].Listeners
	})
	class := make([]float64, 2*(n+1)) // (transmitter?, #listeners)
	listen := make([]float64, n)
	transmit := make([]float64, n)
	s.occ = make(map[string]float64, len(states))
	for _, st := range states {
		f := m.Occupancy[st]
		s.occ[stateKey(st)] = f
		k := bits.OnesCount64(st.Listeners)
		if st.Transmitter != model.NoTransmitter {
			k += n + 1
			transmit[st.Transmitter] += f
		}
		class[k] += f
		for i := 0; i < n; i++ {
			if st.Listeners&(1<<uint(i)) != 0 {
				listen[i] += f
			}
		}
	}
	for k, f := range class {
		if k <= n {
			s.add(fmt.Sprintf("occ idle/%d listening", k), f)
		} else if k-(n+1) < n {
			s.add(fmt.Sprintf("occ tx/%d listening", k-(n+1)), f)
		}
	}
	for i := 0; i < n; i++ {
		s.add(fmt.Sprintf("listen frac %d", i), listen[i])
		s.add(fmt.Sprintf("transmit frac %d", i), transmit[i])
	}
	if sc.gibbs {
		tv, err := tvToGibbs(sc, s.occ)
		if err != nil {
			return sample{}, err
		}
		s.add("TV to Gibbs", tv)
	}
	return s, nil
}

// runTracker reconstructs delivering runs from the OnDeliver stream: a
// run is a maximal sequence of consecutive packets of one hold that
// each reached at least one receiver. Runs starting before warmup are
// not counted.
type runTracker struct {
	warmup, packet float64
	last           []float64 // end time of tx's last delivering packet
	start          []float64
	cur            []int
	lengths        []int
}

func newRunTracker(n int, warmup, packet float64) *runTracker {
	r := &runTracker{warmup: warmup, packet: packet,
		last: make([]float64, n), start: make([]float64, n), cur: make([]int, n)}
	for i := range r.last {
		r.last[i] = math.Inf(-1)
	}
	return r
}

func (r *runTracker) observe(tx, _ int, now float64) {
	switch {
	case now == r.last[tx]:
		return // another receiver of the same packet
	case now == r.last[tx]+r.packet:
		r.cur[tx]++ // the next packet of the same hold
	default:
		r.flush(tx)
		r.cur[tx], r.start[tx] = 1, now
	}
	r.last[tx] = now
}

func (r *runTracker) flush(tx int) {
	if r.cur[tx] > 0 && r.start[tx] >= r.warmup {
		r.lengths = append(r.lengths, r.cur[tx])
	}
	r.cur[tx] = 0
}

func (r *runTracker) close() {
	for tx := range r.cur {
		r.flush(tx)
	}
}

// cdf is the fraction of runs of length at most k (NaN without runs).
func (r *runTracker) cdf(k int) float64 {
	if len(r.lengths) == 0 {
		return math.NaN()
	}
	c := 0
	for _, l := range r.lengths {
		if l <= k {
			c++
		}
	}
	return float64(c) / float64(len(r.lengths))
}

// tvToGibbs is the total-variation distance between an occupancy and
// the Gibbs distribution (19) at the scenario's frozen eta.
func tvToGibbs(sc *scenario, occ map[string]float64) (float64, error) {
	sp, err := statespace.Enumerate(sc.cfg.Network)
	if err != nil {
		return 0, err
	}
	d := sp.Gibbs(sc.eta, sc.cfg.Protocol.Sigma, sc.cfg.Protocol.Mode)
	tv := 0.0
	for i := 0; i < sp.Len(); i++ {
		tv += math.Abs(occ[stateKey(sp.State(i))] - d.Pi(i))
	}
	return tv / 2, nil
}

// reference is the committed baseline: per scenario, every statistic's
// per-seed values and the seed-mean occupancy of every visited state.
type reference struct {
	Commit    string        `json:"commit"`
	Seeds     int           `json:"seeds"`
	Scenarios []refScenario `json:"scenarios"`
}

type refScenario struct {
	Name      string            `json:"name"`
	Stats     []refStat         `json:"stats"`
	Occupancy map[string]jfloat `json:"occupancy"`
}

type refStat struct {
	Name   string   `json:"name"`
	Values []jfloat `json:"values"`
}

// jfloat is a per-seed value as the reference stores it: seven
// significant digits, far below any sampling error, and null for a NaN
// (a run without latency samples, say).
type jfloat float64

func (f jfloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, float64(f), 'g', 7, 64), nil
}

func (f *jfloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jfloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*f = jfloat(v)
	return err
}

// flatArray matches a JSON array of numbers and nulls.
var (
	flatArray = regexp.MustCompile(`\[[^][{}"]*\]`)
	spaces    = regexp.MustCompile(`\s+`)
)

func occFloats(m map[string]jfloat) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

func floats(js []jfloat) []float64 {
	out := make([]float64, len(js))
	for i, v := range js {
		out[i] = float64(v)
	}
	return out
}

// collect runs every scenario at k seeds of the given domain and folds
// the samples into the reference layout.
func collect(t *testing.T, cat []scenario, domain uint64, k int) []refScenario {
	t.Helper()
	var cells []sweep.Cell[sample]
	for i := range cat {
		sc := &cat[i]
		for j := 0; j < k; j++ {
			seed := rng.DeriveSeed(domain, uint64(j))
			cells = append(cells, func() (sample, error) { return measure(sc, seed) })
		}
	}
	samples, err := sweep.Run(0, cells)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]refScenario, len(cat))
	for i := range cat {
		runs := samples[i*k : (i+1)*k]
		rs := refScenario{Name: cat[i].name, Occupancy: map[string]jfloat{}}
		for si, name := range runs[0].names {
			st := refStat{Name: name, Values: make([]jfloat, k)}
			for j, s := range runs {
				st.Values[j] = jfloat(s.values[si])
			}
			rs.Stats = append(rs.Stats, st)
		}
		for _, s := range runs {
			for key, f := range s.occ {
				rs.Occupancy[key] += jfloat(f / float64(k))
			}
		}
		out[i] = rs
	}
	return out
}

// TestLawConformance compares the engine's law against the committed
// reference: every statistic of every scenario gets a two-sided Welch
// t-test between the reference's per-seed values and the current
// engine's, at a Bonferroni-corrected level alpha/M over all M tests.
// It prints the full statistics table.
func TestLawConformance(t *testing.T) {
	cat := catalogue(t)
	if *update {
		if *commit == "" {
			t.Fatal("-update needs -commit, the hash of the engine generating the reference")
		}
		ref := reference{Commit: *commit, Seeds: seeds, Scenarios: collect(t, cat, refDomain, seeds)}
		buf, err := json.MarshalIndent(ref, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		// One line per statistic: its per-seed values on one line.
		buf = flatArray.ReplaceAllFunc(buf, func(m []byte) []byte {
			return spaces.ReplaceAll(m, []byte(" "))
		})
		if err := os.WriteFile(refPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s at commit %s", refPath, *commit)
		return
	}
	buf, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(buf, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Scenarios) != len(cat) {
		t.Fatalf("reference holds %d scenarios, catalogue %d; regenerate it", len(ref.Scenarios), len(cat))
	}
	k := seeds
	if raceEnabled {
		k = raceSeeds
	}
	cur := collect(t, cat, checkDomain, k)

	type row struct {
		scenario, stat         string
		refMean, curMean, p, z float64
	}
	var rows []row
	var tvs []string
	for i, rs := range ref.Scenarios {
		cs := cur[i]
		if rs.Name != cs.Name || len(rs.Stats) != len(cs.Stats) {
			t.Fatalf("scenario %d: reference %q with %d statistics, current %q with %d; regenerate the reference",
				i, rs.Name, len(rs.Stats), cs.Name, len(cs.Stats))
		}
		for j, a := range rs.Stats {
			b := cs.Stats[j]
			if a.Name != b.Name {
				t.Fatalf("%s: statistic %d is %q in the reference, %q now", rs.Name, j, a.Name, b.Name)
			}
			av, bv := finite(floats(a.Values)), finite(floats(b.Values))
			p, z, ok := welch(av, bv)
			if !ok {
				continue // constant and equal in both, or too few finite values
			}
			rows = append(rows, row{rs.Name, a.Name, mean(av), mean(bv), p, z})
		}
		line := fmt.Sprintf("%-26s TV(reference, current) = %.4f", rs.Name, tv(occFloats(rs.Occupancy), occFloats(cs.Occupancy)))
		if cat[i].gibbs {
			gr, err := tvToGibbs(&cat[i], occFloats(rs.Occupancy))
			if err != nil {
				t.Fatal(err)
			}
			gc, err := tvToGibbs(&cat[i], occFloats(cs.Occupancy))
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf("   TV to Gibbs: reference %.4f, current %.4f", gr, gc)
		}
		tvs = append(tvs, line)
	}

	level := alpha / float64(len(rows))
	var b strings.Builder
	fmt.Fprintf(&b, "law conformance: reference %s (%d seeds), current engine (%d seeds), %d tests, family-wise alpha %g, per-test level %.3g\n",
		ref.Commit, ref.Seeds, k, len(rows), alpha, level)
	fmt.Fprintf(&b, "%-26s %-20s %12s %12s %8s %10s\n", "scenario", "statistic", "reference", "current", "t", "p")
	failed := 0
	for _, r := range rows {
		mark := ""
		if r.p < level {
			mark = "  REJECT"
			failed++
		}
		fmt.Fprintf(&b, "%-26s %-20s %12.6g %12.6g %8.2f %10.3g%s\n", r.scenario, r.stat, r.refMean, r.curMean, r.z, r.p, mark)
	}
	for _, l := range tvs {
		b.WriteString(l + "\n")
	}
	t.Log("\n" + b.String())
	if failed > 0 {
		t.Errorf("%d of %d statistics differ from the reference at family-wise alpha %g", failed, len(rows), alpha)
	}
}

func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func variance(xs []float64, m float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return s / float64(len(xs)-1)
}

// tv is the total-variation distance between two occupancy maps.
func tv(a, b map[string]float64) float64 {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	d := 0.0
	for _, k := range keys {
		d += math.Abs(a[k] - b[k])
	}
	return d / 2
}

// welch is the two-sided Welch two-sample t-test of equal means. ok is
// false when the test is void: fewer than two values on a side, or both
// samples constant and equal. Two constant samples that differ reject
// with p = 0.
func welch(a, b []float64) (p, t float64, ok bool) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, false
	}
	ma, mb := mean(a), mean(b)
	va, vb := variance(a, ma)/float64(len(a)), variance(b, mb)/float64(len(b))
	if va+vb == 0 {
		if ma == mb {
			return 0, 0, false
		}
		return 0, math.Inf(1), true
	}
	t = (mb - ma) / math.Sqrt(va+vb)
	df := (va + vb) * (va + vb) / (va*va/float64(len(a)-1) + vb*vb/float64(len(b)-1))
	return regIncBeta(df/2, 0.5, df/(df+t*t)), t, true
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz), which gives the
// Student t tail: P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(b, a, 1-x)/b
	}
	return front * betaCF(a, b, x) / a
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// TestWelchTail pins the t-tail against known values.
func TestWelchTail(t *testing.T) {
	for _, tc := range []struct{ df, t, want float64 }{
		{1, 1, 0.5},       // Cauchy: P(|T| > 1) = 1/2
		{10, 2.228, 0.05}, // two-sided 5% point at 10 df
		{60, 2.660, 0.01}, // two-sided 1% point at 60 df
		{1e6, 1.959964, 0.05},
	} {
		got := regIncBeta(tc.df/2, 0.5, tc.df/(tc.df+tc.t*tc.t))
		if math.Abs(got-tc.want) > 2e-4 {
			t.Errorf("df %g, t %g: tail %g, want %g", tc.df, tc.t, got, tc.want)
		}
	}
}
