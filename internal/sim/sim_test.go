package sim

import (
	"math"
	"strings"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/statespace"
	"econcast/internal/topology"
)

func net5() *model.Network {
	return model.Homogeneous(5, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
}

func baseCfg() Config {
	return Config{
		Network: net5(),
		Protocol: Protocol{
			Mode:    model.Groupput,
			Variant: econcast.Capture,
			Sigma:   0.5,
		},
		Duration: 500,
		Warmup:   100,
		Seed:     1,
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Network = nil },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Duration = math.Inf(1) },
		func(c *Config) { c.Duration = math.NaN() },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Warmup = math.NaN() },
		func(c *Config) { c.Warmup = math.Inf(1) },
		func(c *Config) { c.Protocol.Sigma = 0 },
		func(c *Config) { c.WarmEta = []float64{1} },
		func(c *Config) { c.Topology = topology.Clique(3) },
		// Timing that would keep the tick cursor or a packet end from
		// ever passing the horizon, or poison the multiplier.
		func(c *Config) { c.Protocol.Tau = -1 },
		func(c *Config) { c.Protocol.Tau = math.NaN() },
		func(c *Config) { c.Protocol.PacketTime = -1e-3 },
		func(c *Config) { c.Protocol.PacketTime = math.NaN() },
		func(c *Config) { c.Protocol.Delta = math.NaN() },
		func(c *Config) { c.Protocol.Delta = math.Inf(1) },
	}
	for i, mut := range bad {
		c := baseCfg()
		mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := baseCfg()
	c.Duration, c.Warmup = 100, 20
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Groupput != b.Groupput || a.PacketsSent != b.PacketsSent {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			a.Groupput, a.PacketsSent, b.Groupput, b.PacketsSent)
	}
	c.Seed = 2
	d, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.PacketsSent == a.PacketsSent && d.Groupput == a.Groupput {
		t.Fatal("different seeds produced identical runs")
	}
}

// Nodes must consume power at their budget on average (the paper verifies
// exactly this about its simulations in §VII-A).
func TestPowerTracksBudget(t *testing.T) {
	c := baseCfg()
	c.Duration = 4000
	c.Warmup = 1000 // power is measured over the post-warmup window
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Power {
		if math.Abs(p-10*model.MicroWatt)/(10*model.MicroWatt) > 0.10 {
			t.Fatalf("node %d: mean power %v, budget 10uW (eta=%v)", i, p, m.EtaFinal[i])
		}
	}
}

// With the multiplier frozen at the P4 optimum, the empirical listen and
// transmit fractions and the throughput must match the Gibbs analysis
// (this validates the simulator against Lemma 2 end-to-end).
// TestEmptyWindowPower runs a measurement window that holds no event: a
// 0.1 ms window inside one packet, between two multiplier ticks. The
// battery is snapshotted at Warmup only when the run drains, and each
// node's Power must be the draw of the one state it held throughout.
func TestEmptyWindowPower(t *testing.T) {
	const listen, transmit = 600 * model.MicroWatt, 400 * model.MicroWatt
	cfg := Config{
		Network:  model.Homogeneous(6, 100*model.MicroWatt, listen, transmit),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Warmup:   30.05,
		Duration: 30.0501,
		Seed:     4,
	}
	c, _ := stepped(t, cfg, func(*coordinator) {})
	if c.now >= cfg.Warmup {
		t.Fatalf("event at %v inside the window [%v, %v]", c.now, cfg.Warmup, cfg.Duration)
	}
	draws := map[model.State]float64{model.Sleep: 0, model.Listen: listen, model.Transmit: transmit}
	held := map[model.State]int{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Power {
		st := c.nodes[i].state
		held[st]++
		if want := draws[st]; math.Abs(p-want) > 1e-9*listen {
			t.Errorf("node %d held %v: Power %v, want %v", i, st, p, want)
		}
	}
	if len(held) != 3 {
		t.Fatalf("the nodes held only %v; the check needs sleep, listen and transmit", held)
	}
}

func TestFrozenEtaMatchesGibbs(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 4000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.10 {
		t.Fatalf("frozen-eta groupput %v, Gibbs %v (rel err %.3f)",
			m.Groupput, ref.Throughput, rel)
	}
	// Power should likewise match the analytical consumption.
	for i, p := range m.Power {
		if math.Abs(p-ref.Consumption[i])/ref.Consumption[i] > 0.12 {
			t.Fatalf("node %d: power %v, analytic %v", i, p, ref.Consumption[i])
		}
	}
}

// Adaptive EconCast must converge to the analytical T^sigma: the paper
// reports that simulated throughput matches T^sigma for sigma in
// {0.25, 0.5}. At sigma=0.5 we run from a cold start; at sigma=0.25 the
// chain's mixing time is dominated by rare astronomically-long bursts
// (Fig. 4), so we warm-start the multipliers (still adapting) as the paper
// effectively does by simulating past the transient.
func TestAdaptiveMatchesAnalytic(t *testing.T) {
	nw := net5()
	for _, tc := range []struct {
		sigma float64
		warm  bool
	}{{0.5, false}, {0.25, true}} {
		ref, err := statespace.SolveP4(nw, tc.sigma, model.Groupput, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := baseCfg()
		c.Protocol.Sigma = tc.sigma
		c.Protocol.Delta = 0.1
		c.Duration = 6000
		c.Warmup = 1500
		if tc.warm {
			c.WarmEta = ref.Eta
		}
		m, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.2 {
			t.Fatalf("sigma=%v: adaptive groupput %v, analytic %v (rel %.3f)",
				tc.sigma, m.Groupput, ref.Throughput, rel)
		}
	}
}

// A cold start at small sigma can trap the network in a pathological
// mega-burst (all nodes awake, continue probability ~1) that bankrupts the
// frozen listeners. With the physical battery floor the burst is truncated
// by energy depletion and the network recovers instead of going comatose.
func TestColdStartRecoversWithBatteryFloor(t *testing.T) {
	c := baseCfg()
	c.Protocol.Sigma = 0.25
	c.Protocol.Delta = 0.1
	c.HardBatteryFloor = true
	c.InitialBattery = 2e-3
	c.Duration = 6000
	c.Warmup = 2000
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatal("network stayed comatose after cold start")
	}
	for i, eta := range m.EtaFinal {
		// Multipliers must stay within a sane range (scaled eta ~ O(1)).
		if eta*500e-6 > 20 {
			t.Fatalf("node %d: eta exploded to %v/W", i, eta)
		}
	}
}

func TestAnyputMode(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Anyput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.Protocol.Mode = model.Anyput
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 4000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Anyput-ref.Throughput) / ref.Throughput; rel > 0.10 {
		t.Fatalf("anyput %v, analytic %v (rel %.3f)", m.Anyput, ref.Throughput, rel)
	}
	// Groupput >= anyput always.
	if m.Groupput < m.Anyput-1e-12 {
		t.Fatalf("groupput %v < anyput %v", m.Groupput, m.Anyput)
	}
}

// Average burst length must match the Appendix E closed form under frozen
// optimal multipliers.
func TestBurstLengthMatchesAnalytic(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 6000
	c.Warmup = 200
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstLengths.N() < 100 {
		t.Fatalf("too few bursts: %d", m.BurstLengths.N())
	}
	got := m.BurstLengths.Mean()
	if rel := math.Abs(got-ref.BurstLength) / ref.BurstLength; rel > 0.15 {
		t.Fatalf("burst length %v, analytic %v (rel %.3f)", got, ref.BurstLength, rel)
	}
}

func TestLatencyRecorded(t *testing.T) {
	c := baseCfg()
	c.Duration = 3000
	c.Warmup = 500
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency.N() == 0 {
		t.Fatal("no latency samples")
	}
	if m.Latency.Mean() <= 0 {
		t.Fatalf("latency mean %v", m.Latency.Mean())
	}
	if q := m.Latency.Quantile(0.99); q < m.Latency.Mean() {
		t.Fatalf("99th percentile %v below mean %v", q, m.Latency.Mean())
	}
}

func TestNonCliqueGrid(t *testing.T) {
	n := 9
	nw := model.Homogeneous(n, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	c := Config{
		Network:  nw,
		Topology: topology.SquareGrid(n),
		Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5},
		Duration: 2000,
		Warmup:   500,
		Seed:     3,
	}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatal("no grid throughput")
	}
	// Grid degree <= 4: per-packet deliveries can never exceed 4.
	if m.PacketsDelivered > 4*m.PacketsSent {
		t.Fatalf("deliveries %d exceed degree bound (sent %d)",
			m.PacketsDelivered, m.PacketsSent)
	}
}

// In a clique, carrier sensing makes collisions impossible.
func TestNoCollisionsInClique(t *testing.T) {
	c := baseCfg()
	c.Duration = 1000
	c.Warmup = 0
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.CollidedReceptions != 0 {
		t.Fatalf("clique recorded %d collisions", m.CollidedReceptions)
	}
}

func TestNonCaptureVariantRuns(t *testing.T) {
	c := baseCfg()
	c.Protocol.Variant = econcast.NonCapture
	c.Duration = 2000
	c.Warmup = 500
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatal("no NC throughput")
	}
	// NC releases after every packet: every burst the receiver sees from a
	// single hold is one packet, but bursts can chain across holds while
	// the node keeps listening; the mean must still be far below the
	// capture variant's analytic burst length at the same sigma.
	if m.BurstLengths.N() > 0 && m.BurstLengths.Mean() > 8 {
		t.Fatalf("NC burst length %v suspiciously high", m.BurstLengths.Mean())
	}
}

// Noisy listener estimates must not crash and should not increase
// throughput beyond the perfect-estimate run.
func TestEstimateNoiseAblation(t *testing.T) {
	perfect := baseCfg()
	perfect.Duration = 2000
	perfect.Warmup = 500
	pm, err := Run(perfect)
	if err != nil {
		t.Fatal(err)
	}
	noisy := perfect
	noisy.EstimateListeners = func(actual int, src *rng.Source) int {
		// Each listener's ping is lost half the time.
		count := 0
		for k := 0; k < actual; k++ {
			if src.Bernoulli(0.5) {
				count++
			}
		}
		return count
	}
	nm, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Groupput <= 0 {
		t.Fatal("noisy run produced no throughput")
	}
	if nm.Groupput > pm.Groupput*1.15 {
		t.Fatalf("noise increased throughput: %v > %v", nm.Groupput, pm.Groupput)
	}
}

func TestHardBatteryFloor(t *testing.T) {
	c := baseCfg()
	c.HardBatteryFloor = true
	c.InitialBattery = 0
	c.Duration = 1500
	c.Warmup = 500
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range m.Battery {
		if b < 0 {
			t.Fatalf("node %d battery %v negative despite floor", i, b)
		}
	}
	if m.Groupput <= 0 {
		t.Fatal("floored run produced no throughput")
	}
}

func TestHeterogeneousBudgetsRespected(t *testing.T) {
	src := rng.New(9)
	nw := model.HeterogeneitySpec{N: 5, H: 100}.Sample(src)
	c := baseCfg()
	c.Network = nw
	c.Duration = 5000
	c.Warmup = 1500
	c.Protocol.Delta = 0.1
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Power {
		budget := nw.Nodes[i].Budget
		if p > budget*1.25 {
			t.Fatalf("node %d: power %v exceeds budget %v by >25%%", i, p, budget)
		}
	}
	_ = m
}

func BenchmarkSimSecond(b *testing.B) {
	c := baseCfg()
	c.Duration = float64(b.N)
	if c.Duration <= c.Warmup {
		c.Warmup = c.Duration / 2
	}
	if _, err := Run(c); err != nil {
		b.Fatal(err)
	}
}

// A time-varying harvesting profile with the same mean as the constant
// budget must yield comparable long-run throughput (§III-A's remark), as
// long as it varies slowly relative to the adaptation.
func TestTimeVaryingHarvest(t *testing.T) {
	c := baseCfg()
	c.Protocol.Delta = 0.1
	c.Duration = 6000
	c.Warmup = 2000
	// Square wave: 15 uW / 5 uW alternating every 200 s, mean 10 uW.
	c.Harvest = func(node int, tt float64) float64 {
		if int(tt/200)%2 == 0 {
			return 15 * model.MicroWatt
		}
		return 5 * model.MicroWatt
	}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	cc := c
	cc.Harvest = nil
	ref, err := Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput <= 0 {
		t.Fatal("no throughput under varying harvest")
	}
	if rel := math.Abs(m.Groupput-ref.Groupput) / ref.Groupput; rel > 0.35 {
		t.Fatalf("varying-harvest groupput %v vs constant %v (rel %.2f)",
			m.Groupput, ref.Groupput, rel)
	}
}

// Appendix C proves detailed balance for both variants: EconCast-NC's
// boosted listen->transmit rate and unit release rate yield the *same*
// stationary distribution (19), hence the same throughput as EconCast-C at
// equal eta — even though its bursts are single packets.
func TestNonCaptureMatchesSameGibbsThroughput(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.Protocol.Variant = econcast.NonCapture
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 6000
	c.Warmup = 300
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.12 {
		t.Fatalf("NC groupput %v, Gibbs %v (rel %.3f)", m.Groupput, ref.Throughput, rel)
	}
	// But its holds are all single packets.
	if m.BurstLengths.N() > 0 && m.BurstLengths.Mean() != 1 {
		t.Fatalf("NC hold length %v, want exactly 1", m.BurstLengths.Mean())
	}
}

func TestEventLog(t *testing.T) {
	var buf strings.Builder
	c := baseCfg()
	c.Duration = 20
	c.Warmup = 1
	c.EventLog = &buf
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	if !strings.Contains(log, "sleep -> listen") {
		t.Fatalf("event log missing transitions:\n%.300s", log)
	}
	if !strings.Contains(log, "packet 1 of hold") {
		t.Fatalf("event log missing packets:\n%.300s", log)
	}
}

// State-level validation of Lemma 2: with frozen optimal multipliers, the
// time-weighted distribution over network states must match the Gibbs
// distribution (19), not just in its moments but state by state.
func TestOccupancyMatchesGibbsDistribution(t *testing.T) {
	nw := model.Homogeneous(3, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	const sigma = 0.5
	ref, err := statespace.SolveP4(nw, sigma, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(Config{
		Network:        nw,
		Protocol:       Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: sigma},
		Duration:       20000,
		Warmup:         500,
		Seed:           6,
		WarmEta:        ref.Eta,
		FreezeEta:      true,
		TrackOccupancy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Enumerate(nw)
	if err != nil {
		t.Fatal(err)
	}
	d := sp.Gibbs(ref.Eta, sigma, model.Groupput)
	// Total variation distance between empirical occupancy and pi.
	tv := 0.0
	total := 0.0
	for i := 0; i < sp.Len(); i++ {
		s := sp.State(i)
		emp := m.Occupancy[s]
		total += emp
		tv += math.Abs(emp - d.Pi(i))
	}
	tv /= 2
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("occupancy sums to %v", total)
	}
	if tv > 0.02 {
		t.Fatalf("total variation from Gibbs pi = %v, want < 0.02", tv)
	}
}

func TestOccupancyRejectsLargeNetworks(t *testing.T) {
	nw := model.Homogeneous(25, 1e-5, 5e-4, 5e-4)
	_, err := Run(Config{
		Network:        nw,
		Protocol:       Protocol{Mode: model.Groupput, Sigma: 0.5},
		Duration:       10,
		TrackOccupancy: true,
	})
	if err == nil {
		t.Fatal("oversized occupancy tracking accepted")
	}
}

// Degenerate networks: a single node can never deliver anything; a pair
// behaves like the N=2 analysis.
func TestSingleNodeNetwork(t *testing.T) {
	c := baseCfg()
	c.Network = model.Homogeneous(1, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	c.Duration = 500
	c.Warmup = 100
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groupput != 0 || m.PacketsDelivered != 0 {
		t.Fatalf("single node delivered: %v / %d", m.Groupput, m.PacketsDelivered)
	}
	// It still spends energy probing (listen/transmit attempts).
	if m.PacketsSent == 0 {
		t.Fatal("single node never probed the channel")
	}
}

func TestTwoNodeMatchesAnalysis(t *testing.T) {
	nw := model.Homogeneous(2, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt)
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.Network = nw
	c.WarmEta = ref.Eta
	c.FreezeEta = true
	c.Duration = 6000
	c.Warmup = 300
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.15 {
		t.Fatalf("N=2 groupput %v vs analytic %v", m.Groupput, ref.Throughput)
	}
}

// Groupput accounting identity: Groupput * Window must equal
// PacketsDelivered * packetTime, and similarly for anyput.
func TestThroughputAccountingIdentity(t *testing.T) {
	c := baseCfg()
	c.Duration = 800
	c.Warmup = 100
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	wantG := float64(m.PacketsDelivered) * 1e-3 / m.Window
	if math.Abs(m.Groupput-wantG) > 1e-9 {
		t.Fatalf("groupput %v != delivered*pkt/window %v", m.Groupput, wantG)
	}
	wantA := float64(m.PacketsAnyDeliver) * 1e-3 / m.Window
	if math.Abs(m.Anyput-wantA) > 1e-9 {
		t.Fatalf("anyput %v != any*pkt/window %v", m.Anyput, wantA)
	}
	if m.PacketsDelivered < m.PacketsAnyDeliver {
		t.Fatal("delivered < any-delivered")
	}
}

// A custom packet time must leave normalized throughput roughly invariant
// (rates scale with 1/packetTime by construction).
func TestPacketTimeInvariance(t *testing.T) {
	nw := net5()
	ref, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range []float64{1e-3, 10e-3} {
		c := baseCfg()
		c.Protocol.PacketTime = pkt
		c.WarmEta = ref.Eta
		c.FreezeEta = true
		// The estimator's correlation time scales with the packet time
		// (holds last whole packets), so the window scales with it too —
		// otherwise the 10ms case sees ~1/10 the effective samples and its
		// spread blows past the tolerance.
		c.Duration = 6000 * (pkt / 1e-3)
		if c.Duration < 6000 {
			c.Duration = 6000
		}
		c.Warmup = 300
		m, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.Groupput-ref.Throughput) / ref.Throughput; rel > 0.15 {
			t.Fatalf("packet=%v: groupput %v vs analytic %v", pkt, m.Groupput, ref.Throughput)
		}
	}
}

// Churn: two of five nodes vanish mid-run and return later. The protocol
// has no membership knowledge, so the survivors' multipliers re-converge
// on their own and throughput recovers after the rejoin.
func TestChurnAdaptation(t *testing.T) {
	nw := net5()
	const (
		leave  = 2000.0
		rejoin = 4000.0
	)
	active := func(node int, tt float64) bool {
		if node >= 3 { // nodes 3 and 4 depart for [leave, rejoin)
			return tt < leave || tt >= rejoin
		}
		return true
	}
	// Throughput of the middle epoch should approach the 3-node analysis;
	// the final epoch the 5-node one.
	ref3, err := statespace.SolveP4(model.Homogeneous(3, 10*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt), 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref5, err := statespace.SolveP4(nw, 0.5, model.Groupput, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(duration, warmup float64) float64 {
		c := baseCfg()
		c.Protocol.Delta = 0.2
		c.Duration = duration
		c.Warmup = warmup
		c.Churn = active
		m, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return m.Groupput
	}
	// Middle epoch (measured 3000-4000): only 3 nodes alive.
	mid := run(4000, 3000)
	if rel := math.Abs(mid-ref3.Throughput) / ref3.Throughput; rel > 0.5 {
		t.Fatalf("mid-epoch groupput %v, 3-node analytic %v", mid, ref3.Throughput)
	}
	if mid >= ref5.Throughput {
		t.Fatalf("mid-epoch %v not reduced below 5-node level %v", mid, ref5.Throughput)
	}
	// Recovery epoch (measured 7000-10000): all 5 back.
	post := run(10000, 7000)
	if rel := math.Abs(post-ref5.Throughput) / ref5.Throughput; rel > 0.35 {
		t.Fatalf("post-rejoin groupput %v, 5-node analytic %v", post, ref5.Throughput)
	}
	if post <= mid {
		t.Fatalf("throughput did not recover after rejoin: %v <= %v", post, mid)
	}
}
