package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Dim is a physical dimension as a vector of base-unit exponents:
// energy (Joules), time (seconds), simulator multiplier intervals
// (ticks), and packets. Derived units are exponent combinations —
// W = J·s⁻¹, 1/W = J⁻¹·s, pkt/s = pkt·s⁻¹. The zero Dim is
// dimensionless and is never stored in the registry; dimensionless
// quantities are tracked as scalars by the unitflow lattice instead.
type Dim struct {
	J    int8
	S    int8
	Tick int8
	Pkt  int8
}

// Mul returns the dimension of a product.
func (d Dim) Mul(o Dim) Dim {
	return Dim{d.J + o.J, d.S + o.S, d.Tick + o.Tick, d.Pkt + o.Pkt}
}

// Div returns the dimension of a quotient.
func (d Dim) Div(o Dim) Dim {
	return Dim{d.J - o.J, d.S - o.S, d.Tick - o.Tick, d.Pkt - o.Pkt}
}

// IsZero reports whether d is dimensionless.
func (d Dim) IsZero() bool { return d == Dim{} }

// dimNames maps common derived dimensions back to their registry
// spelling so findings read "W", not "J/s".
var dimNames = map[Dim]string{
	{J: 1}:          "J",
	{S: 1}:          "s",
	{Tick: 1}:       "tick",
	{Pkt: 1}:        "pkt",
	{J: 1, S: -1}:   "W",
	{J: -1, S: 1}:   "1/W",
	{Pkt: 1, S: -1}: "pkt/s",
}

// String renders d in registry notation: named derived units where
// known, otherwise a·b/c·d form with ^n exponents.
func (d Dim) String() string {
	if name, ok := dimNames[d]; ok {
		return name
	}
	if d.IsZero() {
		return "1"
	}
	bases := []struct {
		name string
		exp  int8
	}{{"J", d.J}, {"s", d.S}, {"tick", d.Tick}, {"pkt", d.Pkt}}
	var num, den []string
	for _, b := range bases {
		switch {
		case b.exp > 0:
			num = append(num, expTok(b.name, b.exp))
		case b.exp < 0:
			den = append(den, expTok(b.name, -b.exp))
		}
	}
	if len(num) == 0 {
		num = []string{"1"}
	}
	s := strings.Join(num, "·")
	if len(den) > 0 {
		s += "/" + strings.Join(den, "·")
	}
	return s
}

func expTok(name string, exp int8) string {
	if exp == 1 {
		return name
	}
	return fmt.Sprintf("%s^%d", name, exp)
}

// baseDims are the tokens parseDim accepts.
var baseDims = map[string]Dim{
	"J":    {J: 1},
	"s":    {S: 1},
	"tick": {Tick: 1},
	"pkt":  {Pkt: 1},
	"W":    {J: 1, S: -1},
}

// parseDim parses registry notation: base or named tokens joined by
// "·" or "*", with at most one "/" separating numerator from
// denominator ("W", "1/W", "pkt/s", "J·s").
func parseDim(s string) (Dim, error) {
	var d Dim
	num, den, _ := strings.Cut(s, "/")
	parse := func(part string, sign int8) error {
		for _, tok := range strings.FieldsFunc(part, func(r rune) bool { return r == '·' || r == '*' }) {
			tok = strings.TrimSpace(tok)
			if tok == "1" || tok == "" {
				continue
			}
			b, ok := baseDims[tok]
			if !ok {
				return fmt.Errorf("lint: unknown dimension token %q in %q", tok, s)
			}
			d = d.Mul(Dim{b.J * sign, b.S * sign, b.Tick * sign, b.Pkt * sign})
		}
		return nil
	}
	if err := parse(num, 1); err != nil {
		return d, err
	}
	if err := parse(den, -1); err != nil {
		return d, err
	}
	if d.IsZero() {
		return d, fmt.Errorf("lint: dimensionless registry entry %q", s)
	}
	return d, nil
}

// unitRegistry is the declarative seed of the unitflow analyzer: the
// physically-typed declarations of the model and its substrates, keyed
//
//	pkgpath.Name             package-level const or var
//	pkgpath.Type.Field       struct field (slices apply elementwise)
//	pkgpath.Func.param       function parameter, by name
//	pkgpath.Func.result      (sole) function result
//	pkgpath.Recv.Method.*    likewise for methods
//
// Everything not registered is unknown, and unknown never flags:
// unitflow only reports when two *known, different* dimensions meet.
// Dimensionless scale factors (sigma, delta, alpha/beta fractions,
// drift) are deliberately absent — scalars combine freely.
var unitRegistry = map[string]string{
	// model: per-node hardware parameters (paper §II: rho_i, L_i, X_i).
	"econcast/internal/model.Watt":                       "W",
	"econcast/internal/model.MilliWatt":                  "W",
	"econcast/internal/model.MicroWatt":                  "W",
	"econcast/internal/model.Node.Budget":                "W",
	"econcast/internal/model.Node.ListenPower":           "W",
	"econcast/internal/model.Node.TransmitPower":         "W",
	"econcast/internal/model.Node.Power.result":          "W",
	"econcast/internal/model.Homogeneous.rho":            "W",
	"econcast/internal/model.Homogeneous.listen":         "W",
	"econcast/internal/model.Homogeneous.transmit":       "W",
	"econcast/internal/model.NetState.Throughput.result": "pkt/s",

	// sim: wall-clock quantities are seconds; multiplier intervals are
	// ticks and must cross through Protocol.TicksToSeconds /
	// SecondsToTicks.
	"econcast/internal/sim.Protocol.Tau":                   "s",
	"econcast/internal/sim.Protocol.PacketTime":            "s",
	"econcast/internal/sim.Protocol.TicksToSeconds.ticks":  "tick",
	"econcast/internal/sim.Protocol.TicksToSeconds.result": "s",
	"econcast/internal/sim.Protocol.SecondsToTicks.t":      "s",
	"econcast/internal/sim.Protocol.SecondsToTicks.result": "tick",
	"econcast/internal/sim.Config.Duration":                "s",
	"econcast/internal/sim.Config.Warmup":                  "s",
	"econcast/internal/sim.Config.InitialBattery":          "J",
	"econcast/internal/sim.Config.WarmEta":                 "1/W",
	"econcast/internal/sim.Metrics.Window":                 "s",
	"econcast/internal/sim.Metrics.Power":                  "W",
	"econcast/internal/sim.Metrics.EtaFinal":               "1/W",
	"econcast/internal/sim.Metrics.Battery":                "J",
	"econcast/internal/sim.Metrics.PacketsSent":            "pkt",
	"econcast/internal/sim.Metrics.PacketsDelivered":       "pkt",
	"econcast/internal/sim.Metrics.PacketsAnyDeliver":      "pkt",
	"econcast/internal/sim.Metrics.CollidedReceptions":     "pkt",
	"econcast/internal/sim.Metrics.LostReceptions":         "pkt",
	"econcast/internal/sim.event.at":                       "s",
	"econcast/internal/sim.nodeHot.lastUpdate":             "s",
	"econcast/internal/sim.nodeHot.lastBurstEnd":           "s",
	"econcast/internal/sim.coordinator.tau":                "s",
	"econcast/internal/sim.coordinator.horizon":            "s",
	"econcast/internal/sim.coordinator.packetTime":         "s",
	"econcast/internal/sim.coordinator.occLast":            "s",
	"econcast/internal/sim.coordinator.active.t":           "s",

	// sim: the dispatch clock and the time arguments of the handlers.
	"econcast/internal/sim.coordinator.now":                   "s",
	"econcast/internal/sim.coordinator.accrueOccupancy.until": "s",

	// statespace: analytical counterparts of the sim outputs.
	"econcast/internal/statespace.P4Result.Throughput":          "pkt/s",
	"econcast/internal/statespace.P4Result.Eta":                 "1/W",
	"econcast/internal/statespace.P4Result.Consumption":         "W",
	"econcast/internal/statespace.Dist.PowerConsumption.result": "W",

	// oracle: upper-bound solutions, in the same normalized units.
	"econcast/internal/oracle.Solution.Throughput": "pkt/s",

	// faults: every schedule boundary and dwell time is in simulated
	// seconds.
	"econcast/internal/faults.Crash.KillAt":            "s",
	"econcast/internal/faults.Crash.MeanUp":            "s",
	"econcast/internal/faults.Crash.MeanDown":          "s",
	"econcast/internal/faults.Loss.MeanGood":           "s",
	"econcast/internal/faults.Loss.MeanBad":            "s",
	"econcast/internal/faults.Brownout.MeanEvery":      "s",
	"econcast/internal/faults.Brownout.MeanFor":        "s",
	"econcast/internal/faults.Silence.MeanEvery":       "s",
	"econcast/internal/faults.Silence.MeanFor":         "s",
	"econcast/internal/faults.Event.At":                "s",
	"econcast/internal/faults.Compile.horizon":         "s",
	"econcast/internal/faults.Set.Alive.t":             "s",
	"econcast/internal/faults.Set.Silenced.t":          "s",
	"econcast/internal/faults.Set.HarvestScale.t":      "s",
	"econcast/internal/faults.Set.DropRx.t":            "s",
	"econcast/internal/faults.Set.FirstCrash.result":   "s",
	"econcast/internal/faults.NodeView.CrashAt":        "s",
	"econcast/internal/faults.NodeView.HarvestScale.t": "s",
	"econcast/internal/faults.recurring.every":         "s",
	"econcast/internal/faults.recurring.dur":           "s",
	"econcast/internal/faults.recurring.horizon":       "s",
	"econcast/internal/faults.alternating.up":          "s",
	"econcast/internal/faults.alternating.down":        "s",
	"econcast/internal/faults.alternating.horizon":     "s",
	"econcast/internal/faults.inWindows.t":             "s",
	"econcast/internal/faults.densityOK.every":         "s",
	"econcast/internal/faults.densityOK.dur":           "s",
	"econcast/internal/faults.densityOK.horizon":       "s",
}

// parsedUnits is unitRegistry with the dimension strings parsed once.
var parsedUnits = func() map[string]Dim {
	m := make(map[string]Dim, len(unitRegistry))
	keys := make([]string, 0, len(unitRegistry))
	for k := range unitRegistry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d, err := parseDim(unitRegistry[k])
		if err != nil {
			panic(err)
		}
		m[k] = d
	}
	return m
}()
