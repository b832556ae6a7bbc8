// Package faults is the repository's unified fault-injection layer: a
// deterministic, seed-derived library of fault processes shared by all
// three execution substrates (internal/sim, internal/asim,
// internal/testbed). The paper's eZ430-RF2500-SEH testbed exhibits
// exactly these imperfections — nodes die and restart, harvested energy
// browns out, low-power sleep clocks drift, packets and pings are lost,
// radios get stuck — and EconCast's claim is that the rates adapt through
// all of them without any membership protocol.
//
// Every process is compiled up front into explicit schedules (sorted
// time windows per node) by Compile, driven exclusively by
// rng.DeriveSeed streams keyed on (seed, process, node). Two
// consequences follow:
//
//   - Reproducibility: the same (Config, n, horizon, seed) yields a
//     byte-identical fault trace on every substrate and at any sweep
//     worker count. The substrates merely *realize* the shared trace
//     (sim as queue events, asim as goroutine deaths, testbed as heap
//     events), so cross-substrate experiments see the same faults.
//
//   - Allocation-free queries: a compiled Set answers Alive/Silenced/
//     HarvestScale/DropRx with a binary search over precomputed window
//     boundaries, so the simulators' event loops stay 0 allocs/op
//     (econlint's hotalloc analyzer pins the query tree).
//
// A nil *Set is the fault-free case: every query method is nil-safe and
// returns the benign default, so engines carry one pointer and no
// branches multiply through their hot paths.
package faults

import (
	"errors"
	"math"
	"sort"

	"econcast/internal/rng"
)

// Config aggregates the fault processes of one run. A nil *Config (or
// one with all process pointers nil) compiles to a nil *Set, meaning
// fault-free operation.
type Config struct {
	Crash    *Crash
	Loss     *Loss
	Drift    *Drift
	Brownout *Brownout
	Silence  *Silence
}

// Crash models node crash/restart churn. Both mechanisms may be
// combined; overlapping outages are coalesced.
type Crash struct {
	// Kill deterministically crashes the listed nodes at KillAt with no
	// restart — the "kill half the clique" scenario.
	Kill   []int
	KillAt float64

	// MeanUp > 0 additionally gives every node stochastic churn:
	// alternating alive intervals (exponential, mean MeanUp seconds) and
	// dead intervals (exponential, mean MeanDown). MeanDown == 0 makes
	// the first stochastic crash permanent.
	MeanUp   float64
	MeanDown float64
}

// Loss models packet reception loss on the receiver side. P alone gives
// i.i.d. loss; setting MeanGood and MeanBad overlays a Gilbert–Elliott
// burst process: each receiver alternates good states (loss probability
// P) and bad states (loss probability PBad, default 1) with exponential
// dwell times.
type Loss struct {
	P        float64 // loss probability in the good state
	MeanGood float64 // mean good-state dwell (s); with MeanBad, enables bursts
	MeanBad  float64 // mean bad-state dwell (s)
	PBad     float64 // loss probability in the bad state (default 1)
}

// Drift gives each node a fixed low-power sleep-clock scale factor drawn
// uniformly from [1-Max, 1+Max], the testbed's §VIII imperfection.
type Drift struct {
	Max float64 // maximum relative clock error, e.g. 0.01 for 1%
}

// Brownout models energy-harvesting outages: each node's harvest is
// scaled by Scale (default 0, a full outage) during windows that recur
// with exponential spacing MeanEvery and exponential duration MeanFor.
type Brownout struct {
	MeanEvery float64 // mean seconds between window starts
	MeanFor   float64 // mean window duration (s)
	Scale     float64 // harvest multiplier inside a window (default 0)
}

// Silence models a stuck radio: during its windows a node transmits
// carrier and spends energy as usual but delivers nothing — the "silent
// node" fault, invisible to the node itself.
type Silence struct {
	MeanEvery float64 // mean seconds between window starts
	MeanFor   float64 // mean window duration (s)
}

// active reports whether the configuration injects anything at all.
func (c *Config) active() bool {
	if c == nil {
		return false
	}
	return c.Crash != nil || c.Loss != nil || c.Drift != nil ||
		c.Brownout != nil || c.Silence != nil
}

// Kind labels one fault-trace event.
type Kind uint8

// Trace event kinds, in trace sort order for equal times.
const (
	CrashDown Kind = iota
	CrashUp
	BrownoutStart
	BrownoutEnd
	SilenceStart
	SilenceEnd
)

func (k Kind) String() string {
	switch k {
	case CrashDown:
		return "crash-down"
	case CrashUp:
		return "crash-up"
	case BrownoutStart:
		return "brownout-start"
	case BrownoutEnd:
		return "brownout-end"
	case SilenceStart:
		return "silence-start"
	case SilenceEnd:
		return "silence-end"
	}
	return "fault"
}

// Event is one materialized fault-schedule boundary. The full sorted
// event list is the run's fault trace: byte-identical across substrates
// and worker counts for the same (Config, n, horizon, seed).
type Event struct {
	At   float64
	Node int
	Kind Kind
}

// seed-derivation domains: every process draws from its own
// rng.DeriveSeed(seed, faultDomain, process, node) stream, so adding a
// process never shifts another's schedule.
const (
	faultDomain = 0xfa17 // namespace separating fault streams from run streams

	procCrash uint64 = iota
	procLoss
	procDrift
	procBrownout
	procSilence
	procLossDraw
)

// Set is a compiled fault schedule for one run: per-node window
// boundary lists plus per-receiver loss streams. All schedules are
// immutable after Compile; the loss streams advance on DropRx and make
// a Set single-goroutine property of whichever engine owns it (econlint's
// sharedstate analyzer enforces that a *Set never crosses goroutines —
// hand goroutines a NodeView instead).
//
//lint:owner goroutine loss streams advance on DropRx; hand goroutines a NodeView
type Set struct {
	n       int
	horizon float64

	down    [][]float64 // crash outages per node (paired boundaries)
	brown   [][]float64 // brownout windows per node
	silent  [][]float64 // stuck-radio windows per node
	badLoss [][]float64 // Gilbert–Elliott bad-state windows per receiver

	drift      []float64     // per-node clock scale factor (1 = exact)
	lossSrc    []*rng.Source // per-receiver reception-loss streams
	lossP      float64       // good-state loss probability
	lossPBad   float64       // bad-state loss probability
	brownScale float64       // harvest multiplier inside a brownout
	hasLoss    bool
}

// Compile materializes cfg into a Set for n nodes over [0, horizon].
// The fault streams are derived from seed by splitmix mixing, entirely
// separate from the run's own randomness, so enabling a fault process
// never perturbs the protocol's draws. A nil or empty cfg returns nil
// (the nil-safe fault-free Set).
func Compile(cfg *Config, n int, horizon float64, seed uint64) (*Set, error) {
	if !cfg.active() {
		return nil, nil
	}
	if n <= 0 || !(horizon > 0) {
		return nil, errors.New("faults: need n > 0 and horizon > 0")
	}
	s := &Set{
		n:       n,
		horizon: horizon,
		down:    make([][]float64, n),
		brown:   make([][]float64, n),
		silent:  make([][]float64, n),
		badLoss: make([][]float64, n),
		drift:   make([]float64, n),
	}
	for i := range s.drift {
		s.drift[i] = 1
	}
	if c := cfg.Crash; c != nil {
		if err := c.validate(n); err != nil {
			return nil, err
		}
		if c.MeanUp > 0 && !densityOK(c.MeanUp, c.MeanDown, horizon) {
			return nil, errTooDense
		}
		for i := 0; i < n; i++ {
			var w []float64
			if c.MeanUp > 0 {
				src := rng.New(rng.DeriveSeed(seed, faultDomain, procCrash, uint64(i)))
				w = alternating(src, c.MeanUp, c.MeanDown, horizon)
			}
			s.down[i] = w
		}
		for _, i := range c.Kill {
			s.down[i] = coalesce(append(s.down[i], c.KillAt, horizon))
		}
	}
	if b := cfg.Brownout; b != nil {
		if !meanOK(b.MeanEvery) || !meanOK(b.MeanFor) {
			return nil, errors.New("faults: brownout needs finite MeanEvery > 0 and MeanFor > 0")
		}
		if !(b.Scale >= 0 && b.Scale < 1) {
			return nil, errors.New("faults: brownout Scale must be in [0, 1)")
		}
		if !densityOK(b.MeanEvery, b.MeanFor, horizon) {
			return nil, errTooDense
		}
		s.brownScale = b.Scale
		for i := 0; i < n; i++ {
			src := rng.New(rng.DeriveSeed(seed, faultDomain, procBrownout, uint64(i)))
			s.brown[i] = recurring(src, b.MeanEvery, b.MeanFor, horizon)
		}
	}
	if sl := cfg.Silence; sl != nil {
		if !meanOK(sl.MeanEvery) || !meanOK(sl.MeanFor) {
			return nil, errors.New("faults: silence needs finite MeanEvery > 0 and MeanFor > 0")
		}
		if !densityOK(sl.MeanEvery, sl.MeanFor, horizon) {
			return nil, errTooDense
		}
		for i := 0; i < n; i++ {
			src := rng.New(rng.DeriveSeed(seed, faultDomain, procSilence, uint64(i)))
			s.silent[i] = recurring(src, sl.MeanEvery, sl.MeanFor, horizon)
		}
	}
	if l := cfg.Loss; l != nil {
		if !(l.P >= 0 && l.P <= 1) || !(l.PBad >= 0 && l.PBad <= 1) {
			return nil, errors.New("faults: loss probabilities must be in [0, 1]")
		}
		if !meanOrUnset(l.MeanGood) || !meanOrUnset(l.MeanBad) {
			return nil, errors.New("faults: burst loss means must be finite and >= 0")
		}
		if (l.MeanGood > 0) != (l.MeanBad > 0) {
			return nil, errors.New("faults: burst loss needs both MeanGood and MeanBad")
		}
		if l.MeanGood > 0 && !densityOK(l.MeanGood, l.MeanBad, horizon) {
			return nil, errTooDense
		}
		s.hasLoss = true
		s.lossP = l.P
		s.lossPBad = l.PBad
		if s.lossPBad == 0 { //lint:allow floateq zero is the explicit unset sentinel, not a computed value
			s.lossPBad = 1
		}
		s.lossSrc = make([]*rng.Source, n)
		for i := 0; i < n; i++ {
			s.lossSrc[i] = rng.New(rng.DeriveSeed(seed, faultDomain, procLossDraw, uint64(i)))
			if l.MeanGood > 0 {
				src := rng.New(rng.DeriveSeed(seed, faultDomain, procLoss, uint64(i)))
				s.badLoss[i] = recurring(src, l.MeanGood, l.MeanBad, horizon)
			}
		}
	}
	if d := cfg.Drift; d != nil {
		if !(d.Max >= 0 && d.Max < 1) {
			return nil, errors.New("faults: drift Max must be in [0, 1)")
		}
		for i := 0; i < n; i++ {
			src := rng.New(rng.DeriveSeed(seed, faultDomain, procDrift, uint64(i)))
			s.drift[i] = 1 + src.Uniform(-d.Max, d.Max)
		}
	}
	return s, nil
}

func (c *Crash) validate(n int) error {
	for _, i := range c.Kill {
		if i < 0 || i >= n {
			return errors.New("faults: crash Kill index out of range")
		}
	}
	if len(c.Kill) > 0 && !(c.KillAt >= 0) {
		return errors.New("faults: crash KillAt must be >= 0")
	}
	if !meanOrUnset(c.MeanUp) || !meanOrUnset(c.MeanDown) {
		return errors.New("faults: crash MeanUp/MeanDown must be finite and >= 0")
	}
	if c.MeanUp == 0 && c.MeanDown > 0 { //lint:allow floateq zero is the explicit unset sentinel, not a computed value
		return errors.New("faults: crash MeanDown without MeanUp")
	}
	return nil
}

// meanOK reports whether x can be the mean of an exponential dwell:
// positive and finite (rng.Exp panics on the zero rate of an infinite
// mean, and NaN compares false everywhere).
func meanOK(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// meanOrUnset is meanOK or the unset zero.
func meanOrUnset(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// maxWindowsPerNode bounds the number of windows any recurring process
// may materialize per node. Schedules are compiled eagerly over the full
// horizon; without the bound, a pathological (horizon, MeanEvery) pair —
// say an effectively-infinite benchmark horizon with second-scale
// recurrence — would spin Compile forever instead of failing fast.
const maxWindowsPerNode = 1 << 22

func densityOK(every, dur, horizon float64) bool {
	return horizon/(every+dur) <= maxWindowsPerNode
}

var errTooDense = errors.New("faults: recurring schedule too dense for the horizon (mean cycle * 2^22 < horizon)")

// recurring draws windows with exponential spacing (mean every) and
// exponential duration (mean dur), clipped to [0, horizon].
func recurring(src *rng.Source, every, dur, horizon float64) []float64 {
	var w []float64
	t := src.Exp(1 / every)
	for t < horizon {
		end := t + src.Exp(1/dur)
		if end > horizon {
			end = horizon
		}
		w = append(w, t, end)
		if end >= horizon {
			break
		}
		t = end + src.Exp(1/every)
	}
	return w
}

// alternating draws crash/restart churn: alive (mean up), then down
// (mean down, or permanent when down == 0), repeating to the horizon.
func alternating(src *rng.Source, up, down, horizon float64) []float64 {
	var w []float64
	t := src.Exp(1 / up)
	for t < horizon {
		if down <= 0 {
			return append(w, t, horizon) // permanent crash
		}
		end := t + src.Exp(1/down)
		if end > horizon {
			end = horizon
		}
		w = append(w, t, end)
		if end >= horizon {
			break
		}
		t = end + src.Exp(1/up)
	}
	return w
}

// coalesce sorts paired window boundaries and merges overlaps, keeping
// the alternating start/end invariant the queries depend on.
func coalesce(w []float64) []float64 {
	if len(w) <= 2 {
		return w
	}
	type iv struct{ from, to float64 }
	ivs := make([]iv, 0, len(w)/2)
	for i := 0; i+1 < len(w); i += 2 {
		ivs = append(ivs, iv{w[i], w[i+1]})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	out := w[:0]
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.from <= cur.to {
			if v.to > cur.to {
				cur.to = v.to
			}
			continue
		}
		out = append(out, cur.from, cur.to)
		cur = v
	}
	return append(out, cur.from, cur.to)
}

// inWindows reports whether t lies inside one of the [start, end)
// windows encoded as alternating sorted boundaries. Hand-rolled binary
// search: the queries run once per simulator event and must not allocate
// (sort.Search's closure would).
func inWindows(b []float64, t float64) bool {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo&1 == 1
}

// N returns the node count the Set was compiled for (0 for nil).
func (s *Set) N() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Alive reports whether node i is up at time t. Nil-safe: a nil Set is
// always alive.
func (s *Set) Alive(i int, t float64) bool {
	if s == nil {
		return true
	}
	return !inWindows(s.down[i], t)
}

// Silenced reports whether node i's radio is stuck at time t: it
// transmits but delivers nothing.
func (s *Set) Silenced(i int, t float64) bool {
	if s == nil {
		return false
	}
	return inWindows(s.silent[i], t)
}

// HarvestScale returns the factor applied to node i's harvesting rate
// at time t: 1 normally, the brownout scale inside an outage window.
func (s *Set) HarvestScale(i int, t float64) float64 {
	if s == nil {
		return 1
	}
	if inWindows(s.brown[i], t) {
		return s.brownScale
	}
	return 1
}

// Drift returns node i's sleep-clock scale factor (1 = exact clock).
func (s *Set) Drift(i int) float64 {
	if s == nil {
		return 1
	}
	return s.drift[i]
}

// DropRx reports whether a reception by node rx at time t is lost to
// the loss process, advancing rx's dedicated loss stream. Callers must
// invoke it once per (attempted) reception in event order; the draw
// order — hence the realized loss pattern — is then reproducible for a
// fixed seed. Not safe for concurrent use: the owning engine's event
// loop is the only sanctioned caller.
func (s *Set) DropRx(rx int, t float64) bool {
	if s == nil || !s.hasLoss {
		return false
	}
	p := s.lossP
	if inWindows(s.badLoss[rx], t) {
		p = s.lossPBad
	}
	return s.lossSrc[rx].Bernoulli(p)
}

// FirstCrash returns the start of node i's first outage window, or +Inf
// if the node never crashes.
func (s *Set) FirstCrash(i int) float64 {
	if s == nil || len(s.down[i]) == 0 {
		return math.Inf(1)
	}
	return s.down[i][0]
}

// HasRestart reports whether any node's outage ends before the horizon
// — i.e. the schedule contains a restart. internal/asim realizes a
// crash as goroutine death, which is permanent; it rejects restarting
// schedules so the shared trace is never silently reinterpreted.
func (s *Set) HasRestart() bool {
	if s == nil {
		return false
	}
	for _, w := range s.down {
		for i := 1; i < len(w); i += 2 {
			if w[i] < s.horizon {
				return true
			}
		}
	}
	return false
}

// Trace returns the full materialized fault schedule as events sorted
// by (time, node, kind): the run's fault trace. Loss draws and drift
// factors are not events (loss is a per-reception draw, drift a
// constant); the trace covers the window processes. Nil-safe.
func (s *Set) Trace() []Event {
	if s == nil {
		return nil
	}
	var ev []Event
	add := func(windows [][]float64, start, end Kind) {
		for i, w := range windows {
			for k := 0; k+1 < len(w); k += 2 {
				ev = append(ev, Event{At: w[k], Node: i, Kind: start})
				if w[k+1] < s.horizon {
					ev = append(ev, Event{At: w[k+1], Node: i, Kind: end})
				}
			}
		}
	}
	add(s.down, CrashDown, CrashUp)
	add(s.brown, BrownoutStart, BrownoutEnd)
	add(s.silent, SilenceStart, SilenceEnd)
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].At != ev[j].At { //lint:allow floateq exact tie detection so equal-time events fall through to the node/kind tiebreak
			return ev[i].At < ev[j].At
		}
		if ev[i].Node != ev[j].Node {
			return ev[i].Node < ev[j].Node
		}
		return ev[i].Kind < ev[j].Kind
	})
	return ev
}

// Boundaries calls fn for every schedule boundary of node i that an
// engine should realize as an event: crash downs/ups, brownout edges,
// and silence edges. Engines push these once at start-up, so their hot
// loops stay untouched when faults are disabled. Nil-safe.
func (s *Set) Boundaries(i int, fn func(at float64)) {
	if s == nil {
		return
	}
	for _, w := range [][]float64{s.down[i], s.brown[i], s.silent[i]} {
		for _, t := range w {
			if t < s.horizon {
				fn(t)
			}
		}
	}
}

// NodeView is the read-only, goroutine-local projection of a Set for
// one node: everything a node-side runtime (asim's firmware goroutines)
// needs, with no mutable shared state. The windows slice is immutable
// after Compile, so handing a NodeView across a goroutine boundary is
// the sanctioned pattern — handing the *Set itself is flagged by
// econlint's sharedstate analyzer.
type NodeView struct {
	DriftFactor float64 // sleep-clock scale
	CrashAt     float64 // first outage start (+Inf if none)

	brown      []float64
	brownScale float64
}

// View returns node i's NodeView. Nil-safe: the zero-fault view.
func (s *Set) View(i int) NodeView {
	if s == nil {
		return NodeView{DriftFactor: 1, CrashAt: math.Inf(1)}
	}
	return NodeView{
		DriftFactor: s.drift[i],
		CrashAt:     s.FirstCrash(i),
		brown:       s.brown[i],
		brownScale:  s.brownScale,
	}
}

// HasBrownout reports whether the node has any brownout windows, so
// engines can skip installing a harvest wrapper entirely when there is
// nothing to scale.
func (v NodeView) HasBrownout() bool { return len(v.brown) > 0 }

// HarvestScale is the NodeView form of Set.HarvestScale.
func (v NodeView) HarvestScale(t float64) float64 {
	if inWindows(v.brown, t) {
		return v.brownScale
	}
	return 1
}
