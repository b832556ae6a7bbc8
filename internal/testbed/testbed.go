// Package testbed emulates the paper's §VIII experimental platform, the TI
// eZ430-RF2500-SEH energy-harvesting node, substituting for the physical
// hardware we do not have. It reproduces the properties the paper says
// drive the experimental results:
//
//   - the measured power levels (L = 67.08 mW listening, X = 56.29 mW
//     transmitting at -16 dBm) and budgets rho of 1 or 5 mW;
//   - the CC2500 radio timing: 40 ms data packets, a fixed 8 ms pinging
//     interval after every packet, and 0.4 ms pings sent by each successful
//     recipient at a uniformly random time in the interval (§VIII-C) — with
//     collisions and decode failures, so the transmitter's listener
//     estimate c-hat is imperfect (Table IV);
//   - a software virtual battery driving the eq. (17) multiplier update at
//     nominal power levels, while the real consumption additionally pays a
//     regulator/circuitry overhead, making actual power exceed rho by a few
//     percent exactly as measured in §VIII-B;
//   - per-node low-power-clock drift affecting sleep durations.
//
// Nodes run EconCast-C (the variant the paper implements). An observer
// node that only logs packets is implicit in the metrics.
package testbed

import (
	"errors"
	"fmt"
	"math"

	"econcast/internal/econcast"
	"econcast/internal/evq"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/stats"
)

// The paper's hardware and protocol constants (§VIII). They are typed,
// so arithmetic on them rounds as it would on float64 variables.
const (
	listenPower       float64 = 67.08 * model.MilliWatt // L, listening
	transmitPower     float64 = 56.29 * model.MilliWatt // X, transmitting at -16 dBm
	packetTime        float64 = 40e-3                   // data packet, seconds
	pingTime          float64 = 0.4e-3                  // one recipient's ping, seconds
	pingInterval      float64 = 8e-3                    // pinging interval after every packet, seconds
	tau               float64 = 50 * packetTime         // multiplier interval, seconds
	delta             float64 = 0.05                    // multiplier step
	regulatorOverhead float64 = 0.08                    // extra fraction of real power drawn while active
)

// Config describes one emulated experiment. The nodes run EconCast-C in
// groupput mode on the paper's hardware constants.
type Config struct {
	N      int
	Budget float64 // rho (default 1 mW)
	// Budgets optionally gives each node its own rho (length N),
	// overriding Budget — an extension beyond the paper's homogeneous
	// testbed.
	Budgets []float64
	Sigma   float64

	Duration float64
	Warmup   float64
	Seed     uint64

	// Faults optionally adds the shared fault processes (see
	// internal/faults): crash, brownout and silence windows are realized
	// as events. Sleep-clock drift and ping loss are fault processes too,
	// defaulting to the hardware's 1% drift and 2% decode failures; an
	// explicit Drift or Loss process replaces the default (Max: 0 gives
	// perfect clocks, P: 0 lossless pings). The testbed's Loss process
	// governs ping decodes (the paper's §VIII-C imperfection); 40 ms data
	// packets decode reliably.
	Faults *faults.Config

	// WarmEta warm-starts the multipliers (units 1/Watt).
	WarmEta []float64
}

// faultConfig is the run's fault-process config: Faults, with the
// hardware's drift and ping loss wherever Faults sets none.
func (c Config) faultConfig() *faults.Config {
	eff := &faults.Config{}
	if c.Faults != nil {
		*eff = *c.Faults
	}
	if eff.Drift == nil {
		eff.Drift = &faults.Drift{Max: 0.01}
	}
	if eff.Loss == nil {
		eff.Loss = &faults.Loss{P: 0.02}
	}
	return eff
}

func (c Config) validate() error {
	if c.N < 2 {
		return errors.New("testbed: need at least 2 nodes")
	}
	if c.Budgets != nil && len(c.Budgets) != c.N {
		return errors.New("testbed: Budgets length mismatch")
	}
	if !(c.Sigma > 0) {
		return errors.New("testbed: sigma must be positive")
	}
	if err := model.CheckHorizon(c.Duration, c.Warmup); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	return nil
}

// Metrics are the outputs of an emulated experiment, matching the
// quantities reported in Fig. 7 and Tables III-IV.
type Metrics struct {
	Window   float64
	Groupput float64 // normalized as in the analysis (per-receiver fraction)

	PacketsSent      int
	PacketsDelivered int

	// Power is the per-node *actual* mean consumption over the window,
	// including the regulator overhead — the quantity the paper measures
	// with the charged-capacitor method of §VIII-B.
	Power []float64
	// VirtualPower is the consumption the virtual battery accounts
	// (nominal power levels, no overhead).
	VirtualPower []float64

	// PingCounts is the distribution of decoded pings (estimated
	// listeners) per data packet — Table IV.
	PingCounts stats.Counter

	LostPings int // ping decodes lost to the fault-layer loss process

	EtaFinal []float64 // units of 1/Watt

	// FaultTrace is the materialized fault schedule (crash, brownout and
	// silence windows; the default drift/ping-loss processes contribute
	// no events) — byte-identical to the other substrates' traces for
	// the same fault config and seed.
	FaultTrace []faults.Event `json:",omitempty"`
}

type nodeState struct {
	proto *econcast.Node
	state model.State
	drift float64 // sleep-clock scale factor
	last  float64 // last energy accrual time

	actual  float64 // real energy consumed (J), with overhead
	virtual float64 // nominal energy consumed (J)
}

// engine is the emulator's event loop. step merges three event sources
// in the (at, seq) order of internal/evq:
//
//   - pending, the indexed heap of each node's one pending event: its
//     next transition while it sleeps or listens; while it transmits, its
//     packet end, or its ping end when pinging is set (the clique has one
//     transmitter at a time). A resample replaces the key in place and a
//     crash removes it, so no superseded event is ever dispatched;
//   - the tick cursor: every node ticks at tau, 2tau, ..., so tickNext
//     walks the nodes in ascending id at tickAt;
//   - the fault boundaries, sorted once by start and read at faultNext.
//
// Every event takes its key from one run-wide counter when it is
// scheduled (see nextSeq): a tick when the node's previous tick runs, a
// fault boundary in start. So events at one instant run in the order
// they were scheduled: a crash at a multiple of tau after the first
// (KillAt 300) runs before that instant's ticks, which run in node order.
type engine struct {
	cfg   Config
	src   *rng.Source
	nodes []nodeState
	now   float64
	seq   uint64
	shift uint

	pending   evq.Heap
	pinging   bool
	tickAt    float64
	tickNext  int
	tickSeq   []uint64 // tickSeq[i] is the seq of node i's next tick
	faults    []evq.Key
	faultNext int

	transmitter int
	listeners   []int // receivers of the current packet

	// flt is the compiled fault schedule (never nil here: the default
	// drift and ping loss compile into it).
	flt *faults.Set

	met           Metrics
	measuring     bool
	actualAtWarm  []float64
	virtualAtWarm []float64
}

// Run executes the emulated experiment.
func Run(cfg Config) (*Metrics, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.finish(), nil
}

// newEngine validates cfg and builds its engine, ready to start.
func newEngine(cfg Config) (*engine, error) {
	cfg.Budget = model.DefaultIfZero(cfg.Budget, 1*model.MilliWatt)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flt, err := faults.Compile(cfg.faultConfig(), cfg.N, cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:         cfg,
		src:         rng.New(cfg.Seed),
		nodes:       make([]nodeState, cfg.N),
		shift:       evq.Shift(cfg.N),
		pending:     evq.NewHeap(cfg.N),
		tickSeq:     make([]uint64, cfg.N),
		transmitter: -1,
		flt:         flt,
	}
	for i := range e.nodes {
		budget := cfg.Budget
		if cfg.Budgets != nil {
			budget = cfg.Budgets[i]
		}
		pc := econcast.Config{
			Mode:          model.Groupput,
			Variant:       econcast.Capture,
			Sigma:         cfg.Sigma,
			Delta:         delta,
			Tau:           tau,
			Budget:        budget,
			ListenPower:   listenPower,
			TransmitPower: transmitPower,
			PacketTime:    packetTime,
		}
		// Brownouts scale this node's harvest inside their windows.
		if v := flt.View(i); v.HasBrownout() {
			b := budget
			pc.Harvest = func(t float64) float64 { return b * v.HarvestScale(t) }
		}
		e.nodes[i] = nodeState{
			proto: econcast.NewNode(pc),
			drift: flt.Drift(i),
		}
		if cfg.WarmEta != nil {
			p0 := math.Max(listenPower, transmitPower)
			e.nodes[i].proto.SetEta(cfg.WarmEta[i] * p0)
		}
	}
	return e, nil
}

// nextSeq returns the key of the event being scheduled for node i:
// seq = k<<shift | i, with k counting every key handed out in the run.
func (e *engine) nextSeq(i int) uint64 {
	e.seq++
	return e.seq<<e.shift | uint64(i)
}

// spend accrues dt seconds in the given nominal state for node i: the
// virtual battery sees nominal draw; the actual ledger adds the regulator
// overhead on any active (non-sleep) draw.
func (e *engine) spend(i int, dt float64, st model.State) {
	if dt <= 0 {
		return
	}
	ns := &e.nodes[i]
	ns.proto.Advance(dt, st)
	nominal := 0.0
	switch st {
	case model.Listen:
		nominal = listenPower
	case model.Transmit:
		nominal = transmitPower
	}
	ns.virtual += nominal * dt
	ns.actual += nominal * (1 + regulatorOverhead) * dt
	ns.last += dt
}

// accrue brings node i's ledgers up to now in its current protocol state.
func (e *engine) accrue(i int) {
	ns := &e.nodes[i]
	if dt := e.now - ns.last; dt > 0 {
		e.spend(i, dt, ns.state)
	}
}

func (e *engine) busyFor(i int) bool {
	return e.transmitter >= 0 && e.transmitter != i
}

// schedule replaces node i's pending event by a fresh transition, or
// cancels it when the node transmits, is down or has no way out of its
// state.
func (e *engine) schedule(i int) {
	ns := &e.nodes[i]
	var total float64
	if ns.state != model.Transmit && e.flt.Alive(i, e.now) {
		r := ns.proto.Rates(!e.busyFor(i), 0)
		switch ns.state {
		case model.Sleep:
			total = r.SleepToListen
		case model.Listen:
			total = r.ListenToSleep + r.ListenToTransmit
		}
	}
	if total <= 0 {
		e.pending.Remove(i)
		return
	}
	dt := e.src.Exp(total)
	if ns.state == model.Sleep {
		dt *= ns.drift // the low-power sleep clock drifts
	}
	e.pending.Set(i, e.now+dt, e.nextSeq(i))
}

// run drives the event loop to the horizon.
func (e *engine) run() {
	e.start()
	for e.step() {
	}
	e.drain()
}

// start seeds every node's first transition, first tick and fault
// boundaries, keyed in node order, and sorts the boundaries once.
func (e *engine) start() {
	e.tickAt = tau
	for i := range e.nodes {
		e.schedule(i)
		e.tickSeq[i] = e.nextSeq(i)
		node := i
		e.flt.Boundaries(i, func(at float64) {
			e.faults = append(e.faults, evq.Key{At: at, Seq: e.nextSeq(node)})
		})
	}
	evq.Sort(e.faults)
}

// source names the event source holding the earliest event.
type source uint8

const (
	fromTick source = iota
	fromPending
	fromFault
)

// head returns the earliest event key across the three sources and the
// source it comes from. The tick cursor always has a next tick, so there
// always is a head.
func (e *engine) head() (at float64, seq uint64, src source) {
	at, seq, src = e.tickAt, e.tickSeq[e.tickNext], fromTick
	if e.pending.Len() > 0 {
		if k := e.pending.Min(); evq.Less(k.At, k.Seq, at, seq) {
			at, seq, src = k.At, k.Seq, fromPending
		}
	}
	if e.faultNext < len(e.faults) {
		if k := &e.faults[e.faultNext]; evq.Less(k.At, k.Seq, at, seq) {
			at, seq, src = k.At, k.Seq, fromFault
		}
	}
	return at, seq, src
}

// step dispatches the earliest event. It returns false, dispatching
// nothing, once that event lies past the horizon.
func (e *engine) step() bool {
	at, seq, src := e.head()
	if at > e.cfg.Duration {
		return false
	}
	i := e.pending.Node(seq)
	e.clock(at)
	switch src {
	case fromTick:
		if e.tickNext++; e.tickNext == len(e.nodes) {
			e.tickNext = 0
			e.tickAt += tau
		}
		e.accrue(i)
		if e.nodes[i].state != model.Transmit {
			e.schedule(i)
		}
		e.tickSeq[i] = e.nextSeq(i)
	case fromFault:
		e.faultNext++
		e.fault(i)
	case fromPending:
		e.pending.Remove(i)
		switch {
		case e.nodes[i].state != model.Transmit:
			e.transition(i)
		case e.pinging:
			e.pingEnd(i)
		default:
			e.packetEnd(i)
		}
	}
	return true
}

// clock advances the clock to an event at time at. The first event at
// or past Warmup snapshots every node's ledgers for the window.
func (e *engine) clock(at float64) {
	e.now = at
	if e.measuring || e.now < e.cfg.Warmup {
		return
	}
	e.measuring = true
	e.actualAtWarm = make([]float64, e.cfg.N)
	e.virtualAtWarm = make([]float64, e.cfg.N)
	for i := range e.nodes {
		e.accrue(i)
		e.actualAtWarm[i] = e.nodes[i].actual
		e.virtualAtWarm[i] = e.nodes[i].virtual
	}
}

// drain accrues every node to the horizon.
func (e *engine) drain() {
	e.now = e.cfg.Duration
	for i := range e.nodes {
		e.accrue(i)
	}
}

func (e *engine) transition(i int) {
	e.accrue(i)
	ns := &e.nodes[i]
	switch ns.state {
	case model.Sleep:
		ns.state = model.Listen
		e.schedule(i)
	case model.Listen:
		r := ns.proto.Rates(!e.busyFor(i), 0)
		total := r.ListenToSleep + r.ListenToTransmit
		if total <= 0 {
			return
		}
		if e.src.Float64()*total < r.ListenToTransmit {
			e.beginPacket(i)
		} else {
			ns.state = model.Sleep
			e.schedule(i)
		}
	}
}

// beginPacket starts a 40 ms data packet from node i.
func (e *engine) beginPacket(i int) {
	e.nodes[i].state = model.Transmit
	wasIdle := e.transmitter < 0
	e.transmitter = i
	e.listeners = e.listeners[:0]
	for j := range e.nodes {
		if j != i && e.nodes[j].state == model.Listen {
			e.listeners = append(e.listeners, j)
		}
	}
	if wasIdle {
		// Freeze everyone else under the now-busy carrier.
		for j := range e.nodes {
			if j != i {
				e.accrue(j)
				e.schedule(j)
			}
		}
	}
	e.pinging = false
	e.pending.Set(i, e.now+packetTime, e.nextSeq(i))
}

// fault handles a fault-schedule boundary for node i: crash edges park or
// revive the node; brownout/silence edges just force an accrual so the
// piecewise-constant harvest integrates exactly and rates re-draw.
func (e *engine) fault(i int) {
	e.accrue(i)
	ns := &e.nodes[i]
	if !e.flt.Alive(i, e.now) {
		// A crash parks the node asleep and cancels its pending event.
		wasTransmitting := ns.state == model.Transmit
		ns.state = model.Sleep
		e.pending.Remove(i)
		if wasTransmitting {
			// The transmitter died mid-hold: release the medium.
			e.transmitter = -1
			e.listeners = e.listeners[:0]
			for j := range e.nodes {
				if j != i {
					e.accrue(j)
					e.schedule(j)
				}
			}
		}
		return
	}
	// Restart, or a brownout/silence edge on a live node.
	if ns.state != model.Transmit {
		e.schedule(i)
	}
}

// packetEnd completes the data packet and opens the pinging interval.
func (e *engine) packetEnd(i int) {
	// Charge the transmitter for the packet while still in transmit state,
	// so the ping interval that follows is charged as listening.
	e.accrue(i)
	// A muted transmitter occupies the channel but delivers nothing, and
	// no recipient will ping; a listener that crashed mid-packet heard
	// only a fragment.
	success := 0
	if e.flt.Silenced(i, e.now) {
		e.listeners = e.listeners[:0]
	} else {
		for _, j := range e.listeners {
			if e.flt.Alive(j, e.now) {
				success++
			}
		}
	}
	if e.measuring {
		e.met.PacketsSent++
		e.met.PacketsDelivered += success
		e.met.Groupput += float64(success) * packetTime
	}
	e.pinging = true
	e.pending.Set(i, e.now+pingInterval, e.nextSeq(i))
}

// pingEnd closes the pinging interval: place each recipient's 0.4 ms ping
// uniformly in the 8 ms window, drop overlapping pings (collisions) and
// random decode failures, account everyone's interval energy, and let the
// transmitter decide whether to hold the channel.
func (e *engine) pingEnd(i int) {
	// A recipient that crashed during the interval sends no ping and
	// settles no interval energy here (the fault handler closed its
	// ledger at the crash instant).
	live := 0
	for _, j := range e.listeners {
		if e.flt.Alive(j, e.now) {
			e.listeners[live] = j
			live++
		}
	}
	e.listeners = e.listeners[:live]

	// Decode pings.
	starts := make([]float64, len(e.listeners))
	for k := range starts {
		starts[k] = e.src.Uniform(0, pingInterval-pingTime)
	}
	decoded := 0
	for k, s := range starts {
		ok := true
		for m, s2 := range starts {
			if m != k && math.Abs(s-s2) < pingTime {
				ok = false // overlapping pings collide
				break
			}
		}
		if !ok {
			continue
		}
		if e.flt.DropRx(i, e.now) { // decode failure at the transmitter
			if e.measuring {
				e.met.LostPings++
			}
			continue
		}
		decoded++
	}
	if e.measuring {
		e.met.PingCounts.Add(decoded)
	}

	// Energy for the interval: the transmitter listened for pings; each
	// recipient listened except while sending its 0.4 ms ping.
	e.spendThrough(i, model.Listen)
	for _, j := range e.listeners {
		ns := &e.nodes[j]
		listenDt := e.now - ns.last - pingTime
		if listenDt > 0 {
			e.spend(j, listenDt, model.Listen)
		}
		e.spend(j, pingTime, model.Transmit)
		ns.last = e.now
	}

	// Hold or release, using the imperfect decoded estimate.
	ns := &e.nodes[i]
	est := ns.proto.Estimate(decoded)
	if e.src.Bernoulli(ns.proto.ContinueTransmitProb(est)) {
		e.listeners = e.listeners[:0]
		for j := range e.nodes {
			if j != i && e.nodes[j].state == model.Listen {
				e.listeners = append(e.listeners, j)
			}
		}
		e.pinging = false
		e.pending.Set(i, e.now+packetTime, e.nextSeq(i))
		return
	}
	ns.state = model.Listen
	e.transmitter = -1
	for j := range e.nodes {
		e.accrue(j)
		e.schedule(j)
	}
}

// spendThrough accrues node i's time up to now in the given state
// (overriding its nominal protocol state for special radio phases).
func (e *engine) spendThrough(i int, st model.State) {
	ns := &e.nodes[i]
	if dt := e.now - ns.last; dt > 0 {
		e.spend(i, dt, st)
	}
}

func (e *engine) finish() *Metrics {
	window := e.cfg.Duration - e.cfg.Warmup
	e.met.Window = window
	e.met.Groupput /= window
	e.met.Power = make([]float64, e.cfg.N)
	e.met.VirtualPower = make([]float64, e.cfg.N)
	e.met.EtaFinal = make([]float64, e.cfg.N)
	p0 := math.Max(listenPower, transmitPower)
	for i := range e.nodes {
		var aStart, vStart float64
		if e.actualAtWarm != nil {
			aStart = e.actualAtWarm[i]
			vStart = e.virtualAtWarm[i]
		}
		e.met.Power[i] = (e.nodes[i].actual - aStart) / window
		e.met.VirtualPower[i] = (e.nodes[i].virtual - vStart) / window
		e.met.EtaFinal[i] = e.nodes[i].proto.Eta() / p0
	}
	e.met.FaultTrace = e.flt.Trace()
	return &e.met
}

// CapacitorEnergy implements eq. (25): the energy released by a capacitor
// of capacitance c discharging from v0 to v1 volts.
func CapacitorEnergy(c, v0, v1 float64) float64 {
	return 0.5 * c * (v0*v0 - v1*v1)
}

// CapacitorLifetime returns how long a pre-charged capacitor sustains a
// constant power draw across its working voltage range (§VIII-B).
func CapacitorLifetime(c, v0, v1, power float64) float64 {
	return CapacitorEnergy(c, v0, v1) / power
}

// MeasuredPower implements eq. (26): empirical average power from two
// voltage readings over an interval.
func MeasuredPower(c, v0, v1, dt float64) float64 {
	return CapacitorEnergy(c, v0, v1) / dt
}
