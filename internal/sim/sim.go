// Package sim is a deterministic discrete-event simulator for EconCast
// networks (§VII of the paper). Nodes follow the continuous-time dynamics
// of eq. (18) with carrier sensing, packetized transmissions, per-packet
// listener estimation, energy accounting against per-node budgets, and the
// multiplier adaptation of eq. (17). Clique and non-clique topologies are
// supported; in non-cliques, spatially overlapping transmissions collide at
// shared receivers and are not counted as throughput, exactly as in the
// paper's Fig. 6 evaluation.
//
// All randomness comes from a seeded rng.Source, so runs are exactly
// reproducible.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/stats"
	"econcast/internal/topology"
)

// Protocol carries the EconCast parameters shared by all nodes in a run
// (per-node hardware parameters come from the Network).
type Protocol struct {
	Mode       model.Mode
	Variant    econcast.Variant
	Sigma      float64
	Delta      float64 // multiplier step (default 0.05)
	Tau        float64 // multiplier interval, seconds (default 200 packets)
	PacketTime float64 // seconds (default 1 ms)
}

// TicksToSeconds converts a count of multiplier intervals into
// simulated seconds under p's tick length. It (and its inverse) is the
// sanctioned tick/second boundary: econlint's unitflow analyzer flags
// arithmetic that mixes the two dimensions directly.
func (p Protocol) TicksToSeconds(ticks float64) float64 {
	return ticks * p.Tau //lint:allow unitflow the conversion boundary itself: tick·(s per tick) yields s
}

// SecondsToTicks converts simulated seconds into a (fractional) count
// of multiplier intervals. Inverse of TicksToSeconds.
func (p Protocol) SecondsToTicks(t float64) float64 {
	return t / p.Tau
}

// Config describes one simulation run.
type Config struct {
	Network  *model.Network
	Topology *topology.Topology // nil means clique
	Protocol Protocol

	Duration float64 // total simulated seconds
	Warmup   float64 // metrics discarded before this time
	Seed     uint64

	// WarmEta optionally initializes each node's multiplier from an
	// analytical solution (units of 1/Watt, as returned by
	// statespace.P4Result.Eta), skipping the adaptation transient.
	WarmEta []float64

	// FreezeEta disables the multiplier adaptation (eq. 17), keeping eta at
	// its warm-start value; used to validate the stationary analysis.
	FreezeEta bool

	// EstimateListeners, when non-nil, replaces the perfect listener count
	// the transmitter would observe with a noisy estimate; used for the
	// ping-noise ablation.
	EstimateListeners func(actual int, src *rng.Source) int

	// HardBatteryFloor forces nodes with an empty battery to stay asleep
	// until the battery recovers (checked at multiplier ticks); the battery
	// is also clamped at zero.
	HardBatteryFloor bool

	// InitialBattery per node, Joules (default 0; the default virtual
	// battery may go negative).
	InitialBattery float64

	// Harvest, when non-nil, gives each node a time-varying harvesting
	// profile instead of its constant budget (arguments: node index,
	// seconds since start). Node budgets should be set to the profile
	// means so analytical comparisons stay meaningful.
	Harvest func(node int, t float64) float64

	// OnDeliver, when non-nil, is invoked for every successful packet
	// reception — including during warmup — with the transmitter, the
	// receiver, and the completion time. Applications (neighbor
	// discovery, gossip) build on this hook.
	OnDeliver func(tx, rx int, now float64)

	// EventLog, when non-nil, receives a compact human-readable trace of
	// every state transition and packet event, one line each — intended
	// for debugging small scenarios, not long runs.
	EventLog io.Writer

	// TrackOccupancy records the time-weighted distribution over network
	// states (post-warmup) in Metrics.Occupancy, for state-level
	// validation against the Gibbs distribution (19). Requires N <= 24.
	TrackOccupancy bool

	// OnTick, when non-nil, is invoked at every multiplier tick with the
	// node's current eta (units of 1/Watt), exposing the eq. (17)
	// adaptation trajectory for convergence studies.
	OnTick func(node int, now, eta float64)

	// Churn, when non-nil, gives each node an activity schedule: the node
	// participates only while Churn(node, t) is true (outside it neither
	// harvests, transmits, listens, nor carrier-senses — it is absent, as
	// a mobile tag out of range). Activity is sampled at multiplier ticks,
	// so transitions take effect within one tau.
	Churn func(node int, t float64) bool

	// Shards controls the sharded spatial-interference engine used for
	// non-clique topologies: 0 auto-selects (the serial sharded
	// coordinator takes over at autoShardMinN nodes, whatever
	// GOMAXPROCS is), 1 forces the single-queue engine, and >= 2 forces a
	// sharded run with about that many shards. A Parallel >= 2 run uses
	// at least one shard per worker. The two engines —
	// and every shard count — produce byte-identical results: the sharded
	// coordinator dispatches events in the same global (at, seq) order,
	// event keys are content-derived (per-node Lamport clocks), and every
	// RNG draw comes from the stream of the node it realizes; shards
	// reorganize data, not control flow. Cliques (a single interference
	// domain) always run on the single-queue engine.
	Shards int

	// Parallel controls the multi-core window-synchronized engine
	// (par.go): 0 and 1 both run single-threaded (the serial sharded
	// coordinator or the single-queue engine, per Shards), and >= 2
	// forces that many shard workers. Auto never picks the window engine:
	// measured on a 2-vCPU host it costs about twice the serial engine's
	// CPU per event. The parallel engine is byte-identical to the serial
	// engines at every worker count and GOMAXPROCS setting — see
	// DESIGN.md §9 for the merge proof. Hooks that observe the global
	// schedule (EventLog, OnDeliver, OnTick, EstimateListeners,
	// TrackOccupancy, Churn, Harvest) force a serial run regardless.
	Parallel int

	// Faults, when non-nil, injects the shared fault processes
	// (crash/restart, packet loss, clock drift, brownout, stuck radio)
	// compiled deterministically from Seed over [0, Duration]. Fault
	// schedule boundaries are realized as events through the ordinary
	// event loop — unlike Churn's tick sampling, crashes land at their
	// exact scheduled times. See the faults package for the catalog.
	Faults *faults.Config
}

func (c *Config) validate() error {
	if c.Network == nil {
		return errors.New("sim: nil network")
	}
	if c.TrackOccupancy && c.Network.N() > 24 {
		return errors.New("sim: occupancy tracking limited to 24 nodes")
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.Topology != nil && c.Topology.N() != c.Network.N() {
		return fmt.Errorf("sim: topology nodes %d != network nodes %d",
			c.Topology.N(), c.Network.N())
	}
	if !(c.Duration > 0) {
		return errors.New("sim: duration must be positive")
	}
	if c.Warmup < 0 || c.Warmup >= c.Duration {
		return errors.New("sim: warmup must be in [0, duration)")
	}
	if c.WarmEta != nil && len(c.WarmEta) != c.Network.N() {
		return errors.New("sim: WarmEta length mismatch")
	}
	if !(c.Protocol.Sigma > 0) {
		return errors.New("sim: sigma must be positive")
	}
	if c.Shards < 0 {
		return errors.New("sim: shards must be non-negative")
	}
	if c.Parallel < 0 {
		return errors.New("sim: parallel must be non-negative")
	}
	return nil
}

// Sharding auto-selection: non-clique topologies at or above
// autoShardMinN nodes run on the sharded engine with about
// autoShardNodes nodes per shard. With the collision scan inverted to
// O(degree) (see coord.go), per-event cost no longer grows with shard
// size, and what remains is the cross-shard machinery: smaller shards
// mean more boundary crossings and a deeper coordinator heap. Measured
// on 100x100 and 316x316 grids, throughput rises through 128, 256, and
// 512 nodes per shard and flattens near 1000, so auto-selection
// targets that plateau.
const (
	autoShardMinN  = 4096
	autoShardNodes = 1024
)

// rngNodeDomain separates the per-node stream family from any other
// DeriveSeed use of the run seed.
const rngNodeDomain = 0x4e4f4445 // "NODE"

// seqShift returns the bit width reserved for the node id in an event
// key: seq = lamport << seqShift(n) | node. Lamport clocks count pushes
// per node, so the key fits comfortably in 64 bits for any feasible run.
func seqShift(n int) uint {
	return uint(bits.Len(uint(n)))
}

// shardPlan resolves the Shards setting to an effective shard count;
// 1 means the single-queue engine.
func (c *Config) shardPlan() int {
	if c.Topology == nil || c.Shards == 1 {
		return 1
	}
	if c.Topology.IsClique() {
		return 1
	}
	n := c.Topology.N()
	if c.Shards >= 2 {
		if c.Shards > n {
			return n
		}
		return c.Shards
	}
	if n >= autoShardMinN {
		return n / autoShardNodes
	}
	return 1
}

// parallelEligible reports whether a run may use the parallel engine:
// any hook that observes the global dispatch schedule (or shares
// unpartitioned state, like the occupancy map and harvest closures
// capturing user code) forces serial execution.
func (c *Config) parallelEligible() bool {
	return c.EventLog == nil &&
		c.OnDeliver == nil &&
		c.OnTick == nil &&
		c.EstimateListeners == nil &&
		!c.TrackOccupancy &&
		c.Churn == nil &&
		c.Harvest == nil
}

// parallelPlan resolves the Parallel setting to an effective worker
// count; 1 means a single-threaded run. Only an explicit Parallel >= 2
// selects the window-parallel engine (see Config.Parallel for why).
func (c *Config) parallelPlan() int {
	if c.Parallel < 2 || c.Topology == nil || c.Topology.IsClique() || !c.parallelEligible() {
		return 1
	}
	return c.Parallel
}

// Metrics are the outputs of a run, measured over (Warmup, Duration].
type Metrics struct {
	Window   float64 // measured seconds
	Groupput float64 // fraction of time spent on per-receiver delivery
	Anyput   float64 // fraction of time spent on >=1-receiver delivery

	// Events counts discrete events dispatched over the whole run
	// (including warmup); identical across the single-queue and sharded
	// engines, and the denominator of the events/sec scale benchmarks.
	Events int

	PacketsSent        int // packets transmitted
	PacketsDelivered   int // successful per-receiver packet deliveries
	PacketsAnyDeliver  int // packets delivered to at least one receiver
	CollidedReceptions int // receptions lost to overlapping transmissions
	LostReceptions     int // receptions lost to the fault layer (loss/silence)

	BurstLengths stats.Accumulator // packets per receive burst
	Latency      stats.CDF         // seconds between bursts (with sleep between)

	Power    []float64 // per-node mean consumption over the window (W)
	EtaFinal []float64 // final multipliers (units of 1/Watt)
	Battery  []float64 // final battery levels (J)

	// Occupancy is the time-weighted fraction spent in each network state
	// over the window; populated only with Config.TrackOccupancy.
	Occupancy map[model.NetState]float64

	// FaultTrace is the materialized fault schedule of the run (nil when
	// Config.Faults is unset) — byte-identical across substrates for the
	// same fault config and seed.
	FaultTrace []faults.Event `json:",omitempty"`
}

// event kinds.
const (
	evTransition = iota // node's sampled state transition
	evPacketEnd         // end of the current unit packet
	evTick              // multiplier / battery bookkeeping tick
	evFault             // fault-schedule boundary (crash/brownout/silence edge)
)

type event struct {
	at      float64
	seq     uint64 // FIFO tie-break
	kind    int
	node    int
	version uint64 // transition version; stale events are dropped
}

// eventQueue is a binary min-heap over event values ordered by (at, seq),
// with sift-up/sift-down written directly against the slice. It
// deliberately does not use container/heap: heap.Push and heap.Pop box
// every event through interface{}, which allocates on each of the
// millions of events a run processes; the direct heap keeps the
// steady-state event loop allocation-free.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at { //lint:allow floateq exact tie detection so equal-time events fall through to the seq tiebreak
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push inserts e and restores the heap property by sifting it up.
func (q *eventQueue) push(e event) {
	*q = append(*q, e) //lint:allow hotalloc amortized queue growth; capacity is stable in steady state
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// nodeState is the simulator-side view of one node.
type nodeState struct {
	proto      *econcast.Node
	state      model.State
	version    uint64  // bumped to invalidate pending transition events
	busy       int     // number of transmitting neighbors
	lastUpdate float64 // time of last energy accrual

	// receiver-side metrics state
	burstCount    int     // packets received in the current burst
	lastBurstEnd  float64 // when the last burst's final packet ended
	hasBurst      bool
	sleptSince    bool // slept since the last burst ended
	collidedInPkt bool // current packet reception is lost to a collision
}

// packet tracks one in-flight unit packet. Packets live in a per-node
// pool indexed by transmitter (engine.packets) and are reused across
// holds — the listeners slice keeps its capacity — so starting a packet
// never allocates in steady state.
type packet struct {
	active    bool  // a packet from this transmitter is in flight
	listeners []int // initial listener set (indices), reused across packets
	burstLen  int   // packets already sent in this channel hold
	delivered bool  // some packet of this hold was received by someone
}

//lint:owner sim-engine the event-loop goroutine owns all engine state
type engine struct {
	cfg   Config
	n     int
	nodes []nodeState
	topo  *topology.Topology // nil = clique
	now   float64
	queue eventQueue

	// rngs holds one independent stream per node (derived from the run
	// seed via rng.DeriveSeed). Every draw the engine makes is attributed
	// to exactly one node — the node whose transition, packet decision, or
	// estimate it realizes — so the draw sequence each stream sees is a
	// function of that node's event history alone. That is what lets the
	// parallel shard engine replay the identical streams from a concurrent
	// schedule.
	rngs []rng.Source

	// lamport[i] is node i's logical clock for the canonical event order:
	// a push at node i gets seq = (max(lamport[i], curLamport)+1) << shift
	// | i, where curLamport is the clock of the event being dispatched.
	// Keys are unique (per-node clocks strictly increase), children sort
	// strictly after their parents even at equal times, and — because the
	// key is derived from event content rather than from a global push
	// counter — the key of every event is independent of the dispatch
	// schedule that produced it. See DESIGN.md §9.
	lamport    []uint64
	curLamport uint64
	shift      uint

	// nbr[i] is node i's neighbor set, precomputed once so the hot path
	// never materializes a clique neighbor list per event.
	nbr [][]int

	packets []packet // per-transmitter packet slots (index = transmitter)
	logging bool     // cfg.EventLog != nil, checked before boxing logf args
	tau     float64  // multiplier interval, resolved once at construction

	met           Metrics
	measuring     bool
	occStarted    bool      // occupancy window opened (TrackOccupancy only)
	warmupBattery []float64 // per-node battery at the warmup boundary
	warmSnapped   []bool    // node's warmup snapshot taken
	packetTime    float64

	// Canonical per-node metric accumulation: throughput seconds and
	// burst-length moments are accumulated against the node that produced
	// them (the transmitter) and latency samples are buffered, then merged
	// in node order by finish. The totals are then independent of the
	// dispatch schedule's interleaving across nodes — the property the
	// parallel shard engine needs — while staying bit-identical across
	// the single-queue, sharded, and parallel engines.
	gp      []float64           // per-transmitter groupput seconds
	ap      []float64           // per-transmitter anyput seconds
	bl      []stats.Accumulator // per-transmitter burst lengths
	latency []float64           // latency samples, sealed into a CDF

	// flt is the compiled fault schedule (nil when no faults are
	// configured); every query on it is nil-safe and allocation-free, so
	// the fault-free hot path pays only a pointer check.
	flt *faults.Set

	occLast float64 // time of the last occupancy accrual
}

// Run simulates the configuration and returns its metrics.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if workers := cfg.parallelPlan(); workers > 1 {
		// Honor an explicit shard count when it is finer than the worker
		// pool; otherwise one shard per worker.
		shards := cfg.shardPlan()
		if shards < workers {
			shards = workers
		}
		if n := cfg.Topology.N(); shards > n {
			shards = n
		}
		p := newParCoordinator(cfg, flt, shards, workers)
		p.run()
		return p.finish(), nil
	}
	if shards := cfg.shardPlan(); shards > 1 {
		c := newCoordinator(cfg, flt, shards)
		c.run()
		return c.finish(&c.ctx), nil
	}
	e := newEngine(cfg, flt)
	e.run()
	return e.finish(), nil
}

func newEngine(cfg Config, flt *faults.Set) *engine {
	n := cfg.Network.N()
	e := &engine{
		cfg:        cfg,
		n:          n,
		nodes:      make([]nodeState, n),
		topo:       cfg.Topology,
		packets:    make([]packet, n),
		logging:    cfg.EventLog != nil,
		packetTime: cfg.Protocol.PacketTime,
		flt:        flt,
	}
	// Allocated here, not lazily in accrueOccupancy: the occupancy accrual
	// runs on every event and must stay allocation-free.
	if cfg.TrackOccupancy {
		e.met.Occupancy = make(map[model.NetState]float64)
	}
	e.packetTime = model.DefaultIfZero(e.packetTime, 1e-3)
	e.rngs = make([]rng.Source, n)
	for i := 0; i < n; i++ {
		e.rngs[i] = *rng.New(rng.DeriveSeed(cfg.Seed, rngNodeDomain, uint64(i)))
	}
	e.lamport = make([]uint64, n)
	e.shift = seqShift(n)
	e.warmupBattery = make([]float64, n)
	e.warmSnapped = make([]bool, n)
	e.gp = make([]float64, n)
	e.ap = make([]float64, n)
	e.bl = make([]stats.Accumulator, n)
	e.nbr = make([][]int, n)
	for i := 0; i < n; i++ {
		if e.topo != nil {
			e.nbr[i] = e.topo.Neighbors(i)
			continue
		}
		row := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, j)
			}
		}
		e.nbr[i] = row
	}
	for i := 0; i < n; i++ {
		nd := cfg.Network.Nodes[i]
		pc := econcast.Config{
			Mode:               cfg.Protocol.Mode,
			Variant:            cfg.Protocol.Variant,
			Sigma:              cfg.Protocol.Sigma,
			Delta:              cfg.Protocol.Delta,
			Tau:                cfg.Protocol.Tau,
			Budget:             nd.Budget,
			ListenPower:        nd.ListenPower,
			TransmitPower:      nd.TransmitPower,
			PacketTime:         cfg.Protocol.PacketTime,
			InitialBattery:     cfg.InitialBattery,
			ClampBatteryAtZero: cfg.HardBatteryFloor,
		}
		if cfg.FreezeEta {
			// A vanishing step makes the eq. (17) updates no-ops, keeping
			// eta pinned to its warm-start value.
			pc.Delta = 1e-300
		}
		// Brownouts scale the node's harvest inside their windows. The
		// wrapper is installed only when a brownout schedule exists for
		// this node, so brownout-free runs keep the exact constant-budget
		// integration path bit-for-bit.
		if v := flt.View(i); cfg.Harvest != nil {
			node := i
			if v.HasBrownout() {
				pc.Harvest = func(t float64) float64 { return cfg.Harvest(node, t) * v.HarvestScale(t) }
			} else {
				pc.Harvest = func(t float64) float64 { return cfg.Harvest(node, t) }
			}
		} else if v.HasBrownout() {
			budget := nd.Budget
			pc.Harvest = func(t float64) float64 { return budget * v.HarvestScale(t) }
		}
		e.nodes[i] = nodeState{
			proto:        econcast.NewNode(pc),
			state:        model.Sleep,
			lastBurstEnd: -1,
		}
		if cfg.WarmEta != nil {
			p0 := math.Max(nd.ListenPower, nd.TransmitPower)
			e.nodes[i].proto.SetEta(cfg.WarmEta[i] * p0)
		}
	}
	return e
}

// neighbors returns the precomputed neighbor indices of i (all others in
// a clique). The caller must not mutate the returned slice.
func (e *engine) neighbors(i int) []int { return e.nbr[i] }

func (e *engine) adjacent(i, j int) bool {
	if e.topo != nil {
		return e.topo.Adjacent(i, j)
	}
	return i != j
}

func (e *engine) run() {
	e.start()
	for e.step() {
	}
	e.drain()
}

// start seeds every node's first transition and multiplier tick, plus
// every fault-schedule boundary. Fault boundaries are pushed once here —
// the steady-state loop never schedules fault events, so the fault-free
// hot path is untouched.
func (e *engine) start() {
	e.tau = e.nodes[0].proto.Config().Tau
	for i := 0; i < e.n; i++ {
		e.scheduleTransition(i)
		e.push(event{at: e.tau, kind: evTick, node: i})
		node := i
		e.flt.Boundaries(i, func(at float64) { //lint:allow hotalloc one boundary closure per node at run startup, not per event
			e.push(event{at: at, kind: evFault, node: node})
		})
	}
}

// step pops and dispatches one event. It returns false once the queue is
// empty or the next event lies past the horizon. Split out from run so
// the event-loop microbenchmark can pump events one at a time.
func (e *engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	if ev.at > e.cfg.Duration {
		return false
	}
	e.met.Events++
	if e.cfg.TrackOccupancy && e.measuring {
		e.accrueOccupancy(ev.at)
	}
	e.now = ev.at
	e.curLamport = ev.seq >> e.shift
	// Measuring is a pure per-event predicate (dispatch order is
	// nondecreasing in time, so it is also monotone here); per-node warmup
	// battery snapshots happen lazily in accrue, splitting each node's
	// first post-warmup accrual exactly at the boundary.
	e.measuring = e.now >= e.cfg.Warmup
	if e.cfg.TrackOccupancy && e.measuring && !e.occStarted {
		e.occStarted = true
		e.occLast = e.now
	}
	switch ev.kind {
	case evTransition:
		if ev.version == e.nodes[ev.node].version {
			e.handleTransition(ev.node)
		} // else stale: dropped
	case evPacketEnd:
		e.handlePacketEnd(ev.node)
	case evTick:
		e.handleTick(ev.node, e.tau)
	case evFault:
		e.handleFault(ev.node)
	}
	return true
}

// drain performs the final energy (and occupancy) accrual to the horizon.
func (e *engine) drain() {
	if e.cfg.TrackOccupancy && e.measuring {
		e.accrueOccupancy(e.cfg.Duration)
	}
	e.now = e.cfg.Duration
	for i := range e.nodes {
		e.accrue(i)
	}
}

// currentNetState snapshots the network state as a model.NetState.
func (e *engine) currentNetState() model.NetState {
	s := model.NetState{Transmitter: model.NoTransmitter}
	for i := range e.nodes {
		switch e.nodes[i].state {
		case model.Transmit:
			s.Transmitter = i
		case model.Listen:
			s.Listeners |= 1 << uint(i)
		}
	}
	return s
}

// accrueOccupancy charges the interval since the last accrual to the
// current network state. Called before any event mutates node states, so
// the charged state is the one that actually held over the interval.
func (e *engine) accrueOccupancy(until float64) {
	if until > e.cfg.Duration {
		until = e.cfg.Duration
	}
	dt := until - e.occLast
	if dt <= 0 {
		return
	}
	e.met.Occupancy[e.currentNetState()] += dt
	e.occLast = until
}

func (e *engine) push(ev event) {
	l := e.lamport[ev.node]
	if e.curLamport > l {
		l = e.curLamport
	}
	l++
	e.lamport[ev.node] = l
	ev.seq = l<<e.shift | uint64(ev.node)
	e.queue.push(ev)
}

// accrue advances node i's battery and multiplier bookkeeping to now.
// Multiplier boundaries are also forced by evTick events, so eta changes
// land exactly on tau multiples regardless of event spacing.
func (e *engine) accrue(i int) {
	ns := &e.nodes[i]
	if !e.warmSnapped[i] && e.now >= e.cfg.Warmup {
		// First accrual at or past the warmup boundary: advance exactly to
		// the boundary, snapshot the battery for the Power metric, and
		// continue from there. The split point is per-node and depends only
		// on the node's own accrual history, so every engine — including
		// the parallel one, where no single event marks a global warmup
		// crossing — produces bit-identical batteries.
		if dt := e.cfg.Warmup - ns.lastUpdate; dt > 0 {
			ns.proto.Advance(dt, ns.state)
		}
		ns.lastUpdate = e.cfg.Warmup
		e.warmupBattery[i] = ns.proto.Battery()
		e.warmSnapped[i] = true
	}
	if dt := e.now - ns.lastUpdate; dt > 0 {
		ns.proto.Advance(dt, ns.state)
		ns.lastUpdate = e.now
	}
}

// bump invalidates node i's pending transition event.
func (e *engine) bump(i int) { e.nodes[i].version++ }

// active reports whether node i participates at time t: present under
// the churn schedule (if any) and alive under the fault schedule. Both
// checks are nil-safe and allocation-free.
func (e *engine) active(i int, t float64) bool {
	if e.cfg.Churn != nil && !e.cfg.Churn(i, t) {
		return false
	}
	return e.flt.Alive(i, t)
}

// handleFault realizes one fault-schedule boundary for node i: a crash
// edge parks the node (releasing the channel mid-hold if it was
// transmitting), while a restart or a brownout/silence edge simply
// resamples its transition so the new regime takes effect immediately.
func (e *engine) handleFault(i int) {
	e.accrue(i)
	ns := &e.nodes[i]
	if e.flt.Alive(i, e.now) {
		if ns.state != model.Transmit {
			e.scheduleTransition(i)
		}
		return
	}
	// Crashed. A transmitter abandons its hold: the in-flight packet
	// dies undelivered and the channel is released for its neighbors.
	switch ns.state {
	case model.Transmit:
		p := &e.packets[i]
		if p.active {
			for _, j := range p.listeners {
				e.nodes[j].collidedInPkt = false
			}
			p.active = false
		}
		e.setState(i, model.Sleep)
		e.bump(i)
		for _, j := range e.neighbors(i) {
			nj := &e.nodes[j]
			nj.busy--
			if nj.busy == 0 && nj.state != model.Transmit {
				e.scheduleTransition(j)
			}
		}
		e.onListenSetChanged(i)
	case model.Listen:
		e.flushBurst(i)
		e.setState(i, model.Sleep)
		ns.sleptSince = true
		e.bump(i)
		e.onListenSetChanged(i)
	default:
		e.bump(i) // cancel any pending wake-up; stays down until restart
	}
}

// estimateFor returns the transmitter-side listener estimate for count
// successful receivers, applying the configured noise hook.
func (e *engine) estimateFor(i, count int) float64 {
	if e.cfg.EstimateListeners != nil {
		count = e.cfg.EstimateListeners(count, &e.rngs[i])
		if count < 0 {
			count = 0
		}
	}
	return e.nodes[i].proto.Estimate(count)
}

// listenEstimate is the continuous listener estimate used by the
// non-capture variant's listen->transmit rate: the number of other
// listening neighbors (whose pings the node hears).
func (e *engine) listenEstimate(i int) float64 {
	count := 0
	for _, j := range e.neighbors(i) {
		if e.nodes[j].state == model.Listen {
			count++
		}
	}
	return e.estimateFor(i, count)
}

// scheduleTransition samples node i's next state transition from its
// current rates and pushes it. Transmitting nodes are packet-driven and
// get no timer.
func (e *engine) scheduleTransition(i int) {
	e.bump(i)
	ns := &e.nodes[i]
	if ns.state == model.Transmit {
		return
	}
	if e.cfg.HardBatteryFloor && ns.state == model.Sleep && ns.proto.Depleted() {
		return // stays asleep until a tick finds the battery recovered
	}
	if !e.active(i, e.now) {
		return // absent or crashed: re-checked at the next tick / restart
	}
	carrierFree := ns.busy == 0
	est := 0.0
	if e.cfg.Protocol.Variant == econcast.NonCapture && ns.state == model.Listen {
		est = e.listenEstimate(i)
	}
	r := ns.proto.Rates(carrierFree, est)
	var total float64
	switch ns.state {
	case model.Sleep:
		total = r.SleepToListen
	case model.Listen:
		total = r.ListenToSleep + r.ListenToTransmit
	}
	if total <= 0 {
		return
	}
	dwell := e.rngs[i].Exp(total)
	if ns.state == model.Sleep {
		// Sleep intervals are timed by the node's low-power clock, which
		// the drift fault scales; listen/transmit timing runs off the
		// (accurate) active-mode clock, as on the testbed hardware.
		dwell *= e.flt.Drift(i)
	}
	e.push(event{
		at:      e.now + dwell,
		kind:    evTransition,
		node:    i,
		version: ns.version,
	})
}

// handleTransition fires node i's sampled transition.
func (e *engine) handleTransition(i int) {
	ns := &e.nodes[i]
	e.accrue(i)
	switch ns.state {
	case model.Sleep:
		e.setState(i, model.Listen)
		e.onListenSetChanged(i)
		e.scheduleTransition(i)
	case model.Listen:
		carrierFree := ns.busy == 0
		est := 0.0
		if e.cfg.Protocol.Variant == econcast.NonCapture {
			est = e.listenEstimate(i)
		}
		r := ns.proto.Rates(carrierFree, est)
		total := r.ListenToSleep + r.ListenToTransmit
		if total <= 0 {
			return
		}
		if e.rngs[i].Float64()*total < r.ListenToTransmit {
			e.startTransmission(i)
		} else {
			e.flushBurst(i)
			e.setState(i, model.Sleep)
			ns.sleptSince = true
			e.onListenSetChanged(i)
			e.scheduleTransition(i)
		}
	}
}

// setState switches node i's recorded state after accruing energy.
func (e *engine) setState(i int, st model.State) {
	e.accrue(i)
	if e.logging {
		e.logf("%.6f node %d: %v -> %v", e.now, i, e.nodes[i].state, st) //lint:allow hotalloc trace logging; e.logging is off in measured runs
	}
	e.nodes[i].state = st
}

// logf writes one trace line. Callers on the hot path must gate the call
// on e.logging themselves: building the variadic argument list boxes
// every operand, which would allocate per event even with no log sink.
func (e *engine) logf(format string, args ...any) {
	if e.cfg.EventLog != nil {
		fmt.Fprintf(e.cfg.EventLog, format+"\n", args...)
	}
}

// onListenSetChanged resamples the non-capture listen->transmit rates of
// node i's listening neighbors, whose estimates just changed.
func (e *engine) onListenSetChanged(i int) {
	if e.cfg.Protocol.Variant != econcast.NonCapture {
		return
	}
	for _, j := range e.neighbors(i) {
		if e.nodes[j].state == model.Listen {
			e.scheduleTransition(j)
		}
	}
}

// startTransmission moves node i from listen to transmit, occupies the
// channel for its neighbors, and begins the first packet of the hold.
func (e *engine) startTransmission(i int) {
	if e.nodes[i].busy != 0 {
		// Carrier sensing (the A(t) gate) must make this unreachable.
		panic(fmt.Sprintf("sim: node %d transmitting into a busy channel", i))
	}
	e.flushBurst(i)
	e.setState(i, model.Transmit)
	e.bump(i) // no timer while transmitting
	e.onListenSetChanged(i)
	// Occupy the channel: each neighbor gains one transmitting neighbor.
	for _, j := range e.neighbors(i) {
		ns := &e.nodes[j]
		ns.busy++
		if ns.busy == 1 && ns.state != model.Transmit {
			// Channel became busy for j: freeze by resampling (rates -> 0).
			e.scheduleTransition(j)
		}
	}
	// A new transmission collides with receptions of other in-flight
	// packets at shared receivers (hidden terminals, non-clique only).
	for tx := range e.packets {
		if !e.packets[tx].active {
			continue
		}
		for _, j := range e.packets[tx].listeners {
			if e.adjacent(i, j) && !e.nodes[j].collidedInPkt {
				e.nodes[j].collidedInPkt = true
				if e.measuring {
					e.met.CollidedReceptions++
				}
			}
		}
	}
	e.startPacket(i, 0, false)
}

// startPacket begins one unit packet from transmitter i. burstLen counts
// packets already sent in this hold and delivered whether any earlier
// packet of the hold was received. The listener set is every neighbor
// currently listening; a listener with more than one transmitting neighbor
// is collided from the start.
func (e *engine) startPacket(i, burstLen int, delivered bool) {
	p := &e.packets[i]
	p.active = true
	p.burstLen = burstLen
	p.delivered = delivered
	p.listeners = p.listeners[:0]
	for _, j := range e.neighbors(i) {
		ns := &e.nodes[j]
		if ns.state == model.Listen {
			p.listeners = append(p.listeners, j) //lint:allow hotalloc reuses the slot's capacity; grows at most n times per run
			ns.collidedInPkt = ns.busy > 1
			if ns.collidedInPkt && e.measuring {
				e.met.CollidedReceptions++
			}
		}
	}
	if e.logging {
		e.logf("%.6f node %d: packet %d of hold, %d listeners",
			e.now, i, burstLen+1, len(p.listeners)) //lint:allow hotalloc trace logging; e.logging is off in measured runs
	}
	e.push(event{at: e.now + e.packetTime, kind: evPacketEnd, node: i})
}

// handlePacketEnd completes transmitter i's current packet: deliver
// receptions, re-estimate listeners, and continue or release the channel.
func (e *engine) handlePacketEnd(i int) {
	p := &e.packets[i]
	if !p.active || e.nodes[i].state != model.Transmit {
		return
	}
	// A stuck (silenced) radio transmits carrier — neighbors still defer —
	// but delivers nothing. Receiver-side loss draws are skipped entirely
	// for silenced packets: no reception was attempted, so the loss
	// streams advance only on real attempts and stay reproducible.
	silenced := e.flt.Silenced(i, e.now)
	success := 0
	for _, j := range p.listeners {
		ns := &e.nodes[j]
		if ns.state != model.Listen {
			// Left mid-packet (churn departure or crash): no reception.
			ns.collidedInPkt = false
			continue
		}
		if ns.collidedInPkt {
			ns.collidedInPkt = false
			continue
		}
		if silenced || e.flt.DropRx(j, e.now) {
			if e.measuring {
				e.met.LostReceptions++
			}
			continue
		}
		success++
		ns.burstCount++
		if e.cfg.OnDeliver != nil {
			e.cfg.OnDeliver(i, j, e.now)
		}
		if e.measuring {
			e.met.PacketsDelivered++
			// Burst/latency bookkeeping: first packet of a receive burst.
			if ns.burstCount == 1 && ns.hasBurst && ns.sleptSince {
				e.latency = append(e.latency, e.now-e.packetTime-ns.lastBurstEnd) //lint:allow hotalloc amortized sample buffer growth
			}
			ns.sleptSince = false
		}
		ns.lastBurstEnd = e.now
		ns.hasBurst = true
	}
	if e.measuring {
		e.met.PacketsSent++
		e.gp[i] += float64(success) * e.packetTime
		if success > 0 {
			e.met.PacketsAnyDeliver++
			e.ap[i] += e.packetTime
		}
	}
	if success > 0 {
		p.delivered = true
	}
	// The slot stays readable (listeners, burstLen, delivered) for the
	// remainder of this handler; startPacket reclaims it on a hold.
	p.active = false

	// A physically depleted listener is forced to sleep to recharge; it
	// cannot stay in receive on an empty store.
	if e.cfg.HardBatteryFloor {
		for _, j := range p.listeners {
			e.accrue(j)
			if e.nodes[j].state == model.Listen && e.nodes[j].proto.Depleted() {
				e.flushBurst(j)
				e.setState(j, model.Sleep)
				e.nodes[j].sleptSince = true
				e.bump(j)
				e.onListenSetChanged(j)
			}
		}
	}

	// Decide whether to hold the channel (EconCast-C) or release; a
	// depleted transmitter must release regardless.
	e.accrue(i)
	est := e.estimateFor(i, success)
	cont := e.nodes[i].proto.ContinueTransmitProb(est)
	forced := e.cfg.HardBatteryFloor && e.nodes[i].proto.Depleted()
	if !e.active(i, e.now) {
		forced = true // departed or crashed: release the channel now
	}
	if !forced && e.rngs[i].Bernoulli(cont) {
		e.startPacket(i, p.burstLen+1, p.delivered)
		return
	}
	// Hold complete: record its length if it reached any receiver (the
	// Appendix E burst definition behind eqs. 34-35).
	if p.delivered && e.measuring {
		e.bl[i].Add(float64(p.burstLen + 1))
	}
	// Release: transmitter returns to listen (Fig. 1), neighbors unfreeze.
	e.setState(i, model.Listen)
	e.scheduleTransition(i)
	for _, j := range e.neighbors(i) {
		ns := &e.nodes[j]
		ns.busy--
		if ns.busy == 0 && ns.state != model.Transmit {
			e.scheduleTransition(j)
		}
	}
	e.onListenSetChanged(i)
}

// flushBurst closes node i's receive burst (used by the latency metric;
// burst-length samples themselves are recorded per channel hold).
func (e *engine) flushBurst(i int) {
	e.nodes[i].burstCount = 0
}

// handleTick advances energy bookkeeping (forcing the eq. 17 update to
// land exactly on the tau boundary) and resamples the node's transition,
// since its rates depend on the refreshed multiplier.
func (e *engine) handleTick(i int, tau float64) {
	e.accrue(i)
	// Departure: an absent node abandons listening (transmitters finish
	// their current hold first; the packet machinery owns that state).
	if !e.active(i, e.now) && e.nodes[i].state == model.Listen {
		e.flushBurst(i)
		e.setState(i, model.Sleep)
		e.nodes[i].sleptSince = true
		e.bump(i)
		e.onListenSetChanged(i)
	}
	if e.cfg.OnTick != nil {
		nd := e.cfg.Network.Nodes[i]
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		e.cfg.OnTick(i, e.now, e.nodes[i].proto.Eta()/p0)
	}
	if e.nodes[i].state != model.Transmit {
		e.scheduleTransition(i)
	}
	e.push(event{at: e.now + tau, kind: evTick, node: i})
}

// finish assembles the metrics.
func (e *engine) finish() *Metrics {
	window := e.cfg.Duration - e.cfg.Warmup
	e.met.Window = window
	// Canonical merge: per-node accumulations fold in ascending node
	// order, so the floats are independent of the dispatch interleaving.
	for i := 0; i < e.n; i++ {
		e.met.Groupput += e.gp[i]
		e.met.Anyput += e.ap[i]
		e.met.BurstLengths.Merge(e.bl[i])
	}
	e.met.Latency = stats.NewCDF(e.latency)
	e.met.Groupput /= window
	e.met.Anyput /= window
	// Order audit: each occupancy entry is scaled independently at its own
	// key — no cross-key accumulation — so iteration order cannot affect
	// the result (econlint's maprange proves this shape order-insensitive).
	for s := range e.met.Occupancy {
		e.met.Occupancy[s] /= window
	}
	e.met.Power = make([]float64, e.n)
	e.met.EtaFinal = make([]float64, e.n)
	e.met.Battery = make([]float64, e.n)
	for i := range e.nodes {
		nd := e.cfg.Network.Nodes[i]
		// Mean consumption over the window: harvest - net battery gain.
		gained := e.nodes[i].proto.Battery() - e.warmupBattery[i]
		e.met.Power[i] = nd.Budget - gained/window
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		e.met.EtaFinal[i] = e.nodes[i].proto.Eta() / p0
		e.met.Battery[i] = e.nodes[i].proto.Battery()
	}
	e.met.FaultTrace = e.flt.Trace()
	return &e.met
}
