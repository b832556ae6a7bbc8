// The event engine: one discrete-event loop per run. The coordinator
// keeps each node's state in one 192-byte record — every dispatch-path
// scalar packed into its first cache line, then the node's RNG stream,
// rate memo and protocol core — and its neighbor and listener lists in
// int32 windows of two flat slabs, so the per-event working set is
// dense. It owns the run's four event sources, each kept in the
// cheapest structure its order allows: a FIFO of packet ends (they
// arrive in order), a sorted slice of fault boundaries read through a
// cursor, the transition heap, and the tick cursor. step dispatches the
// earliest of their heads in the global (time, key) order of
// internal/evq, which also holds the key format and the indexed heap
// that the testbed emulator shares. Each node has at most one pending
// transition, held in the transition heap (an evq.Heap) with its key
// inline: a resample replaces it in place (a fired transition's own
// re-arm included: it stays at the root while its handler runs) and a
// departure or crash cancels it there, so superseded transitions never
// linger in the heap. A carrier freeze
// suspends it instead: the residual dwell moves into the node's hot line
// and is re-armed, with no draw, when the carrier frees up (see freeze;
// memorylessness keeps the law). Multiplier ticks never enter a heap:
// every node ticks at the same instants, so a cursor walks the nodes in
// ascending order. Rates that depend on the multiplier alone are
// memoized per multiplier epoch. Event keys come from one run-wide
// counter and every RNG draw comes from the stream of the node it
// realizes, so a run's output depends on nothing but its Config — the
// same bytes at any sweep worker count.
//
// The per-event cost is O(degree) regardless of N: instead of walking
// every in-flight packet's listeners on each transmission start to find
// hidden-terminal collisions, the coordinator inverts the listener
// relation into a per-node counter (listeningTo), so a start checks
// only its own neighbors.
package sim

import (
	"fmt"
	"math"

	"econcast/internal/econcast"
	"econcast/internal/evq"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/stats"
	"econcast/internal/topology"
)

// coordinator is the engine: the per-node records and windows, the
// event sources, and the dispatch clock and counters. One goroutine
// drives it; the event handlers are its methods.
type coordinator struct {
	cfg  Config
	n    int
	topo *topology.Topology
	flt  *faults.Set

	tau     float64
	horizon float64 // cfg.Duration, copied next to the other hot scalars
	shift   uint    // node-id bit width of the event key

	// The dispatch clock: the time of the event being dispatched, and
	// whether it falls inside the measurement window. seq counts the keys
	// handed out so far (see nextSeq).
	now       float64
	measuring bool
	seq       uint64

	// The event sources. pkts holds the in-flight packet ends in dispatch
	// order; faults holds every fault-schedule boundary, sorted once by
	// start, with faultNext the first not yet dispatched; trans holds each
	// node's pending transition, at most one per node.
	pkts      pktFIFO
	faults    []evq.Key
	faultNext int
	trans     evq.Heap

	// The multiplier-tick cursor. Every node ticks at the same instants
	// tau, 2tau, ..., computed by the same float additions for every node,
	// so the coordinator walks the nodes in ascending id instead of
	// queueing one tick per node: tickNext is the next node due at tickAt,
	// and tickAt advances by tau when the cursor wraps. The tick's key is
	// (tickAt, node) with counter 0, which sorts before every other event
	// at that instant.
	tickAt   float64
	tickNext int

	// nodes holds one record per node (see node): its dispatch-path
	// line, RNG stream, rate memo and protocol core, adjacent in memory.
	nodes []node

	// params holds the deduplicated immutable parameter blocks that
	// nodes[i].paramOf indexes, and harvest the per-node harvest
	// wrappers; contProb[p][k] is parameter block p's EconCast-C continue
	// probability for an estimate of k listeners, for every k up to the
	// maximum degree.
	params   []econcast.Params
	harvest  []func(float64) float64
	contProb [][]float64

	// The neighbor and listener windows, in CSR form over one offset
	// array: node i's neighbors (precomputed, sorted) are
	// nbrs[off[i]:off[i+1]], and the listener list of its packet slot is
	// the first nodes[i].nListen entries of lst's window at the same
	// offsets. Listeners are a subset of neighbors, so a packet's list is
	// written in place. Offsets and ids are int32 (see csrOffsets).
	off  []int32
	nbrs []int32
	lst  []int32

	logging    bool
	packetTime float64

	// Canonical per-node metric accumulation: throughput seconds and
	// burst moments are attributed to the transmitter and folded in node
	// order by finish, so the totals do not depend on how the dispatch
	// schedule interleaves nodes.
	gp            []float64
	ap            []float64
	bl            []stats.Accumulator
	warmupBattery []float64

	// met accumulates the integer counters in place during the run;
	// finish fills in the rest. latency collects the receiver-attributed
	// inter-burst samples, sealed into a sorted CDF by finish. occLast is
	// the time occupancy has been charged up to.
	met     Metrics
	latency []float64
	occLast float64
}

// node is one node's record, 192 bytes in three cache lines. nodeHot
// comes first and fills the first line, the only one a neighbor's
// carrier update or listener bookkeeping loads; an event on the node
// itself finds its stream, memo and core in the two lines after it.
// src is the node's own RNG stream (derived from the run seed via
// rng.DeriveSeed): every draw is attributed to the node whose
// transition, packet decision, or estimate it realizes, so each
// stream's draw sequence is a function of that node's event history
// alone. core is the node's protocol dynamic state; its immutable
// parameters are shared through paramOf.
type node struct {
	nodeHot
	src  rng.Source
	memo rateMemo
	core econcast.Core
}

// nodeHot packs one node's dispatch-path state into a single 64-byte
// cache line. Booleans are bits of flags.
type nodeHot struct {
	lastUpdate   float64
	lastBurstEnd float64
	// resid is the residual dwell of a transition suspended by a carrier
	// freeze, valid while fSuspended is set (see coordinator.freeze).
	resid      float64
	busy       int32 // transmitting neighbors (carrier sense)
	burstCount int32
	// listeningTo counts the in-flight packets whose listener list holds
	// this node (a node frozen in Listen can be captured by several
	// overlapping packets). It inverts the listener lists, so the
	// hidden-terminal check at transmission start is one counter load per
	// neighbor instead of a scan over every nearby in-flight packet.
	listeningTo int32
	pktBurstLen int32 // packets already sent in the slot's current hold
	nListen     int32 // length of the slot's listener list
	paramOf     int32 // index into coordinator.params; immutable
	state       model.State
	flags       uint8
	_           [14]byte // pad to 64 bytes; see TestNodeHotSize
}

// rateMemo caches the carrier-free rates of one node that depend on its
// multiplier alone: sleep->listen (s2l) and the Capture listen->transmit
// rate (l2x). Each is valid while its epoch equals the node's
// Core.Updates()+1, so the zero value is never valid. Eta changes only
// in a multiplier update (WarmEta is applied before the first sample),
// and the memo is filled by the very Core methods it stands in for, so
// the cached rates are bit-identical to fresh evaluations.
type rateMemo struct {
	sEpoch, lEpoch int64
	s2l, l2x       float64
}

// nodeHot flag bits.
const (
	fHasBurst uint8 = 1 << iota
	fSleptSince
	fCollidedInPkt
	fPktActive    // the node's packet slot holds an in-flight packet
	fPktDelivered // the slot's current hold reached at least one receiver
	fSuspended    // a carrier freeze holds the node's transition in resid
)

func (h *nodeHot) has(f uint8) bool { return h.flags&f != 0 }
func (h *nodeHot) set(f uint8)      { h.flags |= f }
func (h *nodeHot) clear(f uint8)    { h.flags &^= f }
func (h *nodeHot) put(f uint8, v bool) {
	if v {
		h.flags |= f
	} else {
		h.flags &^= f
	}
}

// csrOffsets returns the n+1 offsets of n consecutive windows, window i
// holding degree(i) entries. Offsets are int32, so it fails for a degree
// sum past MaxInt32.
func csrOffsets(n int, degree func(int) int) ([]int32, error) {
	off := make([]int32, n+1)
	sum := 0
	for i := 0; i < n; i++ {
		if sum += degree(i); sum > math.MaxInt32 {
			return nil, fmt.Errorf("sim: topology degree sum overflows int32 neighbor offsets at node %d", i)
		}
		off[i+1] = int32(sum)
	}
	return off, nil
}

func newCoordinator(cfg Config, flt *faults.Set) (*coordinator, error) {
	n := cfg.Network.N()
	off, err := csrOffsets(n, cfg.Topology.Degree)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		cfg:        cfg,
		n:          n,
		horizon:    cfg.Duration,
		shift:      evq.Shift(n),
		topo:       cfg.Topology,
		flt:        flt,
		logging:    cfg.EventLog != nil,
		packetTime: model.DefaultIfZero(cfg.Protocol.PacketTime, 1e-3),

		nodes:   make([]node, n),
		harvest: make([]func(float64) float64, n),

		off:  off,
		nbrs: make([]int32, off[n]),
		lst:  make([]int32, off[n]),

		gp:            make([]float64, n),
		ap:            make([]float64, n),
		bl:            make([]stats.Accumulator, n),
		warmupBattery: make([]float64, n),
	}
	if cfg.TrackOccupancy {
		c.met.Occupancy = make(map[model.NetState]float64)
	}
	c.trans = evq.NewHeap(n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		w := c.neighbors(i)
		for k, j := range c.topo.Neighbors(i) {
			w[k] = int32(j)
		}
		maxDeg = max(maxDeg, len(w))
		c.nodes[i].src.Seed(rng.DeriveSeed(cfg.Seed, rngNodeDomain, uint64(i)))
	}
	// Parameter blocks are immutable and comparable, so identical nodes
	// share one block: a homogeneous network keeps a single Params hot in
	// cache instead of n copies interleaved with the dynamic state.
	seen := make(map[econcast.Params]int32, 1)
	for i := 0; i < n; i++ {
		spec := cfg.Network.Nodes[i]
		pc := cfg.nodeConfig(i)
		if cfg.FreezeEta {
			// A vanishing step makes the eq. (17) updates no-ops, keeping
			// eta pinned to its warm-start value.
			pc.Delta = 1e-300
		}
		par := econcast.NewParams(pc)
		id, ok := seen[par]
		if !ok {
			id = int32(len(c.params))
			c.params = append(c.params, par)
			seen[par] = id
		}
		nd := &c.nodes[i]
		nd.paramOf = id
		// Brownouts scale the node's harvest inside their windows. A
		// wrapper is installed only when a profile or a brownout schedule
		// exists for this node, so every other node keeps the exact
		// constant-budget integration path bit for bit.
		if v := flt.View(i); cfg.Harvest != nil {
			idx := i
			if v.HasBrownout() {
				c.harvest[i] = func(t float64) float64 { return cfg.Harvest(idx, t) * v.HarvestScale(t) }
			} else {
				c.harvest[i] = func(t float64) float64 { return cfg.Harvest(idx, t) }
			}
		} else if v.HasBrownout() {
			budget := spec.Budget
			c.harvest[i] = func(t float64) float64 { return budget * v.HarvestScale(t) }
		}
		nd.core = econcast.NewCore(cfg.InitialBattery)
		nd.state = model.Sleep
		nd.lastBurstEnd = -1
		if cfg.WarmEta != nil {
			p0 := math.Max(spec.ListenPower, spec.TransmitPower)
			nd.core.Eta = cfg.WarmEta[i] * p0
		}
	}
	// A transmitter's listener count never exceeds its degree, so the
	// continue probability is tabulated up to the maximum degree; only a
	// noisy EstimateListeners count can fall past the table.
	var core econcast.Core
	c.contProb = make([][]float64, len(c.params))
	for b := range c.params {
		par := &c.params[b]
		c.contProb[b] = make([]float64, maxDeg+1)
		for k := range c.contProb[b] {
			c.contProb[b][k] = core.ContinueTransmitProb(par, par.Estimate(k))
		}
	}
	return c, nil
}

// pr returns node i's shared parameter block.
func (c *coordinator) pr(i int) *econcast.Params { return &c.params[c.nodes[i].paramOf] }

// neighbors returns node i's neighbor window.
func (c *coordinator) neighbors(i int) []int32 { return c.nbrs[c.off[i]:c.off[i+1]] }

// listeners returns the listener list of node i's packet slot.
func (c *coordinator) listeners(i int) []int32 {
	o := c.off[i]
	return c.lst[o : o+c.nodes[i].nListen]
}

func (c *coordinator) run() {
	c.start()
	for c.step() {
	}
	c.drain()
}

// start seeds every node's first transition and multiplier tick plus
// all of its fault-schedule boundaries, keyed in node order. Fault
// boundaries are keyed and sorted once here — the steady-state loop
// never schedules fault events, so the fault-free hot path is untouched.
func (c *coordinator) start() {
	c.tau = c.params[0].Tau
	c.tickAt = c.tau
	for i := 0; i < c.n; i++ {
		c.scheduleTransition(i)
		node := i
		c.flt.Boundaries(i, func(at float64) {
			c.faults = append(c.faults, evq.Key{At: at, Seq: c.nextSeq(node)})
		})
	}
	evq.Sort(c.faults)
}

// source names the event source holding the earliest event.
type source uint8

const (
	fromTick source = iota
	fromTrans
	fromPacket
	fromFault
)

// head returns the earliest event key across the four sources and the
// source it comes from. Keys are unique, so the heads never tie; the
// tick cursor always has a next tick, so there always is a head.
func (c *coordinator) head() (at float64, seq uint64, src source) {
	at, seq, src = c.tickAt, uint64(c.tickNext), fromTick
	if c.trans.Len() > 0 {
		if k := c.trans.Min(); evq.Less(k.At, k.Seq, at, seq) {
			at, seq, src = k.At, k.Seq, fromTrans
		}
	}
	if c.pkts.n > 0 {
		if k := &c.pkts.keys[c.pkts.head]; evq.Less(k.At, k.Seq, at, seq) {
			at, seq, src = k.At, k.Seq, fromPacket
		}
	}
	if c.faultNext < len(c.faults) {
		if k := &c.faults[c.faultNext]; evq.Less(k.At, k.Seq, at, seq) {
			at, seq, src = k.At, k.Seq, fromFault
		}
	}
	return at, seq, src
}

// step dispatches the earliest event. It returns false, dispatching
// nothing, once that event lies past the horizon. Every source's key
// carries its node in the low bits of seq (the tick's key is the bare
// node id).
func (c *coordinator) step() bool {
	at, seq, src := c.head()
	if at > c.horizon {
		return false
	}
	node := c.trans.Node(seq)
	c.clock(at)
	switch src {
	case fromTick:
		if c.tickNext++; c.tickNext == c.n {
			c.tickNext = 0
			c.tickAt += c.tau
		}
		c.handleTick(node)
	case fromTrans:
		// Fire in place: the fired key stays at the root while its handler
		// runs, so the handler's own arm replaces it with one sift-down and
		// a cancel removes it. It is sound because the fired key (now, seq)
		// is <= every key present or pushed during the handler, so nothing
		// rises above it. A handler that did neither leaves it to be
		// removed here.
		c.handleTransition(node)
		if c.trans.Len() > 0 && c.trans.Min().Seq == seq {
			c.trans.Remove(node)
		}
	case fromPacket:
		c.pkts.pop()
		c.handlePacketEnd(node)
	case fromFault:
		c.faultNext++
		c.handleFault(node)
	}
	return true
}

// drain performs the final energy (and occupancy) accrual to the horizon,
// opening the measurement window first if no event fell inside it.
func (c *coordinator) drain() {
	if !c.measuring {
		c.openWindow()
	} else if c.cfg.TrackOccupancy {
		c.accrueOccupancy(c.cfg.Duration)
	}
	c.now = c.cfg.Duration
	for i := 0; i < c.n; i++ {
		c.accrue(i)
	}
}

// clock advances the dispatch clock to an event at time at and counts
// the event. The first event at or past Warmup opens the measurement
// window; occupancy is charged from that event on.
func (c *coordinator) clock(at float64) {
	c.met.Events++
	if c.measuring {
		if c.cfg.TrackOccupancy {
			c.accrueOccupancy(at)
		}
	} else if at >= c.cfg.Warmup {
		c.openWindow()
		c.occLast = at
	}
	c.now = at
}

// openWindow opens the measurement window: every node accrues to Warmup
// and its battery is snapshotted there for the Power metric.
func (c *coordinator) openWindow() {
	c.now = c.cfg.Warmup
	for i := 0; i < c.n; i++ {
		c.accrue(i)
		c.warmupBattery[i] = c.nodes[i].core.Battery
	}
	c.measuring = true
}

// nextSeq returns the key of the event being scheduled for node i:
// seq = k << shift | node, where k counts every key handed out in the run
// and starts at 1 (counter 0 is the tick cursor's). Keys are unique, and
// children sort strictly after their parents even at equal times. One
// loop dispatches the whole run, so the counter is a function of the
// Config alone. See DESIGN.md §9.
func (c *coordinator) nextSeq(i int) uint64 {
	c.seq++
	return c.seq<<c.shift | uint64(i)
}

// ---- handlers ----

// accrue advances node i's battery and multiplier bookkeeping to now.
// Multiplier boundaries are also forced by the tick cursor, so eta changes
// land exactly on tau multiples regardless of event spacing.
func (c *coordinator) accrue(i int) {
	nd := &c.nodes[i]
	if dt := c.now - nd.lastUpdate; dt > 0 {
		nd.core.Advance(c.pr(i), c.harvest[i], dt, nd.state)
		nd.lastUpdate = c.now
	}
}

// cancel deletes node i's pending transition, if any, from the
// transition heap in place, and drops a suspended one.
func (c *coordinator) cancel(i int) {
	c.nodes[i].clear(fSuspended)
	c.trans.Remove(i)
}

// arm makes at node i's pending transition under a fresh key, replacing
// any it had in place and dropping a suspended one.
func (c *coordinator) arm(i int, at float64) {
	c.nodes[i].clear(fSuspended)
	c.trans.Set(i, at, c.nextSeq(i))
}

// freeze stops node i's clock when its carrier turns busy. A node whose
// rates depend on its multiplier alone (every sleeper, and every Capture
// listener) keeps its residual dwell: its pending transition leaves the
// heap and the time left on it is stored in resid. By memorylessness
// that residual is still Exp(r) when the carrier frees up, as long as
// the rate r is unchanged then, so unfreeze re-arms it without a draw.
// Anything that may change the rate in between (a tick, a fault
// boundary, a state change) goes through scheduleTransition or cancel,
// which drop the suspension. A non-capture listener's rate depends on
// the listener estimate, so it is resampled, which cancels it.
func (c *coordinator) freeze(i int) {
	h := &c.nodes[i]
	if h.state == model.Listen && c.cfg.Protocol.Variant == econcast.NonCapture {
		c.scheduleTransition(i)
		return
	}
	if k, ok := c.trans.Remove(i); ok {
		h.resid = k.At - c.now
		h.set(fSuspended)
	}
}

// unfreeze restarts node i's clock when its carrier frees up: a
// suspended transition is re-armed at now + resid if the node still
// gets a timer at all, and anything else is sampled afresh.
func (c *coordinator) unfreeze(i int) {
	if h := &c.nodes[i]; h.has(fSuspended) && c.timed(i) {
		c.arm(i, c.now+h.resid)
		return
	}
	c.scheduleTransition(i)
}

// release frees the channel transmitter i held: each neighbor loses a
// transmitting neighbor, and one whose carrier frees up is unfrozen.
func (c *coordinator) release(i int) {
	for _, j := range c.neighbors(i) {
		h := &c.nodes[j]
		h.busy--
		if h.busy == 0 && h.state != model.Transmit {
			c.unfreeze(int(j))
		}
	}
}

// active reports whether node i participates at time t: present under
// the churn schedule (if any) and alive under the fault schedule. Both
// checks are nil-safe and allocation-free.
func (c *coordinator) active(i int, t float64) bool {
	if c.cfg.Churn != nil && !c.cfg.Churn(i, t) {
		return false
	}
	return c.flt.Alive(i, t)
}

// currentNetState snapshots the network state as a model.NetState.
func (c *coordinator) currentNetState() model.NetState {
	s := model.NetState{Transmitter: model.NoTransmitter}
	for i := 0; i < c.n; i++ {
		switch c.nodes[i].state {
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
func (c *coordinator) accrueOccupancy(until float64) {
	if until > c.cfg.Duration {
		until = c.cfg.Duration
	}
	dt := until - c.occLast
	if dt <= 0 {
		return
	}
	c.met.Occupancy[c.currentNetState()] += dt
	c.occLast = until
}

// setState switches node i's recorded state after accruing energy.
func (c *coordinator) setState(i int, st model.State) {
	c.accrue(i)
	if c.logging {
		c.logf("%.6f node %d: %v -> %v", c.now, i, c.nodes[i].state, st) //lint:allow hotalloc trace logging; c.logging is off in measured runs
	}
	c.nodes[i].state = st
}

// logf writes one trace line. Callers on the hot path must gate the call
// on c.logging themselves: building the variadic argument list boxes
// every operand, which would allocate per event even with no log sink.
func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.EventLog != nil {
		fmt.Fprintf(c.cfg.EventLog, format+"\n", args...)
	}
}

// observedCount returns the listener count node i observes for count
// actual listeners, applying the configured noise hook.
func (c *coordinator) observedCount(i, count int) int {
	if c.cfg.EstimateListeners != nil {
		count = c.cfg.EstimateListeners(count, &c.nodes[i].src)
		if count < 0 {
			count = 0
		}
	}
	return count
}

// continueProb returns transmitter i's probability of holding the
// channel for another packet after count successful receptions.
func (c *coordinator) continueProb(i, count int) float64 {
	count = c.observedCount(i, count)
	if tbl := c.contProb[c.nodes[i].paramOf]; count < len(tbl) {
		return tbl[count]
	}
	return c.nodes[i].core.ContinueTransmitProb(c.pr(i), c.pr(i).Estimate(count))
}

// listenEstimate is the continuous listener estimate used by the
// non-capture variant's listen->transmit rate: the number of other
// listening neighbors (whose pings the node hears).
func (c *coordinator) listenEstimate(i int) float64 {
	count := 0
	for _, j := range c.neighbors(i) {
		if c.nodes[j].state == model.Listen {
			count++
		}
	}
	return c.pr(i).Estimate(c.observedCount(i, count))
}

// sleepToListen returns node i's eq. (18) sleep->listen rate, zero under
// a busy carrier.
func (c *coordinator) sleepToListen(i int) float64 {
	nd := &c.nodes[i]
	if nd.busy != 0 {
		return 0
	}
	m := &nd.memo
	if e := int64(nd.core.Updates()) + 1; m.sEpoch != e {
		m.s2l = nd.core.SleepToListen(c.pr(i), true)
		m.sEpoch = e
	}
	return m.s2l
}

// listenRates returns node i's eq. (18) listen->sleep and
// listen->transmit rates, zeros under a busy carrier. The Capture rates
// come from the memo; the non-capture rate depends on the listener
// estimate, so it is evaluated afresh, and its estimate is drawn even
// under a busy carrier (the noise hook consumes the node's stream).
func (c *coordinator) listenRates(i int) (toSleep, toTransmit float64) {
	nd := &c.nodes[i]
	carrierFree := nd.busy == 0
	p := c.pr(i)
	if p.Variant == econcast.NonCapture {
		return nd.core.ListenRates(p, carrierFree, c.listenEstimate(i))
	}
	if !carrierFree {
		return 0, 0
	}
	m := &nd.memo
	if e := int64(nd.core.Updates()) + 1; m.lEpoch != e {
		_, m.l2x = nd.core.ListenRates(p, true, 0)
		m.lEpoch = e
	}
	return 1 / p.PacketTime, m.l2x
}

// scheduleTransition samples node i's next state transition from its
// current rates and makes it the node's one pending transition,
// replacing the one it supersedes in place. A node without a timer
// (transmitting, depleted, absent, or frozen by a busy carrier) has its
// pending transition cancelled instead. Either way a suspended
// transition is dropped.
func (c *coordinator) scheduleTransition(i int) {
	dwell, ok := c.sampleDwell(i)
	if !ok {
		c.cancel(i)
		return
	}
	c.arm(i, c.now+dwell)
}

// timed reports whether node i gets a transition timer at all, rates
// aside: transmitting nodes are packet-driven, a sleeper held by the
// hard battery floor waits for a tick to find it recharged, and an
// absent or crashed node is re-checked at its next tick or restart.
func (c *coordinator) timed(i int) bool {
	nd := &c.nodes[i]
	if nd.state == model.Transmit {
		return false
	}
	if c.cfg.HardBatteryFloor && nd.state == model.Sleep && nd.core.Depleted() {
		return false
	}
	return c.active(i, c.now)
}

// sampleDwell draws node i's holding time in its current state from the
// eq. (18) rates; ok is false when the node gets no timer.
func (c *coordinator) sampleDwell(i int) (dwell float64, ok bool) {
	if !c.timed(i) {
		return 0, false
	}
	nd := &c.nodes[i]
	var total float64
	switch nd.state {
	case model.Sleep:
		total = c.sleepToListen(i)
	case model.Listen:
		toSleep, toTransmit := c.listenRates(i)
		total = toSleep + toTransmit
	}
	if total <= 0 {
		return 0, false
	}
	dwell = nd.src.Exp(total)
	if nd.state == model.Sleep {
		// Sleep intervals are timed by the node's low-power clock, which
		// the drift fault scales; listen/transmit timing runs off the
		// (accurate) active-mode clock, as on the testbed hardware.
		dwell *= c.flt.Drift(i)
	}
	return dwell, true
}

// handleTransition fires node i's sampled transition.
func (c *coordinator) handleTransition(i int) {
	c.accrue(i)
	switch c.nodes[i].state {
	case model.Sleep:
		c.setState(i, model.Listen)
		c.onListenSetChanged(i)
		c.scheduleTransition(i)
	case model.Listen:
		toSleep, toTransmit := c.listenRates(i)
		total := toSleep + toTransmit
		if total <= 0 {
			return
		}
		if c.nodes[i].src.Float64()*total < toTransmit {
			c.startTransmission(i)
		} else {
			c.flushBurst(i)
			c.setState(i, model.Sleep)
			c.nodes[i].set(fSleptSince)
			c.onListenSetChanged(i)
			c.scheduleTransition(i)
		}
	}
}

// onListenSetChanged resamples the non-capture listen->transmit rates of
// node i's listening neighbors, whose estimates just changed.
func (c *coordinator) onListenSetChanged(i int) {
	if c.cfg.Protocol.Variant != econcast.NonCapture {
		return
	}
	for _, j := range c.neighbors(i) {
		if c.nodes[j].state == model.Listen {
			c.scheduleTransition(int(j))
		}
	}
}

// startTransmission moves node i from listen to transmit, occupies the
// channel for its neighbors, and begins the first packet of the hold.
func (c *coordinator) startTransmission(i int) {
	if c.nodes[i].busy != 0 {
		// Carrier sensing (the A(t) gate) must make this unreachable.
		panic(fmt.Sprintf("sim: node %d transmitting into a busy channel", i))
	}
	c.flushBurst(i)
	c.setState(i, model.Transmit)
	c.cancel(i) // no timer while transmitting
	c.onListenSetChanged(i)
	// Occupy the channel: each neighbor gains one transmitting neighbor.
	// Hidden-terminal collisions ride the same pass: a neighbor j sitting
	// in any in-flight packet's listener list (listeningTo[j] > 0) now
	// hears two transmitters, so its reception is collided. The collision
	// mark is per node, not per (packet, node) pair, and the listeningTo
	// inversion makes the check one counter load instead of a walk over
	// every nearby packet's listeners.
	for _, j := range c.neighbors(i) {
		h := &c.nodes[j]
		h.busy++
		if h.busy == 1 && h.state != model.Transmit {
			c.freeze(int(j)) // channel became busy for j
		}
		if h.listeningTo > 0 && !h.has(fCollidedInPkt) {
			h.set(fCollidedInPkt)
			if c.measuring {
				c.met.CollidedReceptions++
			}
		}
	}
	c.startPacket(i, 0, false)
}

// startPacket begins one unit packet from transmitter i. burstLen counts
// packets already sent in this hold and delivered whether any earlier
// packet of the hold was received. The listener set is every neighbor
// currently listening; a listener with more than one transmitting
// neighbor is collided from the start.
func (c *coordinator) startPacket(i int, burstLen int32, delivered bool) {
	hi := &c.nodes[i]
	hi.set(fPktActive)
	hi.pktBurstLen = burstLen
	hi.put(fPktDelivered, delivered)
	o, end := c.off[i], c.off[i+1]
	lst := c.lst[o:end]
	nl := int32(0)
	for _, j := range c.nbrs[o:end] {
		h := &c.nodes[j]
		if h.state == model.Listen {
			lst[nl] = j
			nl++
			h.listeningTo++
			h.put(fCollidedInPkt, h.busy > 1)
			if h.has(fCollidedInPkt) && c.measuring {
				c.met.CollidedReceptions++
			}
		}
	}
	hi.nListen = nl
	if c.logging {
		c.logf("%.6f node %d: packet %d of hold, %d listeners",
			c.now, i, burstLen+1, nl) //lint:allow hotalloc trace logging; c.logging is off in measured runs
	}
	c.pkts.push(evq.Key{At: c.now + c.packetTime, Seq: c.nextSeq(i)})
}

// handlePacketEnd completes transmitter i's current packet: deliver
// receptions, re-estimate listeners, and continue or release the channel.
func (c *coordinator) handlePacketEnd(i int) {
	hi := &c.nodes[i]
	if !hi.has(fPktActive) || hi.state != model.Transmit {
		return
	}
	// A stuck (silenced) radio transmits carrier — neighbors still defer —
	// but delivers nothing. Receiver-side loss draws are skipped entirely
	// for silenced packets: no reception was attempted, so the loss
	// streams advance only on real attempts and stay reproducible.
	silenced := c.flt.Silenced(i, c.now)
	success := 0
	for _, j := range c.listeners(i) {
		h := &c.nodes[j]
		h.listeningTo-- // this packet is over; balances startPacket
		if h.state != model.Listen {
			// Left mid-packet (churn departure or crash): no reception.
			h.clear(fCollidedInPkt)
			continue
		}
		if h.has(fCollidedInPkt) {
			h.clear(fCollidedInPkt)
			continue
		}
		if silenced || c.flt.DropRx(int(j), c.now) {
			if c.measuring {
				c.met.LostReceptions++
			}
			continue
		}
		success++
		h.burstCount++
		if c.cfg.OnDeliver != nil {
			c.cfg.OnDeliver(i, int(j), c.now)
		}
		if c.measuring {
			c.met.PacketsDelivered++
			// Burst/latency bookkeeping: first packet of a receive burst.
			if h.burstCount == 1 && h.has(fHasBurst) && h.has(fSleptSince) {
				c.latency = append(c.latency, c.now-c.packetTime-h.lastBurstEnd) //lint:allow hotalloc amortized sample buffer growth
			}
			h.clear(fSleptSince)
		}
		h.lastBurstEnd = c.now
		h.set(fHasBurst)
	}
	if c.measuring {
		c.met.PacketsSent++
		c.gp[i] += float64(success) * c.packetTime
		if success > 0 {
			c.met.PacketsAnyDeliver++
			c.ap[i] += c.packetTime
		}
	}
	if success > 0 {
		hi.set(fPktDelivered)
	}
	// The slot stays readable for the remainder of this handler;
	// startPacket reclaims it on a hold.
	hi.clear(fPktActive)

	// A physically depleted listener is forced to sleep to recharge.
	if c.cfg.HardBatteryFloor {
		for _, j := range c.listeners(i) {
			j := int(j)
			c.accrue(j)
			if nd := &c.nodes[j]; nd.state == model.Listen && nd.core.Depleted() {
				c.flushBurst(j)
				c.setState(j, model.Sleep)
				nd.set(fSleptSince)
				c.cancel(j)
				c.onListenSetChanged(j)
			}
		}
	}

	// Decide whether to hold the channel (EconCast-C) or release; a
	// depleted transmitter must release regardless.
	c.accrue(i)
	cont := c.continueProb(i, success)
	forced := c.cfg.HardBatteryFloor && hi.core.Depleted()
	if !c.active(i, c.now) {
		forced = true // departed or crashed: release the channel now
	}
	if !forced && hi.src.Bernoulli(cont) {
		c.startPacket(i, hi.pktBurstLen+1, hi.has(fPktDelivered))
		return
	}
	// Hold complete: record its length if it reached any receiver.
	if hi.has(fPktDelivered) && c.measuring {
		c.bl[i].Add(float64(hi.pktBurstLen + 1))
	}
	// Release: transmitter returns to listen (Fig. 1), neighbors unfreeze.
	c.setState(i, model.Listen)
	c.scheduleTransition(i)
	c.release(i)
	c.onListenSetChanged(i)
}

// flushBurst closes node i's receive burst (used by the latency metric;
// burst-length samples themselves are recorded per channel hold).
func (c *coordinator) flushBurst(i int) {
	c.nodes[i].burstCount = 0
}

// handleTick advances energy bookkeeping (forcing the eq. 17 update to
// land exactly on the tau boundary) and resamples the node's transition,
// since its rates depend on the refreshed multiplier. The tick cursor
// schedules the next tick.
func (c *coordinator) handleTick(i int) {
	c.accrue(i)
	// Departure: an absent node abandons listening (transmitters finish
	// their current hold first; the packet machinery owns that state).
	if !c.active(i, c.now) && c.nodes[i].state == model.Listen {
		c.flushBurst(i)
		c.setState(i, model.Sleep)
		c.nodes[i].set(fSleptSince)
		c.cancel(i)
		c.onListenSetChanged(i)
	}
	if c.cfg.OnTick != nil {
		nd := c.cfg.Network.Nodes[i]
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		c.cfg.OnTick(i, c.now, c.nodes[i].core.Eta/p0)
	}
	if c.nodes[i].state != model.Transmit {
		c.scheduleTransition(i)
	}
}

// handleFault realizes one fault-schedule boundary for node i: a crash
// edge parks the node (releasing the channel mid-hold if it was
// transmitting), while a restart or a brownout/silence edge simply
// resamples its transition so the new regime takes effect immediately.
func (c *coordinator) handleFault(i int) {
	c.accrue(i)
	if c.flt.Alive(i, c.now) {
		if c.nodes[i].state != model.Transmit {
			c.scheduleTransition(i)
		}
		return
	}
	// Crashed. A transmitter abandons its hold: the in-flight packet
	// dies undelivered and the channel is released for its neighbors.
	switch c.nodes[i].state {
	case model.Transmit:
		if hi := &c.nodes[i]; hi.has(fPktActive) {
			for _, j := range c.listeners(i) {
				h := &c.nodes[j]
				h.listeningTo--
				h.clear(fCollidedInPkt)
			}
			hi.clear(fPktActive)
		}
		c.setState(i, model.Sleep)
		c.cancel(i)
		c.release(i)
		c.onListenSetChanged(i)
	case model.Listen:
		c.flushBurst(i)
		c.setState(i, model.Sleep)
		c.nodes[i].set(fSleptSince)
		c.cancel(i)
		c.onListenSetChanged(i)
	default:
		c.cancel(i) // any pending wake-up; stays down until restart
	}
}

// finish assembles the metrics. Per-node accumulations fold in
// ascending node order, so the result does not depend on how the
// dispatch schedule interleaved the nodes.
func (c *coordinator) finish() *Metrics {
	c.met.Latency = stats.NewCDF(c.latency)
	window := c.cfg.Duration - c.cfg.Warmup
	c.met.Window = window
	for i := 0; i < c.n; i++ {
		c.met.Groupput += c.gp[i]
		c.met.Anyput += c.ap[i]
		c.met.BurstLengths.Merge(c.bl[i])
	}
	c.met.Groupput /= window
	c.met.Anyput /= window
	// Order audit: each occupancy entry is scaled independently at its own
	// key — no cross-key accumulation — so iteration order cannot affect
	// the result (econlint's maprange proves this shape order-insensitive).
	for s := range c.met.Occupancy {
		c.met.Occupancy[s] /= window
	}
	c.met.Power = make([]float64, c.n)
	c.met.EtaFinal = make([]float64, c.n)
	c.met.Battery = make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		nd := c.cfg.Network.Nodes[i]
		// Mean consumption over the window: harvest - net battery gain.
		core := &c.nodes[i].core
		gained := core.Battery - c.warmupBattery[i]
		c.met.Power[i] = nd.Budget - gained/window
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		c.met.EtaFinal[i] = core.Eta / p0
		c.met.Battery[i] = core.Battery
	}
	c.met.FaultTrace = c.flt.Trace()
	return &c.met
}
