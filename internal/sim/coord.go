// The event engine. Every run goes through the coordinator: it
// partitions nodes into spatial shards (internal/topology's Partition;
// a clique, or any topology below autoShardMinN nodes, is one shard),
// gives each shard its own event heaps, and keeps node state in flat
// per-node arrays — every dispatch-path scalar packed into one cache
// line per node — so the per-event working set is dense. Each node has
// at most one pending transition, held in its shard's indexed
// transition heap with its key inline: a resample replaces it in place
// and a departure or crash cancels it there, so superseded transitions
// never linger in a heap. A carrier freeze suspends it instead: the
// residual dwell moves into the node's hot line and is re-armed, with
// no draw, when the carrier frees up (see freeze; memorylessness keeps
// the law). Rates that depend on the multiplier alone are memoized per
// multiplier epoch. Dispatch order is one global (time, key) order: the
// coordinator maintains an indexed min-heap over shard heads and lets
// the leading shard drain a run of events conservatively bounded by the
// earliest event of any other shard (the lookahead bound),
// resynchronizing whenever an event pushes across a shard boundary.
// With one shard the bound is infinite and the whole run is a single
// batch. Because the dispatch order, the per-node RNG streams, and the
// content-derived event keys do not depend on the partition, results
// are byte-identical by construction — for any shard count, and at any
// sweep worker count above it.
//
// The per-event cost is O(degree) regardless of N: instead of walking
// every in-flight packet's listeners on each transmission start to find
// hidden-terminal collisions, the coordinator inverts the listener
// relation into a per-node counter (listeningTo), so a start checks
// only its own neighbors; and on large topologies each shard's event
// heap stays small enough that heap churn is cache-resident.
package sim

import (
	"fmt"
	"math"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/stats"
	"econcast/internal/topology"
)

// coordinator is the engine: SoA node state, the shard scheduling
// structures, and the dispatch clock and counters. One goroutine drives
// it; the event handlers are its methods.
//
//lint:owner sim-engine the event-loop goroutine owns all coordinator state
type coordinator struct {
	cfg  Config
	n    int
	topo *topology.Topology
	flt  *faults.Set

	tau     float64
	horizon float64 // cfg.Duration, copied next to the other hot scalars
	shift   uint    // node-id bit width of the event key

	// The dispatch clock: the time and Lamport clock of the event being
	// dispatched, and whether it falls inside the measurement window.
	now        float64
	curLamport uint64
	measuring  bool

	shards []shardRuntime

	// order is an indexed binary min-heap of shard ids keyed by each
	// shard's earliest event (at, seq); pos[s] is shard s's position in
	// order, -1 while its heaps are empty or while it is the detached
	// current shard. The draining shard is removed from the heap for the
	// duration of its batch, so the heap stays fully valid and every
	// cross-shard push or cancel can repair its target's position
	// immediately.
	order   []int32
	pos     []int32
	current int32 // shard being drained; pushes elsewhere set crossed
	crossed bool
	done    bool // horizon reached

	// batchLimit caps events per drain batch; 0 means unlimited. The
	// benchmarks set 1 so ns/op measures exactly one event through the
	// full dispatch path.
	batchLimit int

	// rngs holds one independent stream per node (derived from the run
	// seed via rng.DeriveSeed); every draw is attributed to the node whose
	// transition, packet decision, or estimate it realizes, so each
	// stream's draw sequence is a function of that node's event history
	// alone — identical at every shard count.
	rngs []rng.Source

	// hot is the cache-line-packed per-node state: one 64-byte record
	// per node holding every scalar the dispatch path reads or writes —
	// the node's dynamic state, its Lamport clock, its packet slot's
	// scalars, the listener counter, and its shard and parameter-block
	// indices — so an event on a node loads one line of per-node state
	// besides its protocol core.
	hot []nodeHot

	// cores is the per-node protocol dynamic state (64 bytes each);
	// params holds the deduplicated immutable parameter blocks that
	// hot[i].paramOf indexes, and harvest the per-node harvest wrappers.
	// Splitting econcast.Node this way keeps the per-node footprint at
	// one cache line for the dispatch path plus one for the energy ledger.
	cores   []econcast.Core
	params  []econcast.Params
	harvest []func(float64) float64

	// memo caches each node's eta-only rates per multiplier epoch (see
	// rateMemo); contProb[p][k] is parameter block p's EconCast-C
	// continue probability for an estimate of k listeners, for every k up
	// to the maximum degree.
	memo     []rateMemo
	contProb [][]float64

	// nbr[i] is node i's neighbor set (precomputed, sorted), and
	// pktListeners[i] the listener list of node i's packet slot. Each is
	// a window of one contiguous slab with capacity deg(i); listeners are
	// a subset of neighbors, so starting a packet never reallocates.
	nbr          [][]int
	pktListeners [][]int

	// headAt/headSeq cache each shard's earliest-event key. shardLess
	// reads these two dense arrays (hot in cache at any shard count)
	// instead of chasing into per-shard heap storage; fix refreshes a
	// shard's entry whenever its head may have changed.
	headAt  []float64
	headSeq []uint64

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
	// inter-burst samples, sealed into a sorted CDF by finish.
	met        Metrics
	latency    []float64
	occStarted bool
	occLast    float64
}

// nodeHot packs one node's dispatch-path state into a single 64-byte
// cache line. Booleans are bits of flags.
type nodeHot struct {
	lastUpdate   float64
	lastBurstEnd float64
	// lamport is the node's logical clock for the canonical event order;
	// see coordinator.nextSeq for the key construction.
	lamport uint64
	// resid is the residual dwell of a transition suspended by a carrier
	// freeze, valid while fSuspended is set (see coordinator.freeze).
	resid      float64
	busy       int32 // transmitting neighbors (carrier sense)
	burstCount int32
	// listeningTo counts the in-flight packets whose listener list holds
	// this node (a node frozen in Listen can be captured by several
	// overlapping packets). It inverts the pktListeners relation, so the
	// hidden-terminal check at transmission start is one counter load per
	// neighbor instead of a scan over every nearby in-flight packet.
	listeningTo int32
	pktBurstLen int32 // packets already sent in the slot's current hold
	shardOf     int32 // owning shard; immutable after construction
	paramOf     int32 // index into coordinator.params; immutable
	state       model.State
	flags       uint8
	_           [6]byte // pad to 64 bytes; see TestNodeHotSize
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
	fWarmSnapped
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

func newCoordinator(cfg Config, flt *faults.Set, shards int) *coordinator {
	n := cfg.Network.N()
	c := &coordinator{
		cfg:        cfg,
		n:          n,
		horizon:    cfg.Duration,
		shift:      seqShift(n),
		topo:       cfg.Topology,
		flt:        flt,
		logging:    cfg.EventLog != nil,
		packetTime: model.DefaultIfZero(cfg.Protocol.PacketTime, 1e-3),

		rngs:    make([]rng.Source, n),
		hot:     make([]nodeHot, n),
		cores:   make([]econcast.Core, n),
		harvest: make([]func(float64) float64, n),
		memo:    make([]rateMemo, n),

		nbr:          make([][]int, n),
		pktListeners: make([][]int, n),

		gp:            make([]float64, n),
		ap:            make([]float64, n),
		bl:            make([]stats.Accumulator, n),
		warmupBattery: make([]float64, n),
	}
	if cfg.TrackOccupancy {
		c.met.Occupancy = make(map[model.NetState]float64)
	}
	part := topology.NewPartition(cfg.Topology, shards)
	ns := part.Shards()
	c.shards = make([]shardRuntime, ns)
	owned := make([]int, ns)
	for i := 0; i < n; i++ {
		owned[part.ShardOf(i)]++
	}
	// One heap position per node, shared by the shards' transition heaps;
	// each heap is pre-sized to the nodes its shard owns, its exact bound.
	tpos := make([]int32, n)
	for i := range tpos {
		tpos[i] = -1
	}
	for s := range c.shards {
		c.shards[s].id = int32(s)
		c.shards[s].trans = transHeap{keys: make([]transKey, 0, owned[s]), pos: tpos, mask: 1<<c.shift - 1}
	}
	c.order = make([]int32, 0, ns)
	c.pos = make([]int32, ns)
	c.headAt = make([]float64, ns)
	c.headSeq = make([]uint64, ns)
	for s := range c.pos {
		c.pos[s] = -1
	}
	c.current = -1
	degSum, maxDeg := 0, 0
	for i := 0; i < n; i++ {
		d := c.topo.Degree(i)
		degSum += d
		maxDeg = max(maxDeg, d)
	}
	nbrSlab := make([]int, degSum)
	lstSlab := make([]int, degSum)
	off := 0
	for i := 0; i < n; i++ {
		d := copy(nbrSlab[off:], c.topo.Neighbors(i))
		c.nbr[i] = nbrSlab[off : off+d : off+d]
		c.pktListeners[i] = lstSlab[off : off : off+d]
		off += d
		c.hot[i].shardOf = int32(part.ShardOf(i))
		c.rngs[i] = *rng.New(rng.DeriveSeed(cfg.Seed, rngNodeDomain, uint64(i)))
	}
	// Parameter blocks are immutable and comparable, so identical nodes
	// share one block: a homogeneous network keeps a single Params hot in
	// cache instead of n copies interleaved with the dynamic state.
	seen := make(map[econcast.Params]int32, 1)
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
		par := econcast.NewParams(pc)
		id, ok := seen[par]
		if !ok {
			id = int32(len(c.params))
			c.params = append(c.params, par)
			seen[par] = id
		}
		c.hot[i].paramOf = id
		// Brownouts scale the node's harvest inside their windows. A
		// wrapper is installed only when a profile or a brownout schedule
		// exists for this node, so every other node keeps the exact
		// constant-budget integration path bit for bit.
		if v := flt.View(i); cfg.Harvest != nil {
			node := i
			if v.HasBrownout() {
				c.harvest[i] = func(t float64) float64 { return cfg.Harvest(node, t) * v.HarvestScale(t) }
			} else {
				c.harvest[i] = func(t float64) float64 { return cfg.Harvest(node, t) }
			}
		} else if v.HasBrownout() {
			budget := nd.Budget
			c.harvest[i] = func(t float64) float64 { return budget * v.HarvestScale(t) }
		}
		c.cores[i] = econcast.NewCore(cfg.InitialBattery)
		c.hot[i].state = model.Sleep
		c.hot[i].lastBurstEnd = -1
		if cfg.WarmEta != nil {
			p0 := math.Max(nd.ListenPower, nd.TransmitPower)
			c.cores[i].Eta = cfg.WarmEta[i] * p0
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
	return c
}

// pr returns node i's shared parameter block.
func (c *coordinator) pr(i int) *econcast.Params { return &c.params[c.hot[i].paramOf] }

func (c *coordinator) run() {
	c.start()
	for c.step() {
	}
	c.drain()
}

// start seeds every node's first transition and multiplier tick plus
// all of its fault-schedule boundaries, in node order. Fault boundaries
// are pushed once here — the steady-state loop never schedules fault
// events, so the fault-free hot path is untouched.
func (c *coordinator) start() {
	c.tau = c.params[0].Tau
	for i := 0; i < c.n; i++ {
		c.scheduleTransition(i)
		c.push(event{at: c.tau, kind: evTick, node: i})
		node := i
		c.flt.Boundaries(i, func(at float64) {
			c.push(event{at: at, kind: evFault, node: node})
		})
	}
	c.crossed = false
}

// step runs one coordinator round: pick the shard owning the globally
// earliest event, detach it from the heap, let it drain up to the
// conservative lookahead bound (the earliest event of any other shard —
// the root of the remaining heap), and re-attach it. It returns false
// once every shard is empty or the horizon was reached.
func (c *coordinator) step() bool {
	if c.done || len(c.order) == 0 {
		return false
	}
	s := c.order[0]
	// Detach s for the duration of its batch: its head changes with every
	// pop and push, and the eager cross-shard fixes in push are only sound
	// against a heap that is valid everywhere. A stale s left at the root
	// would let a pushed-to shard rise to the root from the other subtree
	// without ever being compared against the true minimum of the
	// remaining shards.
	last := len(c.order) - 1
	c.orderSwap(0, last)
	c.order = c.order[:last]
	c.pos[s] = -1
	if last > 0 {
		c.siftDown(0)
	}
	boundAt := math.Inf(1)
	boundSeq := uint64(0)
	if len(c.order) > 0 {
		b := c.order[0]
		boundAt, boundSeq = c.headAt[b], c.headSeq[b]
	}
	c.shards[s].run(c, boundAt, boundSeq)
	c.fix(s) // re-attach; a no-op if the batch drained the shard
	return !c.done
}

// drain performs the final energy (and occupancy) accrual to the horizon.
func (c *coordinator) drain() {
	if c.cfg.TrackOccupancy && c.measuring {
		c.accrueOccupancy(c.cfg.Duration)
	}
	c.now = c.cfg.Duration
	for i := 0; i < c.n; i++ {
		c.accrue(i)
	}
}

// dispatch realizes one event; the drain loop has already checked it
// against the horizon.
func (c *coordinator) dispatch(ev event) {
	c.met.Events++
	if c.cfg.TrackOccupancy && c.measuring {
		c.accrueOccupancy(ev.at)
	}
	c.now = ev.at
	c.curLamport = ev.seq >> c.shift
	c.measuring = c.now >= c.cfg.Warmup
	if c.cfg.TrackOccupancy && c.measuring && !c.occStarted {
		c.occStarted = true
		c.occLast = c.now
	}
	switch ev.kind {
	case evTransition:
		c.handleTransition(ev.node)
	case evPacketEnd:
		c.handlePacketEnd(ev.node)
	case evTick:
		c.handleTick(ev.node, c.tau)
	case evFault:
		c.handleFault(ev.node)
	}
}

// nextSeq advances node i's Lamport clock and returns the canonical
// content-derived key of the event being scheduled for it.
//
// The key is seq = l << shift | node, where l = max(lamport[node],
// curLamport) + 1 and curLamport is the clock of the event being
// dispatched. Keys are unique (per-node clocks strictly increase),
// children sort strictly after their parents even at equal times, and —
// because the key is derived from event content rather than from a
// global push counter — the key of every event is independent of the
// dispatch schedule that produced it. See DESIGN.md §9.
func (c *coordinator) nextSeq(i int) uint64 {
	h := &c.hot[i]
	l := h.lamport
	if c.curLamport > l {
		l = c.curLamport
	}
	l++
	h.lamport = l
	return l<<c.shift | uint64(i)
}

// push keys the event (nextSeq) and enqueues it on its node's shard,
// repairing that shard's heap position eagerly when it is not the one
// draining.
func (c *coordinator) push(ev event) {
	ev.seq = c.nextSeq(ev.node)
	s := c.hot[ev.node].shardOf
	c.shards[s].queue.push(ev)
	if s != c.current {
		c.crossed = true
		c.fix(s)
	}
}

// shardLess orders shards by their earliest event, read from the dense
// head-key cache (refreshed by fix).
func (c *coordinator) shardLess(a, b int32) bool {
	if c.headAt[a] != c.headAt[b] { //lint:allow floateq exact tie detection so equal-time events fall through to the seq tiebreak
		return c.headAt[a] < c.headAt[b]
	}
	return c.headSeq[a] < c.headSeq[b]
}

// fix restores shard s's position in the indexed heap after its head
// may have changed (or the shard emptied or became non-empty),
// refreshing its cached head key first. Sound only when every other
// heap entry is clean — guaranteed because the draining shard is
// detached and every cross-shard push, set or cancel fixes its target
// immediately.
func (c *coordinator) fix(s int32) {
	i := c.pos[s]
	at, seq, _, ok := c.shards[s].head()
	if !ok {
		if i < 0 {
			return
		}
		last := len(c.order) - 1
		c.orderSwap(int(i), last)
		c.order = c.order[:last]
		c.pos[s] = -1
		if int(i) < last {
			c.fixPos(int(i))
		}
		return
	}
	c.headAt[s], c.headSeq[s] = at, seq
	if i < 0 {
		c.pos[s] = int32(len(c.order))
		c.order = append(c.order, s) //lint:allow hotalloc capacity reaches the shard count and stays
		c.siftUp(len(c.order) - 1)
		return
	}
	c.fixPos(int(i))
}

// fixPos re-heaps the element at position i: sift up, and only if it
// did not rise, sift down (container/heap's Fix discipline).
func (c *coordinator) fixPos(i int) {
	s := c.order[i]
	c.siftUp(i)
	if c.pos[s] == int32(i) {
		c.siftDown(i)
	}
}

func (c *coordinator) orderSwap(i, j int) {
	c.order[i], c.order[j] = c.order[j], c.order[i]
	c.pos[c.order[i]] = int32(i)
	c.pos[c.order[j]] = int32(j)
}

func (c *coordinator) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.shardLess(c.order[i], c.order[parent]) {
			return
		}
		c.orderSwap(i, parent)
		i = parent
	}
}

func (c *coordinator) siftDown(i int) {
	n := len(c.order)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && c.shardLess(c.order[r], c.order[child]) {
			child = r
		}
		if !c.shardLess(c.order[child], c.order[i]) {
			return
		}
		c.orderSwap(i, child)
		i = child
	}
}

// ---- handlers ----

// accrue advances node i's battery and multiplier bookkeeping to now.
// Multiplier boundaries are also forced by evTick events, so eta changes
// land exactly on tau multiples regardless of event spacing.

func (c *coordinator) accrue(i int) {
	h := &c.hot[i]
	if !h.has(fWarmSnapped) && c.now >= c.cfg.Warmup {
		// First accrual at or past the warmup boundary: advance exactly to
		// the boundary, snapshot the battery for the Power metric, and
		// continue from there. The split point is per-node and depends only
		// on the node's own accrual history, so batteries come out
		// bit-identical at every shard count.
		if dt := c.cfg.Warmup - h.lastUpdate; dt > 0 {
			c.cores[i].Advance(c.pr(i), c.harvest[i], dt, h.state)
		}
		h.lastUpdate = c.cfg.Warmup
		c.warmupBattery[i] = c.cores[i].Battery
		h.set(fWarmSnapped)
	}
	if dt := c.now - h.lastUpdate; dt > 0 {
		c.cores[i].Advance(c.pr(i), c.harvest[i], dt, h.state)
		h.lastUpdate = c.now
	}
}

// cancel deletes node i's pending transition, if any, from its shard's
// transition heap in place, and drops a suspended one. A cancel on a
// foreign shard can only raise that shard's head, which leaves the
// drain's lookahead bound conservative, so unlike a push it does not end
// the batch; it still repairs the shard's heap position (a no-op when
// nothing was pending).
func (c *coordinator) cancel(i int) {
	c.hot[i].clear(fSuspended)
	s := c.hot[i].shardOf
	c.shards[s].trans.remove(i)
	if s != c.current {
		c.fix(s)
	}
}

// arm makes at node i's pending transition under a fresh key, replacing
// any it had in place and dropping a suspended one.
func (c *coordinator) arm(i int, at float64) {
	c.hot[i].clear(fSuspended)
	s := c.hot[i].shardOf
	c.shards[s].trans.set(i, at, c.nextSeq(i))
	if s != c.current {
		c.crossed = true
		c.fix(s)
	}
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
	h := &c.hot[i]
	if h.state == model.Listen && c.cfg.Protocol.Variant == econcast.NonCapture {
		c.scheduleTransition(i)
		return
	}
	s := h.shardOf
	if k, ok := c.shards[s].trans.remove(i); ok {
		h.resid = k.at - c.now
		h.set(fSuspended)
	}
	if s != c.current {
		c.fix(s)
	}
}

// unfreeze restarts node i's clock when its carrier frees up: a
// suspended transition is re-armed at now + resid if the node still
// gets a timer at all, and anything else is sampled afresh.
func (c *coordinator) unfreeze(i int) {
	if c.hot[i].has(fSuspended) && c.timed(i) {
		c.arm(i, c.now+c.hot[i].resid)
		return
	}
	c.scheduleTransition(i)
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
		switch c.hot[i].state {
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
		c.logf("%.6f node %d: %v -> %v", c.now, i, c.hot[i].state, st) //lint:allow hotalloc trace logging; c.logging is off in measured runs
	}
	c.hot[i].state = st
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
		count = c.cfg.EstimateListeners(count, &c.rngs[i])
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
	if tbl := c.contProb[c.hot[i].paramOf]; count < len(tbl) {
		return tbl[count]
	}
	return c.cores[i].ContinueTransmitProb(c.pr(i), c.pr(i).Estimate(count))
}

// listenEstimate is the continuous listener estimate used by the
// non-capture variant's listen->transmit rate: the number of other
// listening neighbors (whose pings the node hears).
func (c *coordinator) listenEstimate(i int) float64 {
	count := 0
	for _, j := range c.nbr[i] {
		if c.hot[j].state == model.Listen {
			count++
		}
	}
	return c.pr(i).Estimate(c.observedCount(i, count))
}

// sleepToListen returns node i's eq. (18) sleep->listen rate, zero under
// a busy carrier.
func (c *coordinator) sleepToListen(i int) float64 {
	if c.hot[i].busy != 0 {
		return 0
	}
	m := &c.memo[i]
	if e := int64(c.cores[i].Updates()) + 1; m.sEpoch != e {
		m.s2l = c.cores[i].SleepToListen(c.pr(i), true)
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
	carrierFree := c.hot[i].busy == 0
	p := c.pr(i)
	if p.Variant == econcast.NonCapture {
		return c.cores[i].ListenRates(p, carrierFree, c.listenEstimate(i))
	}
	if !carrierFree {
		return 0, 0
	}
	m := &c.memo[i]
	if e := int64(c.cores[i].Updates()) + 1; m.lEpoch != e {
		_, m.l2x = c.cores[i].ListenRates(p, true, 0)
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
	h := &c.hot[i]
	if h.state == model.Transmit {
		return false
	}
	if c.cfg.HardBatteryFloor && h.state == model.Sleep && c.cores[i].Depleted() {
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
	h := &c.hot[i]
	var total float64
	switch h.state {
	case model.Sleep:
		total = c.sleepToListen(i)
	case model.Listen:
		toSleep, toTransmit := c.listenRates(i)
		total = toSleep + toTransmit
	}
	if total <= 0 {
		return 0, false
	}
	dwell = c.rngs[i].Exp(total)
	if h.state == model.Sleep {
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
	switch c.hot[i].state {
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
		if c.rngs[i].Float64()*total < toTransmit {
			c.startTransmission(i)
		} else {
			c.flushBurst(i)
			c.setState(i, model.Sleep)
			c.hot[i].set(fSleptSince)
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
	for _, j := range c.nbr[i] {
		if c.hot[j].state == model.Listen {
			c.scheduleTransition(j)
		}
	}
}

// startTransmission moves node i from listen to transmit, occupies the
// channel for its neighbors, and begins the first packet of the hold.
func (c *coordinator) startTransmission(i int) {
	if c.hot[i].busy != 0 {
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
	for _, j := range c.nbr[i] {
		h := &c.hot[j]
		h.busy++
		if h.busy == 1 && h.state != model.Transmit {
			c.freeze(j) // channel became busy for j
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
	hi := &c.hot[i]
	hi.set(fPktActive)
	hi.pktBurstLen = burstLen
	hi.put(fPktDelivered, delivered)
	listeners := c.pktListeners[i][:0]
	for _, j := range c.nbr[i] {
		h := &c.hot[j]
		if h.state == model.Listen {
			listeners = append(listeners, j) //lint:allow hotalloc capacity is deg(i) and listeners are a subset of neighbors, so this never reallocates
			h.listeningTo++
			h.put(fCollidedInPkt, h.busy > 1)
			if h.has(fCollidedInPkt) && c.measuring {
				c.met.CollidedReceptions++
			}
		}
	}
	c.pktListeners[i] = listeners
	if c.logging {
		c.logf("%.6f node %d: packet %d of hold, %d listeners",
			c.now, i, burstLen+1, len(listeners)) //lint:allow hotalloc trace logging; c.logging is off in measured runs
	}
	c.push(event{at: c.now + c.packetTime, kind: evPacketEnd, node: i})
}

// handlePacketEnd completes transmitter i's current packet: deliver
// receptions, re-estimate listeners, and continue or release the channel.
func (c *coordinator) handlePacketEnd(i int) {
	hi := &c.hot[i]
	if !hi.has(fPktActive) || hi.state != model.Transmit {
		return
	}
	// A stuck (silenced) radio transmits carrier — neighbors still defer —
	// but delivers nothing. Receiver-side loss draws are skipped entirely
	// for silenced packets: no reception was attempted, so the loss
	// streams advance only on real attempts and stay reproducible.
	silenced := c.flt.Silenced(i, c.now)
	success := 0
	for _, j := range c.pktListeners[i] {
		h := &c.hot[j]
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
		if silenced || c.flt.DropRx(j, c.now) {
			if c.measuring {
				c.met.LostReceptions++
			}
			continue
		}
		success++
		h.burstCount++
		if c.cfg.OnDeliver != nil {
			c.cfg.OnDeliver(i, j, c.now)
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
		for _, j := range c.pktListeners[i] {
			c.accrue(j)
			if c.hot[j].state == model.Listen && c.cores[j].Depleted() {
				c.flushBurst(j)
				c.setState(j, model.Sleep)
				c.hot[j].set(fSleptSince)
				c.cancel(j)
				c.onListenSetChanged(j)
			}
		}
	}

	// Decide whether to hold the channel (EconCast-C) or release; a
	// depleted transmitter must release regardless.
	c.accrue(i)
	cont := c.continueProb(i, success)
	forced := c.cfg.HardBatteryFloor && c.cores[i].Depleted()
	if !c.active(i, c.now) {
		forced = true // departed or crashed: release the channel now
	}
	if !forced && c.rngs[i].Bernoulli(cont) {
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
	for _, j := range c.nbr[i] {
		h := &c.hot[j]
		h.busy--
		if h.busy == 0 && h.state != model.Transmit {
			c.unfreeze(j)
		}
	}
	c.onListenSetChanged(i)
}

// flushBurst closes node i's receive burst (used by the latency metric;
// burst-length samples themselves are recorded per channel hold).
func (c *coordinator) flushBurst(i int) {
	c.hot[i].burstCount = 0
}

// handleTick advances energy bookkeeping (forcing the eq. 17 update to
// land exactly on the tau boundary) and resamples the node's transition,
// since its rates depend on the refreshed multiplier.
func (c *coordinator) handleTick(i int, tau float64) {
	c.accrue(i)
	// Departure: an absent node abandons listening (transmitters finish
	// their current hold first; the packet machinery owns that state).
	if !c.active(i, c.now) && c.hot[i].state == model.Listen {
		c.flushBurst(i)
		c.setState(i, model.Sleep)
		c.hot[i].set(fSleptSince)
		c.cancel(i)
		c.onListenSetChanged(i)
	}
	if c.cfg.OnTick != nil {
		nd := c.cfg.Network.Nodes[i]
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		c.cfg.OnTick(i, c.now, c.cores[i].Eta/p0)
	}
	if c.hot[i].state != model.Transmit {
		c.scheduleTransition(i)
	}
	c.push(event{at: c.now + tau, kind: evTick, node: i})
}

// handleFault realizes one fault-schedule boundary for node i: a crash
// edge parks the node (releasing the channel mid-hold if it was
// transmitting), while a restart or a brownout/silence edge simply
// resamples its transition so the new regime takes effect immediately.
func (c *coordinator) handleFault(i int) {
	c.accrue(i)
	if c.flt.Alive(i, c.now) {
		if c.hot[i].state != model.Transmit {
			c.scheduleTransition(i)
		}
		return
	}
	// Crashed. A transmitter abandons its hold: the in-flight packet
	// dies undelivered and the channel is released for its neighbors.
	switch c.hot[i].state {
	case model.Transmit:
		if hi := &c.hot[i]; hi.has(fPktActive) {
			for _, j := range c.pktListeners[i] {
				h := &c.hot[j]
				h.listeningTo--
				h.clear(fCollidedInPkt)
			}
			hi.clear(fPktActive)
		}
		c.setState(i, model.Sleep)
		c.cancel(i)
		for _, j := range c.nbr[i] {
			h := &c.hot[j]
			h.busy--
			if h.busy == 0 && h.state != model.Transmit {
				c.unfreeze(j)
			}
		}
		c.onListenSetChanged(i)
	case model.Listen:
		c.flushBurst(i)
		c.setState(i, model.Sleep)
		c.hot[i].set(fSleptSince)
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
		gained := c.cores[i].Battery - c.warmupBattery[i]
		c.met.Power[i] = nd.Budget - gained/window
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		c.met.EtaFinal[i] = c.cores[i].Eta / p0
		c.met.Battery[i] = c.cores[i].Battery
	}
	c.met.FaultTrace = c.flt.Trace()
	return &c.met
}
