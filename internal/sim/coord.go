// Sharded spatial-interference engine. For non-clique topologies the
// coordinator partitions nodes into spatial shards (internal/topology's
// Partition), gives each shard its own event heap, and keeps node state
// in flat per-node arrays — every dispatch-path scalar packed into one
// cache line per node — so the per-event working set is dense.
// Dispatch order is the global (time, key) order of the single-queue
// engine: the coordinator maintains an indexed min-heap over shard
// queue heads and lets the leading shard drain a run of events
// conservatively bounded by the earliest event of any other shard (the
// lookahead bound), resynchronizing whenever an event pushes across a
// shard boundary. Because the dispatch order, the per-node RNG
// streams, and the content-derived event keys are exactly those of the
// single-queue engine, results are byte-identical by construction — for
// any shard count, and at any sweep worker count above it.
//
// The handler bodies live on dispCtx, a per-dispatcher view over the
// shared SoA state: the serial coordinator drives a single dispCtx from
// its event-loop goroutine, and the parallel engine (par.go) gives each
// shard worker its own dispCtx over the same arrays, so both engines
// execute literally the same handler code. Everything a handler mutates
// is either owned by the event's node (SoA entries, per-node RNG
// streams and metric accumulators) or private to the dispCtx (clock,
// counters, latency buffer), which is what makes the parallel schedule
// equivalent to this serial one — see DESIGN.md §9.
//
// The performance win of sharding alone is spatial: the single-queue
// engine's hidden-terminal collision scan walks every node's packet
// slot on each transmission start (O(N)); the coordinator inverts the
// listener relation into a per-node counter (listeningTo), so a start
// checks only its own neighbors — O(degree) regardless of N — and each
// shard's event heap stays small enough that heap churn is
// cache-resident.
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

// coordinator is the sharded engine: SoA node state plus the shard
// scheduling structures. In a serial run exactly one goroutine drives
// it; in a parallel run (par.go) shard workers share the SoA arrays
// under the window-synchronization protocol and the scheduling fields
// (order/pos/current/crossed) stay idle.
//
//lint:owner sim-engine the event-loop goroutine owns all coordinator state
type coordinator struct {
	cfg  Config
	n    int
	topo *topology.Topology
	part *topology.Partition
	flt  *faults.Set

	tau     float64
	horizon float64 // cfg.Duration, copied next to the other hot scalars
	shift   uint    // node-id bit width of the event key

	// split, when true, routes events at interior nodes (Depths > wdepth,
	// marked fInterior) into each shard's separate interior heap so the
	// parallel engine (par.go) can drain interior prefixes concurrently;
	// the serial engine leaves it false and uses one heap per shard.
	split  bool
	wdepth int

	shards []shardRuntime

	// order is an indexed binary min-heap of shard ids keyed by each
	// shard's earliest event (at, seq); pos[s] is shard s's position in
	// order, -1 while its queue is empty or while it is the detached
	// current shard. The draining shard is removed from the heap for the
	// duration of its batch, so the heap stays fully valid and every
	// cross-shard push can repair its target's position immediately.
	order   []int32
	pos     []int32
	current int32 // shard being drained; pushes elsewhere set crossed
	crossed bool
	done    bool // horizon reached

	// batchLimit caps events per drain batch; 0 means unlimited. The
	// benchmarks set 1 so ns/op measures exactly one event through the
	// full dispatch path.
	batchLimit int

	// rngs holds one independent stream per node; every draw is
	// attributed to the node whose transition, packet decision, or
	// estimate it realizes, so each stream's draw sequence is a function
	// of that node's event history alone — identical across the
	// single-queue, serial-sharded, and parallel engines.
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

	// nbr[i] is node i's neighbor set (precomputed, sorted), and
	// pktListeners[i] the listener list of node i's packet slot. Each is
	// a window of one contiguous slab with capacity deg(i); listeners are
	// a subset of neighbors, so starting a packet never reallocates.
	nbr          [][]int
	pktListeners [][]int

	// headAt/headSeq cache each shard's earliest-event key. shardLess
	// reads these two dense arrays (hot in cache at any shard count)
	// instead of chasing into per-shard queue storage; fix refreshes a
	// shard's entry whenever its head may have changed.
	headAt  []float64
	headSeq []uint64

	logging    bool
	packetTime float64

	// onDispatch, when non-nil, observes every dispatched event in order
	// (test instrumentation; nil in production runs).
	onDispatch func(event)

	// Canonical per-node metric accumulation (see engine): throughput
	// seconds and burst moments are attributed to the transmitter and
	// folded in node order by finish, so the totals are independent of
	// the dispatch schedule's interleaving across nodes.
	gp            []float64
	ap            []float64
	bl            []stats.Accumulator
	warmupBattery []float64

	met        Metrics
	occStarted bool
	occLast    float64

	// ctx is the serial dispatcher; the parallel engine builds one
	// dispCtx per shard worker instead and leaves this one to drain.
	ctx dispCtx
}

// nodeHot packs one node's dispatch-path state into a single 64-byte
// cache line. Booleans are bits of flags; the transition version is 32
// bits here (the event struct keeps 64 — the coordinator casts, and a
// version cannot realistically wrap within one transition's lifetime
// since wrapping would take 2^32 re-schedules of one node while its
// event is in flight).
type nodeHot struct {
	lastUpdate   float64
	lastBurstEnd float64
	// lamport is the node's logical clock for the canonical event order;
	// see engine.push for the key construction.
	lamport    uint64
	version    uint32
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
	_           [10]byte // pad to 64 bytes; see TestNodeHotSize
}

// nodeHot flag bits.
const (
	fHasBurst uint8 = 1 << iota
	fSleptSince
	fCollidedInPkt
	fWarmSnapped
	fInterior     // deeper than wdepth: eligible for parallel window dispatch (par.go)
	fPktActive    // the node's packet slot holds an in-flight packet
	fPktDelivered // the slot's current hold reached at least one receiver
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

// dispCtx is one dispatcher's view over the coordinator's shared state:
// the event clock, the measuring predicate, and the schedule-private
// metric counters. The serial coordinator has exactly one; the parallel
// engine has one per shard worker. Handlers are methods on dispCtx so
// both engines share their bodies; everything reached through the
// embedded coordinator is either node-owned (safe under the parallel
// window protocol) or immutable after construction.
type dispCtx struct {
	*coordinator

	now        float64
	curLamport uint64
	measuring  bool

	// par, when non-nil, routes pushes through the parallel engine's
	// per-shard heaps and cross-shard staging lanes instead of the
	// coordinator's indexed heap.
	par *parShard

	// Schedule-private integer counters; exact sums, folded by finish.
	events           int
	packetsSent      int
	packetsDelivered int
	packetsAny       int
	collided         int
	lostRx           int

	// Latency samples are receiver-attributed and order-insensitive:
	// finish concatenates all buffers and seals them into a sorted CDF.
	latency []float64
}

func newCoordinator(cfg Config, flt *faults.Set, shards int) *coordinator {
	n := cfg.Network.N()
	c := &coordinator{
		cfg:        cfg,
		n:          n,
		horizon:    cfg.Duration,
		shift:      seqShift(n),
		topo:       cfg.Topology,
		part:       topology.NewPartition(cfg.Topology, shards),
		flt:        flt,
		logging:    cfg.EventLog != nil,
		packetTime: model.DefaultIfZero(cfg.Protocol.PacketTime, 1e-3),

		rngs:    make([]rng.Source, n),
		hot:     make([]nodeHot, n),
		cores:   make([]econcast.Core, n),
		harvest: make([]func(float64) float64, n),

		nbr:          make([][]int, n),
		pktListeners: make([][]int, n),

		gp:            make([]float64, n),
		ap:            make([]float64, n),
		bl:            make([]stats.Accumulator, n),
		warmupBattery: make([]float64, n),
	}
	c.ctx.coordinator = c
	if cfg.TrackOccupancy {
		c.met.Occupancy = make(map[model.NetState]float64)
	}
	ns := c.part.Shards()
	c.shards = make([]shardRuntime, ns)
	for s := range c.shards {
		c.shards[s].id = int32(s)
	}
	c.order = make([]int32, 0, ns)
	c.pos = make([]int32, ns)
	c.headAt = make([]float64, ns)
	c.headSeq = make([]uint64, ns)
	for s := range c.pos {
		c.pos[s] = -1
	}
	c.current = -1
	degSum := 0
	for i := 0; i < n; i++ {
		degSum += c.topo.Degree(i)
	}
	nbrSlab := make([]int, degSum)
	lstSlab := make([]int, degSum)
	off := 0
	for i := 0; i < n; i++ {
		d := copy(nbrSlab[off:], c.topo.Neighbors(i))
		c.nbr[i] = nbrSlab[off : off+d : off+d]
		c.pktListeners[i] = lstSlab[off : off : off+d]
		off += d
		c.hot[i].shardOf = int32(c.part.ShardOf(i))
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
		// Same brownout/harvest wrapper selection as the single-queue
		// engine: the exact constant-budget path is kept bit-for-bit when
		// neither a profile nor a brownout schedule exists.
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

// start mirrors engine.start: every node's first transition and
// multiplier tick plus all fault boundaries, seeded in node order so
// event keys and RNG draws line up with the single-queue engine.
func (c *coordinator) start() {
	c.tau = c.params[0].Tau
	x := &c.ctx
	for i := 0; i < c.n; i++ {
		x.scheduleTransition(i)
		x.push(event{at: c.tau, kind: evTick, node: i})
		node := i
		c.flt.Boundaries(i, func(at float64) {
			x.push(event{at: at, kind: evFault, node: node})
		})
	}
	c.crossed = false
}

// step runs one coordinator round: pick the shard owning the globally
// earliest event, detach it from the heap, let it drain up to the
// conservative lookahead bound (the earliest event of any other shard —
// the root of the remaining heap), and re-attach it. It returns false
// once every queue is empty or the horizon was reached.
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
	c.fix(s) // re-attach; a no-op if the batch drained the queue
	return !c.done
}

// drain performs the final energy (and occupancy) accrual to the horizon.
func (c *coordinator) drain() {
	x := &c.ctx
	if c.cfg.TrackOccupancy && x.measuring {
		x.accrueOccupancy(c.cfg.Duration)
	}
	x.now = c.cfg.Duration
	for i := 0; i < c.n; i++ {
		x.accrue(i)
	}
}

// dispatch realizes one event, mirroring the body of engine.step after
// its horizon check.
func (x *dispCtx) dispatch(ev event) {
	if x.onDispatch != nil {
		x.onDispatch(ev)
	}
	x.events++
	if x.cfg.TrackOccupancy && x.measuring {
		x.accrueOccupancy(ev.at)
	}
	x.now = ev.at
	x.curLamport = ev.seq >> x.shift
	// Measuring is a pure per-event predicate, so it needs no global
	// warmup rendezvous: in a parallel schedule each worker evaluates it
	// against its own clock and per-node warmup splitting (see accrue)
	// keeps the energy ledgers identical.
	x.measuring = x.now >= x.cfg.Warmup
	if x.cfg.TrackOccupancy && x.measuring && !x.occStarted {
		x.occStarted = true
		x.occLast = x.now
	}
	switch ev.kind {
	case evTransition:
		if uint32(ev.version) == x.hot[ev.node].version {
			x.handleTransition(ev.node)
		} // else stale: dropped
	case evPacketEnd:
		x.handlePacketEnd(ev.node)
	case evTick:
		x.handleTick(ev.node, x.tau)
	case evFault:
		x.handleFault(ev.node)
	}
}

// push assigns the event its canonical content-derived key (see
// engine.push) and routes it: serially into its node's shard queue with
// an eager heap repair; in a parallel run through the worker's local
// heap or a cross-shard staging lane.
func (x *dispCtx) push(ev event) {
	h := &x.hot[ev.node]
	l := h.lamport
	if x.curLamport > l {
		l = x.curLamport
	}
	l++
	h.lamport = l
	ev.seq = l<<x.shift | uint64(ev.node)
	if x.par != nil {
		// Window execution: an interior event's push targets are always in
		// its own shard (wdepth >= push radius), so no heap repair and no
		// cross-shard traffic happen here — see DESIGN.md §9.
		x.par.route(ev)
		return
	}
	c := x.coordinator
	s := h.shardOf
	if c.split && h.has(fInterior) {
		c.shards[s].iq.push(ev)
	} else {
		c.shards[s].queue.push(ev)
	}
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

// fix restores shard s's position in the indexed heap after its queue
// head changed (or the queue emptied or became non-empty), refreshing
// its cached head key first. Sound only when every other heap entry is
// clean — guaranteed because the draining shard is detached and every
// cross-shard push fixes its target immediately.
func (c *coordinator) fix(s int32) {
	i := c.pos[s]
	at, seq, ok := c.shards[s].headKey()
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

// ---- handlers: exact ports of the engine handlers onto SoA state ----

func (x *dispCtx) accrue(i int) {
	h := &x.hot[i]
	if !h.has(fWarmSnapped) && x.now >= x.cfg.Warmup {
		// First accrual at or past the warmup boundary: advance exactly
		// to the boundary, snapshot the battery, continue from there (see
		// engine.accrue).
		if dt := x.cfg.Warmup - h.lastUpdate; dt > 0 {
			x.cores[i].Advance(x.pr(i), x.harvest[i], dt, h.state)
		}
		h.lastUpdate = x.cfg.Warmup
		x.warmupBattery[i] = x.cores[i].Battery
		h.set(fWarmSnapped)
	}
	if dt := x.now - h.lastUpdate; dt > 0 {
		x.cores[i].Advance(x.pr(i), x.harvest[i], dt, h.state)
		h.lastUpdate = x.now
	}
}

func (c *coordinator) bump(i int) { c.hot[i].version++ }

func (c *coordinator) active(i int, t float64) bool {
	if c.cfg.Churn != nil && !c.cfg.Churn(i, t) {
		return false
	}
	return c.flt.Alive(i, t)
}

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

func (x *dispCtx) accrueOccupancy(until float64) {
	if until > x.cfg.Duration {
		until = x.cfg.Duration
	}
	dt := until - x.occLast
	if dt <= 0 {
		return
	}
	x.met.Occupancy[x.currentNetState()] += dt
	x.coordinator.occLast = until
}

func (x *dispCtx) setState(i int, st model.State) {
	x.accrue(i)
	if x.logging {
		x.logf("%.6f node %d: %v -> %v", x.now, i, x.hot[i].state, st) //lint:allow hotalloc trace logging; x.logging is off in measured runs
	}
	x.hot[i].state = st
}

// logf writes one trace line; hot-path callers gate on x.logging (see
// engine.logf for why).
func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.EventLog != nil {
		fmt.Fprintf(c.cfg.EventLog, format+"\n", args...)
	}
}

func (x *dispCtx) estimateFor(i, count int) float64 {
	if x.cfg.EstimateListeners != nil {
		count = x.cfg.EstimateListeners(count, &x.rngs[i])
		if count < 0 {
			count = 0
		}
	}
	return x.pr(i).Estimate(count)
}

func (x *dispCtx) listenEstimate(i int) float64 {
	count := 0
	for _, j := range x.nbr[i] {
		if x.hot[j].state == model.Listen {
			count++
		}
	}
	return x.estimateFor(i, count)
}

func (x *dispCtx) scheduleTransition(i int) {
	x.bump(i)
	h := &x.hot[i]
	if h.state == model.Transmit {
		return
	}
	if x.cfg.HardBatteryFloor && h.state == model.Sleep && x.cores[i].Depleted() {
		return // stays asleep until a tick finds the battery recovered
	}
	if !x.active(i, x.now) {
		return // absent or crashed: re-checked at the next tick / restart
	}
	carrierFree := h.busy == 0
	est := 0.0
	if x.cfg.Protocol.Variant == econcast.NonCapture && h.state == model.Listen {
		est = x.listenEstimate(i)
	}
	r := x.cores[i].Rates(x.pr(i), carrierFree, est)
	var total float64
	switch h.state {
	case model.Sleep:
		total = r.SleepToListen
	case model.Listen:
		total = r.ListenToSleep + r.ListenToTransmit
	}
	if total <= 0 {
		return
	}
	dwell := x.rngs[i].Exp(total)
	if h.state == model.Sleep {
		// Sleep intervals run off the drift-scaled low-power clock, as in
		// the single-queue engine.
		dwell *= x.flt.Drift(i)
	}
	x.push(event{
		at:      x.now + dwell,
		kind:    evTransition,
		node:    i,
		version: uint64(h.version),
	})
}

func (x *dispCtx) handleTransition(i int) {
	x.accrue(i)
	switch x.hot[i].state {
	case model.Sleep:
		x.setState(i, model.Listen)
		x.onListenSetChanged(i)
		x.scheduleTransition(i)
	case model.Listen:
		carrierFree := x.hot[i].busy == 0
		est := 0.0
		if x.cfg.Protocol.Variant == econcast.NonCapture {
			est = x.listenEstimate(i)
		}
		r := x.cores[i].Rates(x.pr(i), carrierFree, est)
		total := r.ListenToSleep + r.ListenToTransmit
		if total <= 0 {
			return
		}
		if x.rngs[i].Float64()*total < r.ListenToTransmit {
			x.startTransmission(i)
		} else {
			x.flushBurst(i)
			x.setState(i, model.Sleep)
			x.hot[i].set(fSleptSince)
			x.onListenSetChanged(i)
			x.scheduleTransition(i)
		}
	}
}

func (x *dispCtx) onListenSetChanged(i int) {
	if x.cfg.Protocol.Variant != econcast.NonCapture {
		return
	}
	for _, j := range x.nbr[i] {
		if x.hot[j].state == model.Listen {
			x.scheduleTransition(j)
		}
	}
}

func (x *dispCtx) startTransmission(i int) {
	if x.hot[i].busy != 0 {
		// Carrier sensing (the A(t) gate) must make this unreachable.
		panic(fmt.Sprintf("sim: node %d transmitting into a busy channel", i))
	}
	x.flushBurst(i)
	x.setState(i, model.Transmit)
	x.bump(i) // no timer while transmitting
	x.onListenSetChanged(i)
	// Occupy the channel: each neighbor gains one transmitting neighbor.
	// Hidden-terminal collisions ride the same pass: a neighbor j sitting
	// in any in-flight packet's listener list (listeningTo[j] > 0) now
	// hears two transmitters, so its reception is collided. Marking the
	// node rather than the (packet, node) pair matches the engine's
	// global scan — collidedInPkt is per-node there too — and the
	// listeningTo inversion makes the check one counter load instead of
	// walking every nearby packet's listeners.
	for _, j := range x.nbr[i] {
		h := &x.hot[j]
		h.busy++
		if h.busy == 1 && h.state != model.Transmit {
			// Channel became busy for j: freeze by resampling (rates -> 0).
			x.scheduleTransition(j)
		}
		if h.listeningTo > 0 && !h.has(fCollidedInPkt) {
			h.set(fCollidedInPkt)
			if x.measuring {
				x.collided++
			}
		}
	}
	x.startPacket(i, 0, false)
}

func (x *dispCtx) startPacket(i int, burstLen int32, delivered bool) {
	hi := &x.hot[i]
	hi.set(fPktActive)
	hi.pktBurstLen = burstLen
	hi.put(fPktDelivered, delivered)
	listeners := x.pktListeners[i][:0]
	for _, j := range x.nbr[i] {
		h := &x.hot[j]
		if h.state == model.Listen {
			listeners = append(listeners, j) //lint:allow hotalloc capacity is deg(i) and listeners are a subset of neighbors, so this never reallocates
			h.listeningTo++
			h.put(fCollidedInPkt, h.busy > 1)
			if h.has(fCollidedInPkt) && x.measuring {
				x.collided++
			}
		}
	}
	x.pktListeners[i] = listeners
	if x.logging {
		x.logf("%.6f node %d: packet %d of hold, %d listeners",
			x.now, i, burstLen+1, len(listeners)) //lint:allow hotalloc trace logging; x.logging is off in measured runs
	}
	x.push(event{at: x.now + x.packetTime, kind: evPacketEnd, node: i})
}

func (x *dispCtx) handlePacketEnd(i int) {
	hi := &x.hot[i]
	if !hi.has(fPktActive) || hi.state != model.Transmit {
		return
	}
	// A stuck (silenced) radio transmits carrier but delivers nothing;
	// receiver-side loss draws are skipped for silenced packets (see the
	// engine's handler).
	silenced := x.flt.Silenced(i, x.now)
	success := 0
	for _, j := range x.pktListeners[i] {
		h := &x.hot[j]
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
		if silenced || x.flt.DropRx(j, x.now) {
			if x.measuring {
				x.lostRx++
			}
			continue
		}
		success++
		h.burstCount++
		if x.cfg.OnDeliver != nil {
			x.cfg.OnDeliver(i, j, x.now)
		}
		if x.measuring {
			x.packetsDelivered++
			// Burst/latency bookkeeping: first packet of a receive burst.
			if h.burstCount == 1 && h.has(fHasBurst) && h.has(fSleptSince) {
				x.latency = append(x.latency, x.now-x.packetTime-h.lastBurstEnd) //lint:allow hotalloc amortized sample buffer growth
			}
			h.clear(fSleptSince)
		}
		h.lastBurstEnd = x.now
		h.set(fHasBurst)
	}
	if x.measuring {
		x.packetsSent++
		x.gp[i] += float64(success) * x.packetTime
		if success > 0 {
			x.packetsAny++
			x.ap[i] += x.packetTime
		}
	}
	if success > 0 {
		hi.set(fPktDelivered)
	}
	// The slot stays readable for the remainder of this handler;
	// startPacket reclaims it on a hold.
	hi.clear(fPktActive)

	// A physically depleted listener is forced to sleep to recharge.
	if x.cfg.HardBatteryFloor {
		for _, j := range x.pktListeners[i] {
			x.accrue(j)
			if x.hot[j].state == model.Listen && x.cores[j].Depleted() {
				x.flushBurst(j)
				x.setState(j, model.Sleep)
				x.hot[j].set(fSleptSince)
				x.bump(j)
				x.onListenSetChanged(j)
			}
		}
	}

	// Decide whether to hold the channel (EconCast-C) or release; a
	// depleted transmitter must release regardless.
	x.accrue(i)
	est := x.estimateFor(i, success)
	cont := x.cores[i].ContinueTransmitProb(x.pr(i), est)
	forced := x.cfg.HardBatteryFloor && x.cores[i].Depleted()
	if !x.active(i, x.now) {
		forced = true // departed or crashed: release the channel now
	}
	if !forced && x.rngs[i].Bernoulli(cont) {
		x.startPacket(i, hi.pktBurstLen+1, hi.has(fPktDelivered))
		return
	}
	// Hold complete: record its length if it reached any receiver.
	if hi.has(fPktDelivered) && x.measuring {
		x.bl[i].Add(float64(hi.pktBurstLen + 1))
	}
	// Release: transmitter returns to listen (Fig. 1), neighbors unfreeze.
	x.setState(i, model.Listen)
	x.scheduleTransition(i)
	for _, j := range x.nbr[i] {
		h := &x.hot[j]
		h.busy--
		if h.busy == 0 && h.state != model.Transmit {
			x.scheduleTransition(j)
		}
	}
	x.onListenSetChanged(i)
}

func (x *dispCtx) flushBurst(i int) {
	x.hot[i].burstCount = 0
}

func (x *dispCtx) handleTick(i int, tau float64) {
	x.accrue(i)
	// Departure: an absent node abandons listening (transmitters finish
	// their current hold first; the packet machinery owns that state).
	if !x.active(i, x.now) && x.hot[i].state == model.Listen {
		x.flushBurst(i)
		x.setState(i, model.Sleep)
		x.hot[i].set(fSleptSince)
		x.bump(i)
		x.onListenSetChanged(i)
	}
	if x.cfg.OnTick != nil {
		nd := x.cfg.Network.Nodes[i]
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		x.cfg.OnTick(i, x.now, x.cores[i].Eta/p0)
	}
	if x.hot[i].state != model.Transmit {
		x.scheduleTransition(i)
	}
	x.push(event{at: x.now + tau, kind: evTick, node: i})
}

func (x *dispCtx) handleFault(i int) {
	x.accrue(i)
	if x.flt.Alive(i, x.now) {
		if x.hot[i].state != model.Transmit {
			x.scheduleTransition(i)
		}
		return
	}
	// Crashed. A transmitter abandons its hold: the in-flight packet
	// dies undelivered and the channel is released for its neighbors.
	switch x.hot[i].state {
	case model.Transmit:
		if hi := &x.hot[i]; hi.has(fPktActive) {
			for _, j := range x.pktListeners[i] {
				h := &x.hot[j]
				h.listeningTo--
				h.clear(fCollidedInPkt)
			}
			hi.clear(fPktActive)
		}
		x.setState(i, model.Sleep)
		x.bump(i)
		for _, j := range x.nbr[i] {
			h := &x.hot[j]
			h.busy--
			if h.busy == 0 && h.state != model.Transmit {
				x.scheduleTransition(j)
			}
		}
		x.onListenSetChanged(i)
	case model.Listen:
		x.flushBurst(i)
		x.setState(i, model.Sleep)
		x.hot[i].set(fSleptSince)
		x.bump(i)
		x.onListenSetChanged(i)
	default:
		x.bump(i) // cancel any pending wake-up; stays down until restart
	}
}

// finish assembles the metrics: schedule-private counters from every
// dispatcher fold by exact integer addition (and latency buffers by
// sorted-CDF sealing), per-node accumulations fold in ascending node
// order — so the result is independent of which dispatcher executed
// which event, and bit-identical to engine.finish.
func (c *coordinator) finish(ctxs ...*dispCtx) *Metrics {
	var latency []float64
	for _, x := range ctxs {
		c.met.Events += x.events
		c.met.PacketsSent += x.packetsSent
		c.met.PacketsDelivered += x.packetsDelivered
		c.met.PacketsAnyDeliver += x.packetsAny
		c.met.CollidedReceptions += x.collided
		c.met.LostReceptions += x.lostRx
		latency = append(latency, x.latency...)
	}
	c.met.Latency = stats.NewCDF(latency)
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
