// Package asim runs EconCast networks as concurrent goroutines: each node
// is a goroutine executing the protocol logic of internal/econcast as
// firmware would, and a broker goroutine plays the shared radio medium.
// Coordination uses a conservative virtual clock over request/reply
// channels, so runs are exactly reproducible despite the concurrency.
//
// The broker serializes the medium: it gathers each node's bid for its
// next event time (state transition or multiplier tick), grants the
// earliest, and relays channel state (carrier busy, packet completions)
// back to the affected nodes. Nodes never share memory; everything they
// learn arrives over their command channel, mirroring the structure of a
// real deployment. (The emulated testbed, internal/testbed, is a separate
// single-threaded event loop.)
//
// asim models clique networks, the setting of the paper's testbed; use
// internal/sim for non-clique topologies.
package asim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"econcast/internal/econcast"
	"econcast/internal/faults"
	"econcast/internal/model"
	"econcast/internal/rng"
)

// Config mirrors sim.Config for clique networks.
type Config struct {
	Network *model.Network

	Mode       model.Mode
	Variant    econcast.Variant
	Sigma      float64
	Delta      float64
	Tau        float64
	PacketTime float64

	Duration float64
	Warmup   float64
	Seed     uint64

	// WarmEta and FreezeEta as in sim.Config (units of 1/Watt).
	WarmEta   []float64
	FreezeEta bool

	// Faults injects the shared fault processes (see internal/faults).
	// asim realizes a crash as the death of the node's goroutine — the
	// panic-isolation path below — so restarting schedules are rejected;
	// use internal/sim for crash/restart churn.
	Faults *faults.Config

	// stall, when set, wedges one node's goroutine at a virtual time —
	// the test hook that proves the watchdog converts a stuck node into
	// an error instead of a hang — and watchdog, when nonzero, replaces
	// defaultWatchdog so that test fails fast.
	stall    *stallSpec
	watchdog time.Duration
}

// stallSpec wedges node `node` forever at the first command with
// virtual time >= at.
type stallSpec struct {
	node int
	at   float64
}

// defaultWatchdog bounds how long the broker waits (wall-clock) for any
// single node to accept or answer a command before failing the run with
// a diagnostic instead of hanging. It only trips on a truly stuck
// nodeRuntime (a livelocked or blocked goroutine): panics are recovered
// and reported in virtual time, without waiting.
const defaultWatchdog = 30 * time.Second

// Metrics are the outputs of a goroutine-based run.
type Metrics struct {
	Window            float64
	Groupput          float64
	Anyput            float64
	PacketsSent       int
	PacketsDelivered  int
	PacketsAnyDeliver int
	LostReceptions    int       // receptions lost to the fault layer
	Power             []float64 // per-node mean consumption over the window
	EtaFinal          []float64 // units of 1/Watt

	// Dead marks nodes whose goroutines died during the run (injected
	// crash faults or recovered panics). Dead nodes report zero Power and
	// EtaFinal; throughput covers the survivors. Nil when nobody died.
	Dead []bool `json:",omitempty"`

	// FaultTrace is the materialized fault schedule (nil without faults);
	// byte-identical to the other substrates' traces for the same fault
	// config and seed.
	FaultTrace []faults.Event `json:",omitempty"`
}

// broker -> node commands.
type cmdKind int

const (
	cmdBid        cmdKind = iota // submit your next event time
	cmdFire                      // your transition fires now
	cmdTick                      // your multiplier tick fires now
	cmdPacketDone                // your packet ended; decide continue/release
	cmdStop                      // run over; report final accounting
)

type command struct {
	kind      cmdKind
	now       float64
	busy      bool // carrier state (excluding the node's own transmission)
	count     int  // successful receivers (cmdPacketDone)
	listeners int  // other active listeners (cmdBid/cmdFire; NC estimate)
	snapshot  bool // cmdStop: battery snapshot request only (warmup boundary)
}

// node -> broker replies.
type replyKind int

const (
	replyBid    replyKind = iota
	replyAction           // transition outcome: the node's new state
	replyHold             // packet decision: continue (true) or release
	replyFinal            // final accounting
	replyDead             // the node goroutine panicked; sent by its recover
)

type reply struct {
	kind replyKind
	node int

	at     float64 // replyBid: next event time (may be +Inf)
	isTick bool    // replyBid: the event is a tau tick

	state model.State // replyAction: state after the transition

	cont bool // replyHold

	battery float64 // replyFinal / snapshot
	eta     float64 // replyFinal (scaled units)
}

// Run executes the configuration and returns metrics.
func Run(cfg Config) (*Metrics, error) {
	if cfg.Network == nil {
		return nil, errors.New("asim: nil network")
	}
	if err := cfg.Network.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.Sigma > 0) {
		return nil, errors.New("asim: sigma must be positive")
	}
	if err := model.CheckHorizon(cfg.Duration, cfg.Warmup); err != nil {
		return nil, fmt.Errorf("asim: %w", err)
	}
	if cfg.WarmEta != nil && len(cfg.WarmEta) != cfg.Network.N() {
		return nil, errors.New("asim: WarmEta length mismatch")
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if flt.HasRestart() {
		return nil, errors.New("asim: crash/restart schedules are not supported (a crash kills the node's goroutine permanently); use internal/sim for churn with restarts")
	}
	b := newBroker(cfg, flt)
	b.start()
	m := b.loop()
	if b.err != nil {
		return nil, b.err
	}
	return m, nil
}

// nodeRuntime is the goroutine-side state of one node ("firmware").
//
//lint:owner asim-node firmware state lives in the node goroutine; the broker speaks over cmd/out only
type nodeRuntime struct {
	id    int
	proto *econcast.Node
	src   *rng.Source
	cmd   <-chan command
	out   chan<- reply

	state model.State
	last  float64 // virtual time of the last energy accrual

	// Fault-layer projection (a value-type faults.NodeView derivative:
	// node goroutines never share the *faults.Set itself).
	drift   float64 // sleep-clock scale factor (1 = exact)
	crashAt float64 // virtual time of this node's crash (+Inf if none)
	stallAt float64 // test hook: wedge forever at this virtual time
}

// run is the node goroutine body: a strict request/reply servant of the
// broker, owning all node-local state. Any panic — an injected crash
// fault or a genuine firmware bug — is isolated here: the recover turns
// it into a replyDead to the broker, which removes the node from the
// network and keeps the run going over the survivors.
func (n *nodeRuntime) run() {
	defer func() { //lint:allow hotalloc one recover closure per node goroutine at spawn, not per event
		if r := recover(); r != nil {
			// The broker is blocked in ask waiting for this node's reply,
			// so the send completes immediately. (If the broker has already
			// aborted on a watchdog error it may never receive; the
			// goroutine then parks here, a bounded leak on a path that
			// already failed the run.)
			n.out <- reply{kind: replyDead, node: n.id}
		}
	}()
	for c := range n.cmd {
		if c.now >= n.stallAt {
			select {} // wedged: the watchdog test hook
		}
		if c.now >= n.crashAt {
			n.advance(n.crashAt) // the battery accrues up to the crash
			panic(fmt.Sprintf("asim: node %d crash fault at t=%.6f", n.id, n.crashAt))
		}
		switch c.kind {
		case cmdBid:
			n.out <- n.bid(c)
		case cmdFire:
			n.advance(c.now)
			n.fire(c)
		case cmdTick:
			n.advance(c.now) // Advance applies eq. (17) at the boundary
			n.out <- reply{kind: replyAction, node: n.id, state: n.state}
		case cmdPacketDone:
			n.advance(c.now)
			est := n.proto.Estimate(c.count)
			cont := n.src.Bernoulli(n.proto.ContinueTransmitProb(est))
			if !cont {
				n.state = model.Listen
			}
			n.out <- reply{kind: replyHold, node: n.id, cont: cont}
		case cmdStop:
			n.advance(c.now)
			n.out <- reply{
				kind:    replyFinal,
				node:    n.id,
				battery: n.proto.Battery(),
				eta:     n.proto.Eta(),
			}
			if !c.snapshot {
				return
			}
		}
	}
}

func (n *nodeRuntime) advance(now float64) {
	if dt := now - n.last; dt > 0 {
		n.proto.Advance(dt, n.state)
		n.last = now
	}
}

// bid samples the node's next event given the carrier state: the earlier
// of its next state transition and its next multiplier tick.
func (n *nodeRuntime) bid(c command) reply {
	n.advance(c.now)
	tau := n.proto.Config().Tau
	// Next tick is the next tau multiple of local accrued time; the broker
	// aligns ticks by asking every node to bid from t=0, so tick times are
	// k*tau in virtual time.
	nextTick := (math.Floor(c.now/tau+1e-9) + 1) * tau
	transition := math.Inf(1)
	if n.state != model.Transmit {
		r := n.proto.Rates(!c.busy, n.proto.Estimate(c.listeners))
		var total float64
		switch n.state {
		case model.Sleep:
			total = r.SleepToListen
		case model.Listen:
			total = r.ListenToSleep + r.ListenToTransmit
		}
		if total > 0 {
			dwell := n.src.Exp(total)
			if n.state == model.Sleep {
				// Sleep intervals run off the node's low-power clock, which
				// the drift fault scales (active-mode timing is accurate).
				dwell *= n.drift
			}
			transition = c.now + dwell
		}
	}
	if nextTick < transition {
		return reply{kind: replyBid, node: n.id, at: nextTick, isTick: true}
	}
	return reply{kind: replyBid, node: n.id, at: transition}
}

// fire executes the granted transition and reports the new state.
func (n *nodeRuntime) fire(c command) {
	switch n.state {
	case model.Sleep:
		n.state = model.Listen
	case model.Listen:
		r := n.proto.Rates(!c.busy, n.proto.Estimate(c.listeners))
		total := r.ListenToSleep + r.ListenToTransmit
		if total > 0 && n.src.Float64()*total < r.ListenToTransmit {
			n.state = model.Transmit
		} else {
			n.state = model.Sleep
		}
	}
	n.out <- reply{kind: replyAction, node: n.id, state: n.state}
}

// broker owns the virtual clock and the radio medium.
//
//lint:owner asim-broker the broker goroutine owns the clock and the medium
type broker struct {
	cfg   Config
	n     int
	nodes []*nodeRuntime
	cmds  []chan<- command
	out   <-chan reply

	now         float64
	transmitter int // -1 when idle
	listeners   []int
	pktEnd      float64
	states      []model.State
	bids        []reply

	// Fault machinery. flt is broker-owned (its loss streams advance on
	// DropRx); dead marks nodes whose goroutines have exited; crashAt is
	// the broker-side crash schedule, so crashes land at their exact
	// virtual times; err aborts the run with a diagnostic.
	flt     *faults.Set
	dead    []bool
	crashAt []float64
	err     error

	// Watchdog: one reusable wall-clock timer arming every channel
	// operation in ask.
	wd        *time.Timer
	wdTimeout time.Duration

	met           Metrics
	measuring     bool
	warmupBattery []float64
	packetTime    float64
}

func newBroker(cfg Config, flt *faults.Set) *broker {
	n := cfg.Network.N()
	// The broker keeps only its own end of each channel: send on cmds,
	// receive on out. The bidirectional values live just long enough here
	// to hand the opposite ends to the node runtimes.
	out := make(chan reply)
	b := &broker{
		cfg:         cfg,
		n:           n,
		nodes:       make([]*nodeRuntime, n),
		cmds:        make([]chan<- command, n),
		out:         out,
		transmitter: -1,
		states:      make([]model.State, n),
		bids:        make([]reply, n),
		packetTime:  cfg.PacketTime,
		flt:         flt,
		dead:        make([]bool, n),
		crashAt:     make([]float64, n),
	}
	b.packetTime = model.DefaultIfZero(b.packetTime, 1e-3)
	b.wdTimeout = defaultWatchdog
	if cfg.watchdog != 0 {
		b.wdTimeout = cfg.watchdog
	}
	// The watchdog measures wall-clock liveness of the node goroutines,
	// never virtual time, so it cannot perturb results: it either never
	// fires (healthy run, timer reset and drained around every exchange)
	// or fails the run outright.
	b.wd = time.NewTimer(b.wdTimeout) //lint:allow wallclock liveness watchdog only; virtual-time results never observe this timer
	if !b.wd.Stop() {
		<-b.wd.C
	}
	master := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		nd := cfg.Network.Nodes[i]
		pc := econcast.Config{
			Mode:          cfg.Mode,
			Variant:       cfg.Variant,
			Sigma:         cfg.Sigma,
			Delta:         cfg.Delta,
			Tau:           cfg.Tau,
			Budget:        nd.Budget,
			ListenPower:   nd.ListenPower,
			TransmitPower: nd.TransmitPower,
			PacketTime:    cfg.PacketTime,
		}
		if cfg.FreezeEta {
			pc.Delta = 1e-300
		}
		// Brownouts scale the node's harvest inside their windows; the
		// wrapper closes over the node's value-type view, not the Set.
		if v := flt.View(i); v.HasBrownout() {
			budget := nd.Budget
			pc.Harvest = func(t float64) float64 { return budget * v.HarvestScale(t) }
		}
		proto := econcast.NewNode(pc)
		if cfg.WarmEta != nil {
			p0 := math.Max(nd.ListenPower, nd.TransmitPower)
			proto.SetEta(cfg.WarmEta[i] * p0)
		}
		ch := make(chan command)
		b.cmds[i] = ch
		view := flt.View(i)
		b.crashAt[i] = view.CrashAt
		stallAt := math.Inf(1)
		if cfg.stall != nil && cfg.stall.node == i {
			stallAt = cfg.stall.at
		}
		b.nodes[i] = &nodeRuntime{
			id:      i,
			proto:   proto,
			src:     master.Split(),
			cmd:     ch,
			out:     out,
			drift:   view.DriftFactor,
			crashAt: view.CrashAt,
			stallAt: stallAt,
		}
	}
	return b
}

func (b *broker) start() {
	for _, n := range b.nodes {
		go n.run()
	}
}

// ask sends a command to node i and waits for its reply. It returns
// ok=false when no usable reply arrived: the node's goroutine died (a
// recovered panic, recorded via markDead) or the watchdog expired (the
// run is failed via b.err). Callers must treat ok=false as "this node is
// gone" and continue over the survivors or abort on b.err.
func (b *broker) ask(i int, c command) (reply, bool) {
	if b.err != nil || b.dead[i] {
		return reply{}, false
	}
	b.wd.Reset(b.wdTimeout)
	select {
	case b.cmds[i] <- c:
	case <-b.wd.C:
		b.err = fmt.Errorf("asim: watchdog: node %d did not accept command %d at t=%.6f within %v (stuck nodeRuntime)", i, c.kind, b.now, b.wdTimeout) //lint:allow hotalloc terminal watchdog error path; the run aborts here
		return reply{}, false
	}
	b.disarm()
	b.wd.Reset(b.wdTimeout)
	var r reply
	select {
	case r = <-b.out:
	case <-b.wd.C:
		b.err = fmt.Errorf("asim: watchdog: node %d did not answer command %d at t=%.6f within %v (stuck nodeRuntime)", i, c.kind, b.now, b.wdTimeout) //lint:allow hotalloc terminal watchdog error path; the run aborts here
		return reply{}, false
	}
	b.disarm()
	return b.vet(r)
}

// disarm stops the watchdog timer and drains a concurrent expiry so the
// next Reset starts clean.
func (b *broker) disarm() {
	if !b.wd.Stop() {
		select {
		case <-b.wd.C:
		default:
		}
	}
}

// vet inspects a reply for the death notice a panicking node's recover
// sends in place of its normal answer.
func (b *broker) vet(r reply) (reply, bool) {
	if r.kind == replyDead {
		b.markDead(r.node)
		return r, false
	}
	return r, true
}

// markDead removes a node whose goroutine has exited: it leaves the
// bidding, is counted asleep (so it drops out of listener sets and the
// non-capture ping estimate), and receives no further commands.
func (b *broker) markDead(i int) {
	b.dead[i] = true
	b.states[i] = model.Sleep
	b.bids[i] = reply{kind: replyBid, node: i, at: math.Inf(1)}
	b.crashAt[i] = math.Inf(1)
}

func (b *broker) busyFor(i int) bool {
	return b.transmitter >= 0 && b.transmitter != i
}

// otherListeners counts listening nodes other than i, the continuous ping
// estimate the non-capture variant consumes.
func (b *broker) otherListeners(i int) int {
	count := 0
	for j := 0; j < b.n; j++ {
		if j != i && b.states[j] == model.Listen {
			count++
		}
	}
	return count
}

func (b *broker) rebid(i int) {
	if b.err != nil || b.dead[i] {
		return
	}
	r, ok := b.ask(i, command{
		kind: cmdBid, now: b.now, busy: b.busyFor(i),
		listeners: b.otherListeners(i),
	})
	if ok {
		b.bids[i] = r
	} // else markDead already parked the bid at +Inf (or b.err is set)
}

func (b *broker) rebidAll() {
	for i := 0; i < b.n; i++ {
		b.rebid(i)
	}
}

// loop is the broker's main scheduling loop.
func (b *broker) loop() *Metrics {
	b.rebidAll()
	for b.err == nil {
		// Earliest pending event: a node bid, the packet end, or a
		// scheduled crash (which outranks ties so a node dies before it
		// acts at the same instant).
		best := -1
		bestAt := math.Inf(1)
		for i := 0; i < b.n; i++ {
			if b.dead[i] || b.states[i] == model.Transmit {
				continue // gone, or packet-driven
			}
			if b.bids[i].at < bestAt {
				bestAt = b.bids[i].at
				best = i
			}
		}
		usePacket := b.transmitter >= 0 && b.pktEnd <= bestAt
		eventAt := bestAt
		if usePacket {
			eventAt = b.pktEnd
		}
		crash := -1
		for i := 0; i < b.n; i++ {
			if b.crashAt[i] <= eventAt && (crash < 0 || b.crashAt[i] < b.crashAt[crash]) {
				crash = i
			}
		}
		if crash >= 0 {
			eventAt = b.crashAt[crash]
		}
		if eventAt > b.cfg.Duration || (best < 0 && !usePacket && crash < 0) {
			break
		}
		b.now = eventAt
		if !b.measuring && b.now >= b.cfg.Warmup {
			b.measuring = true
			b.snapshotBatteries()
		}
		if crash >= 0 {
			b.killNode(crash)
			continue
		}
		if usePacket {
			b.finishPacket()
			continue
		}
		if b.bids[best].isTick {
			if _, ok := b.ask(best, command{kind: cmdTick, now: b.now}); !ok {
				continue // node died mid-tick (or watchdog fired)
			}
			b.rebid(best)
			continue
		}
		// Grant the transition.
		r, ok := b.ask(best, command{
			kind: cmdFire, now: b.now, busy: b.busyFor(best),
			listeners: b.otherListeners(best),
		})
		if !ok {
			continue // node died firing (or watchdog fired)
		}
		prev := b.states[best]
		b.states[best] = r.state
		switch {
		case prev == model.Listen && r.state == model.Transmit:
			b.beginPacket(best)
		default:
			b.rebid(best)
			// The non-capture variant's rates depend on the listener count,
			// which just changed for everyone else.
			if b.cfg.Variant == econcast.NonCapture && prev != r.state {
				for j := 0; j < b.n; j++ {
					if j != best && b.states[j] == model.Listen {
						b.rebid(j)
					}
				}
			}
		}
	}
	if b.err != nil {
		b.abort()
		return nil
	}
	return b.finish()
}

// killNode realizes node i's scheduled crash: it pokes the node at
// exactly its crash time, the node panics, the recover sends replyDead,
// and ask's vet marks it dead. A crashing transmitter abandons its hold
// — the in-flight packet dies undelivered and the medium is released.
func (b *broker) killNode(i int) {
	wasTx := b.transmitter == i
	if r, ok := b.ask(i, command{kind: cmdBid, now: b.now}); ok {
		// The node answered a command timed at its own crash — the
		// node-side crash check and the broker schedule disagree.
		b.err = fmt.Errorf("asim: node %d survived its scheduled crash at t=%.6f (reply kind %d)", i, b.now, r.kind) //lint:allow hotalloc terminal consistency-check error path; the run aborts here
		return
	}
	if b.err != nil {
		return // watchdog fired instead of the crash landing
	}
	if wasTx {
		b.transmitter = -1
		b.rebidAll() // unfreeze the survivors; the packet dies undelivered
	}
}

// abort releases the surviving node goroutines after a watchdog
// failure: closing the command channels makes their range loops return.
// The stuck node itself cannot be released — that leak is bounded to
// one goroutine on a path that already failed the run.
func (b *broker) abort() {
	for i := 0; i < b.n; i++ {
		close(b.cmds[i])
	}
}

// beginPacket starts a hold: captures the listener set and freezes
// everyone else by rebidding them under a busy carrier.
func (b *broker) beginPacket(tx int) {
	b.transmitter = tx
	b.listeners = b.listeners[:0]
	for i := 0; i < b.n; i++ {
		if i != tx && b.states[i] == model.Listen {
			b.listeners = append(b.listeners, i) //lint:allow hotalloc reuses the slice's capacity; grows at most n times per run
		}
	}
	b.pktEnd = b.now + b.packetTime
	for i := 0; i < b.n; i++ {
		if i != tx {
			b.rebid(i)
		}
	}
}

// finishPacket completes the current packet: account deliveries, ask the
// transmitter whether it holds the channel, and unfreeze on release.
// Receptions pass through the fault layer: a listener that died
// mid-packet receives nothing, a silenced transmitter delivers nothing,
// and the loss process may drop individual receptions. Fault-free, the
// loop degenerates to success == len(b.listeners) with zero extra draws.
func (b *broker) finishPacket() {
	tx := b.transmitter
	silenced := b.flt.Silenced(tx, b.now)
	success := 0
	lost := 0
	for _, j := range b.listeners {
		if b.states[j] != model.Listen {
			continue // died mid-packet: no reception
		}
		if silenced || b.flt.DropRx(j, b.now) {
			lost++
			continue
		}
		success++
	}
	if b.measuring {
		b.met.PacketsSent++
		b.met.Groupput += float64(success) * b.packetTime
		b.met.PacketsDelivered += success
		b.met.LostReceptions += lost
		if success > 0 {
			b.met.PacketsAnyDeliver++
			b.met.Anyput += b.packetTime
		}
	}
	r, ok := b.ask(tx, command{kind: cmdPacketDone, now: b.now, count: success})
	if !ok {
		// The transmitter died deciding: release the medium.
		b.transmitter = -1
		b.rebidAll()
		return
	}
	if r.cont {
		// Hold continues: same transmitter, recapture listeners (frozen, so
		// unchanged in a clique).
		b.pktEnd = b.now + b.packetTime
		return
	}
	b.transmitter = -1
	b.states[tx] = model.Listen
	b.rebidAll()
}

func (b *broker) snapshotBatteries() {
	b.warmupBattery = make([]float64, b.n) //lint:allow hotalloc once per run, at the warmup boundary
	for i := 0; i < b.n; i++ {
		if b.dead[i] {
			continue // dead nodes report zero power; no snapshot needed
		}
		r, ok := b.ask(i, command{kind: cmdStop, now: b.now, snapshot: true})
		if ok {
			b.warmupBattery[i] = r.battery
		}
	}
	// Snapshot rebids are unnecessary: cmdStop with snapshot does not
	// change node state, and bids remain valid.
}

func (b *broker) finish() *Metrics {
	window := b.cfg.Duration - b.cfg.Warmup
	b.met.Window = window
	b.met.Groupput /= window
	b.met.Anyput /= window
	b.met.Power = make([]float64, b.n)    //lint:allow hotalloc once per run, after the horizon
	b.met.EtaFinal = make([]float64, b.n) //lint:allow hotalloc once per run, after the horizon
	for i := 0; i < b.n; i++ {
		if b.dead[i] {
			close(b.cmds[i]) // the goroutine has already exited
			continue         // Power and EtaFinal stay 0 — never NaN
		}
		r, ok := b.ask(i, command{kind: cmdStop, now: b.cfg.Duration})
		close(b.cmds[i])
		if !ok {
			continue // died on the final accounting command
		}
		nd := b.cfg.Network.Nodes[i]
		start := 0.0
		if b.warmupBattery != nil {
			start = b.warmupBattery[i]
		}
		b.met.Power[i] = nd.Budget - (r.battery-start)/window
		p0 := math.Max(nd.ListenPower, nd.TransmitPower)
		b.met.EtaFinal[i] = r.eta / p0
	}
	for i := 0; i < b.n; i++ {
		if b.dead[i] {
			b.met.Dead = b.dead
			break
		}
	}
	b.met.FaultTrace = b.flt.Trace()
	return &b.met
}
