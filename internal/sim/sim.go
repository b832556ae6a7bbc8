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

	// Shards controls how many spatial shards the coordinator splits a
	// non-clique topology into: 0 auto-selects (one shard below
	// autoShardMinN nodes, about autoShardNodes nodes per shard at or
	// above it, whatever GOMAXPROCS is), 1 forces a single shard, and
	// >= 2 forces about that many shards. Every shard count produces
	// byte-identical results: the coordinator dispatches events in one
	// global (at, seq) order, event keys are content-derived (per-node
	// Lamport clocks), and every RNG draw comes from the stream of the
	// node it realizes; shards reorganize data, not control flow. Cliques
	// (a single interference domain) always run on one shard.
	Shards int

	// Parallel is ignored: every run is single-threaded on the
	// coordinator, with the shard count Shards selects.
	//
	// Deprecated: the window-parallel engine it selected was removed
	// (it ran slower than the coordinator; see DESIGN.md §9).
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
	if !(c.Duration > 0) || math.IsInf(c.Duration, 0) {
		return errors.New("sim: duration must be positive and finite")
	}
	if !(c.Warmup >= 0) || c.Warmup >= c.Duration {
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

// shardPlan resolves the Shards setting to an effective shard count
// for the coordinator; cliques and small topologies get one shard.
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

// Metrics are the outputs of a run, measured over (Warmup, Duration].
type Metrics struct {
	Window   float64 // measured seconds
	Groupput float64 // fraction of time spent on per-receiver delivery
	Anyput   float64 // fraction of time spent on >=1-receiver delivery

	// Events counts the events dispatched within the horizon over the
	// whole run (including warmup): fired transitions, packet ends,
	// multiplier ticks and fault boundaries. A transition cancelled or
	// suspended before it came due is not an event. Identical at every
	// shard and worker count, and the denominator of the events/sec
	// scale benchmarks.
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
	at   float64
	seq  uint64 // Lamport tie-break key (see coordinator.nextSeq)
	kind int
	node int
}

// eventQueue is a binary min-heap over event values ordered by (at, seq)
// — the shard heap for every event kind but transitions (see transHeap),
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

// Run simulates the configuration and returns its metrics on the
// coordinator (coord.go), with the shard count shardPlan picks. A nil
// topology runs as the clique it stands for.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flt, err := faults.Compile(cfg.Faults, cfg.Network.N(), cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Topology == nil {
		cfg.Topology = topology.Clique(cfg.Network.N())
	}
	c := newCoordinator(cfg, flt, cfg.shardPlan())
	c.run()
	return c.finish(), nil
}
