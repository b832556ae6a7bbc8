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
	// adaptation trajectory for convergence studies. Every node ticks at
	// the same instants, and the calls at one instant arrive in ascending
	// node order, before any other event at that instant.
	OnTick func(node int, now, eta float64)

	// Churn, when non-nil, gives each node an activity schedule: the node
	// participates only while Churn(node, t) is true (outside it neither
	// harvests, transmits, listens, nor carrier-senses — it is absent, as
	// a mobile tag out of range). Activity is sampled at multiplier ticks,
	// so transitions take effect within one tau.
	Churn func(node int, t float64) bool

	// Parallel is ignored: every run is one single-threaded event loop.
	//
	// Deprecated: the window-parallel engine it selected was removed
	// (it ran slower than the single loop; see DESIGN.md §9).
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
	if err := model.CheckHorizon(c.Duration, c.Warmup); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.WarmEta != nil && len(c.WarmEta) != c.Network.N() {
		return errors.New("sim: WarmEta length mismatch")
	}
	for i := range c.Network.Nodes {
		if err := c.nodeConfig(i).Validate(); err != nil {
			return fmt.Errorf("sim: node %d: %w", i, err)
		}
	}
	return nil
}

// nodeConfig is node i's protocol configuration: the shared protocol
// parameters and node i's hardware.
func (c *Config) nodeConfig(i int) econcast.Config {
	nd := c.Network.Nodes[i]
	return econcast.Config{
		Mode:               c.Protocol.Mode,
		Variant:            c.Protocol.Variant,
		Sigma:              c.Protocol.Sigma,
		Delta:              c.Protocol.Delta,
		Tau:                c.Protocol.Tau,
		Budget:             nd.Budget,
		ListenPower:        nd.ListenPower,
		TransmitPower:      nd.TransmitPower,
		PacketTime:         c.Protocol.PacketTime,
		InitialBattery:     c.InitialBattery,
		ClampBatteryAtZero: c.HardBatteryFloor,
	}
}

// rngNodeDomain separates the per-node stream family from any other
// DeriveSeed use of the run seed.
const rngNodeDomain = 0x4e4f4445 // "NODE"

// Metrics are the outputs of a run, measured over (Warmup, Duration].
type Metrics struct {
	Window   float64 // measured seconds
	Groupput float64 // fraction of time spent on per-receiver delivery
	Anyput   float64 // fraction of time spent on >=1-receiver delivery

	// Events counts the events dispatched within the horizon over the
	// whole run (including warmup): fired transitions, packet ends,
	// multiplier ticks and fault boundaries. A transition cancelled or
	// suspended before it came due is not an event. Identical at every
	// sweep worker count, and the denominator of the events/sec scale
	// benchmarks.
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

// Run simulates the configuration and returns its metrics on the
// coordinator (coord.go). A nil topology runs as the clique it stands
// for.
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
	c, err := newCoordinator(cfg, flt)
	if err != nil {
		return nil, err
	}
	c.run()
	return c.finish(), nil
}
