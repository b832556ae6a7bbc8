// Package econcast implements the paper's contribution: the EconCast
// distributed protocol (§V). A Node transitions between sleep, listen, and
// transmit states with exponential rates (eq. 18) that it adapts online
// from the dynamics of its energy storage through a Lagrange multiplier
// update (eq. 17). Nodes know only their own power consumption levels and
// observe (i) carrier sense and (ii) a listener estimate obtained from
// low-cost pings; they need no knowledge of the network size or of other
// nodes' budgets.
//
// The package is pure protocol logic: a host runtime (the discrete-event
// simulator in internal/sim, the goroutine runtime in internal/asim, or the
// emulated testbed in internal/testbed) drives time, carrier sensing, and
// ping collection, and samples transition delays from the rates a Node
// reports.
//
// The state is split hot/cold for structure-of-arrays hosts: Core is the
// per-node dynamic state (multiplier, batteries, interval bookkeeping —
// one 64-byte cache line), Params the comparable parameter block that
// homogeneous fleets share, and the time-varying harvest profile rides
// separately so Params stays comparable. Node packages the three behind
// the original single-owner API for hosts that don't need the split.
package econcast

import (
	"errors"
	"fmt"
	"math"

	"econcast/internal/model"
)

// Variant selects between the two EconCast versions of §V-D, which differ
// only in transmit-state behaviour.
type Variant int

const (
	// Capture is EconCast-C: a transmitter may hold the channel for
	// several back-to-back packets, re-estimating the listener count after
	// each packet from pings and continuing with probability
	// 1 - exp(-estimate/sigma).
	Capture Variant = iota
	// NonCapture is EconCast-NC: the channel is released after every
	// packet; the listener estimate instead boosts the listen->transmit
	// rate.
	NonCapture
)

func (v Variant) String() string {
	if v == NonCapture {
		return "EconCast-NC"
	}
	return "EconCast-C"
}

// Config holds a node's protocol parameters.
type Config struct {
	Mode    model.Mode // throughput objective: groupput or anyput
	Variant Variant
	Sigma   float64 // temperature; smaller approaches the oracle (§V-F)

	// Delta is the multiplier step size and Tau the update interval in
	// seconds (eq. 17, with the constant choice recommended in §V-F).
	Delta float64
	Tau   float64

	// Node hardware parameters (Watts).
	Budget        float64 // rho: harvesting / budget rate
	ListenPower   float64 // L
	TransmitPower float64 // X

	// PacketTime is the duration of one unit packet in seconds; the rates
	// of eq. (18) are expressed per packet time. Default 1 ms.
	PacketTime float64

	// InitialBattery is b(0) in Joules. BatteryCapacity caps storage
	// (harvest overflow is lost); zero or negative means unbounded.
	// If ClampBatteryAtZero is set the battery cannot go negative, which
	// models a node that physically cannot overspend; by default the
	// battery may dip below zero transiently, like the paper's virtual
	// battery.
	InitialBattery     float64
	BatteryCapacity    float64
	ClampBatteryAtZero bool

	// Harvest, when non-nil, replaces the constant Budget charging rate
	// with a time-varying profile (argument: seconds since the node
	// started). Budget must still be set (it is used for validation and as
	// the nominal rate); the multiplier update needs no change since
	// eq. (17) observes only battery differences.
	Harvest func(elapsed float64) float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	c.PacketTime = model.DefaultIfZero(c.PacketTime, 1e-3)
	c.Delta = model.DefaultIfZero(c.Delta, 0.05)
	c.Tau = model.DefaultIfZero(c.Tau, 200*c.PacketTime)
	return c
}

// Validate reports configuration errors. Every rate, power and time
// scale must be positive and finite: an infinite one would freeze a node
// or poison its multiplier without any error.
func (c Config) Validate() error {
	c = c.withDefaults()
	if !positiveFinite(c.Sigma) {
		return fmt.Errorf("econcast: sigma %v must be positive and finite", c.Sigma)
	}
	if !positiveFinite(c.Budget) || !positiveFinite(c.ListenPower) || !positiveFinite(c.TransmitPower) {
		return errors.New("econcast: budget, listen and transmit power must be positive and finite")
	}
	if !positiveFinite(c.PacketTime) || !positiveFinite(c.Tau) || !positiveFinite(c.Delta) {
		return errors.New("econcast: packet time, tau and delta must be positive and finite")
	}
	return nil
}

// positiveFinite reports whether x is in (0, +Inf); it is false for NaN.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Rates is the set of transition rates of eq. (18) in events per second,
// already gated by carrier sense.
type Rates struct {
	SleepToListen    float64
	ListenToSleep    float64
	ListenToTransmit float64
	TransmitToListen float64
}

// Params is the cold half of a node's protocol state: the defaulted
// configuration scalars plus the derived power scale. It deliberately
// excludes the Harvest profile so the struct is comparable — a
// structure-of-arrays host dedups Params across a homogeneous fleet and
// keys the dedup with ==. Params never changes after construction.
type Params struct {
	Mode    model.Mode
	Variant Variant
	Sigma   float64
	Delta   float64
	Tau     float64

	Budget        float64
	ListenPower   float64
	TransmitPower float64
	PacketTime    float64

	BatteryCapacity    float64
	ClampBatteryAtZero bool

	P0 float64 // power scale max(L, X); eta is per this scale
}

// NewParams derives the cold parameter block from a validated
// configuration (defaults applied). The Harvest profile is not part of
// Params; hosts carry it separately (see Core.Advance).
func NewParams(cfg Config) Params {
	cfg = cfg.withDefaults()
	return Params{
		Mode:               cfg.Mode,
		Variant:            cfg.Variant,
		Sigma:              cfg.Sigma,
		Delta:              cfg.Delta,
		Tau:                cfg.Tau,
		Budget:             cfg.Budget,
		ListenPower:        cfg.ListenPower,
		TransmitPower:      cfg.TransmitPower,
		PacketTime:         cfg.PacketTime,
		BatteryCapacity:    cfg.BatteryCapacity,
		ClampBatteryAtZero: cfg.ClampBatteryAtZero,
		P0:                 math.Max(cfg.ListenPower, cfg.TransmitPower),
	}
}

// Estimate converts a listener count into the estimate the protocol
// consumes: c-hat for groupput mode, gamma-hat for anyput mode (§V-B).
func (p *Params) Estimate(listeners int) float64 {
	if p.Mode == model.Anyput {
		if listeners > 0 {
			return 1
		}
		return 0
	}
	return float64(listeners)
}

// Core is the hot half of a node's protocol state: the Lagrange
// multiplier, the physical and virtual batteries, and the tau-interval
// bookkeeping the event loop touches on every energy accrual. The seven
// 8-byte fields plus padding fill exactly one 64-byte cache line, so a
// []Core slab in a structure-of-arrays engine keeps one node's entire
// dynamic protocol state in a single line.
type Core struct {
	Eta     float64 // Lagrange multiplier, scaled by Params.P0
	Battery float64 // physical store (clamped if configured)
	Ledger  float64 // estimator ledger: unclamped virtual battery

	intervalStart   float64 // ledger level at the start of the interval
	intervalElapsed float64 // seconds into the current tau interval
	elapsed         float64 // total seconds advanced since start
	updates         int64   // number of multiplier updates applied

	_ [8]byte // pad to 64 bytes; keep []Core slabs line-aligned
}

// NewCore returns the initial dynamic state for a node starting with the
// given battery level.
func NewCore(initialBattery float64) Core {
	return Core{
		Battery:       initialBattery,
		Ledger:        initialBattery,
		intervalStart: initialBattery,
	}
}

// Updates returns how many multiplier updates have been applied.
func (n *Core) Updates() int { return int(n.updates) }

// Depleted reports whether the battery is at or below zero.
func (n *Core) Depleted() bool { return n.Battery <= 0 }

// scaled returns the dimensionless exponent eta * power / sigma used by
// the rate laws; power is scaled by the node's own P0 so eta stays O(1).
func (n *Core) scaled(p *Params, power float64) float64 {
	return n.Eta * power / p.P0 / p.Sigma
}

// Rates evaluates eq. (18) for the current multiplier. carrierFree is the
// indicator A(t): when false (an ongoing transmission is sensed), the
// sleep->listen, listen->sleep and listen->transmit transitions freeze.
// estimate is c-hat (groupput) or gamma-hat (anyput), used by the
// listen->transmit rate of the non-capture variant and the
// transmit->listen rate of the capture variant. Rates are per second.
func (n *Core) Rates(p *Params, carrierFree bool, estimate float64) Rates {
	r := Rates{SleepToListen: n.SleepToListen(p, carrierFree)}
	r.ListenToSleep, r.ListenToTransmit = n.ListenRates(p, carrierFree, estimate)
	perSec := 1 / p.PacketTime
	switch p.Variant {
	case Capture:
		r.TransmitToListen = math.Exp(-estimate/p.Sigma) * perSec
	case NonCapture:
		r.TransmitToListen = perSec
	}
	return r
}

// SleepToListen is the SleepToListen field of Rates on its own. A host
// that needs only the rates out of a node's current state calls this or
// ListenRates and skips the exponentials of the other states. A sensed
// carrier freezes the rate to an exact zero without evaluating the
// exponential.
func (n *Core) SleepToListen(p *Params, carrierFree bool) float64 {
	if !carrierFree {
		return 0
	}
	return math.Exp(-n.scaled(p, p.ListenPower)) * (1 / p.PacketTime)
}

// ListenRates returns the ListenToSleep and ListenToTransmit fields of
// Rates, computed without the other two. Like SleepToListen, both are
// exact zeros under a sensed carrier, even where the exponential would
// overflow (L > X with a large multiplier).
func (n *Core) ListenRates(p *Params, carrierFree bool, estimate float64) (toSleep, toTransmit float64) {
	if !carrierFree {
		return 0, 0
	}
	perSec := 1 / p.PacketTime
	lx := n.scaled(p, p.ListenPower) - n.scaled(p, p.TransmitPower)
	switch p.Variant {
	case Capture:
		toTransmit = math.Exp(lx) * perSec
	case NonCapture:
		toTransmit = math.Exp(lx+estimate/p.Sigma) * perSec
	}
	return perSec, toTransmit
}

// ContinueTransmitProb is the packetized form of the transmit-state
// holding time (§V-B, §VIII-C): after each unit packet an EconCast-C
// transmitter continues with probability 1 - exp(-estimate/sigma). The
// non-capture variant always releases (probability 0).
func (n *Core) ContinueTransmitProb(p *Params, estimate float64) float64 {
	if p.Variant == NonCapture {
		return 0
	}
	return 1 - math.Exp(-estimate/p.Sigma)
}

// Advance accrues dt seconds of operation in the given state: the battery
// charges at the budget rate (or the harvest profile, when non-nil) and
// drains at the state's power draw, and the multiplier update of eq. (17)
// fires at every tau boundary crossed.
func (n *Core) Advance(p *Params, harvest func(elapsed float64) float64, dt float64, st model.State) {
	if dt < 0 {
		panic("econcast: negative dt")
	}
	draw := n.power(p, st)
	for dt > 0 {
		step := dt
		if remaining := p.Tau - n.intervalElapsed; step > remaining {
			step = remaining
		}
		h := p.Budget
		if harvest != nil {
			// Piecewise-constant within the step, sampled at its start;
			// steps never exceed tau, so slowly-varying profiles are
			// integrated accurately.
			h = harvest(n.elapsed)
		}
		n.elapsed += step
		net := (h - draw) * step
		// The estimator ledger is the paper's virtual battery: it may go
		// negative so eq. (17) keeps seeing true overspending even when
		// the physical store is pinned at zero.
		n.Ledger += net
		n.Battery += net
		if p.BatteryCapacity > 0 {
			if n.Battery > p.BatteryCapacity {
				n.Battery = p.BatteryCapacity
			}
			if n.Ledger > p.BatteryCapacity {
				n.Ledger = p.BatteryCapacity
			}
		}
		if p.ClampBatteryAtZero && n.Battery < 0 {
			n.Battery = 0
		}
		n.intervalElapsed += step
		dt -= step
		if n.intervalElapsed >= p.Tau-1e-15 {
			n.updateMultiplier(p)
		}
	}
}

// updateMultiplier applies eq. (17): eta <- [eta - delta * (b_k - b_{k-1})
// / tau]^+, with the virtual-battery slope normalized by the node's power
// scale so eta and delta are dimensionless.
func (n *Core) updateMultiplier(p *Params) {
	slope := (n.Ledger - n.intervalStart) / p.Tau / p.P0
	n.Eta = math.Max(0, n.Eta-p.Delta*slope)
	n.intervalStart = n.Ledger
	n.intervalElapsed = 0
	n.updates++
}

func (n *Core) power(p *Params, st model.State) float64 {
	switch st {
	case model.Listen:
		return p.ListenPower
	case model.Transmit:
		return p.TransmitPower
	default:
		return 0
	}
}

// Node is the per-node EconCast state machine behind the original
// single-owner API: the cold Params, the optional harvest profile, and
// the hot Core, packaged together for hosts (asim, testbed) that keep
// one object per node; the sim coordinator keeps Core and Params in
// separate slabs instead. It is not safe for concurrent use; each host
// goroutine owns one Node.
//
//lint:owner goroutine each host goroutine owns one Node
type Node struct {
	cfg     Config
	par     Params
	harvest func(elapsed float64) float64
	core    Core
}

// NewNode returns a node with the given configuration. It panics on an
// invalid configuration; call Config.Validate first for graceful handling.
func NewNode(cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return &Node{
		cfg:     cfg,
		par:     NewParams(cfg),
		harvest: cfg.Harvest,
		core:    NewCore(cfg.InitialBattery),
	}
}

// Config returns the node's (defaulted) configuration.
func (n *Node) Config() Config { return n.cfg }

// Params returns the node's cold parameter block.
func (n *Node) Params() Params { return n.par }

// Core returns a copy of the node's hot dynamic state.
func (n *Node) Core() Core { return n.core }

// Eta returns the current Lagrange multiplier (dimensionless, scaled to the
// node's own max power level).
func (n *Node) Eta() float64 { return n.core.Eta }

// SetEta overrides the multiplier, e.g. to warm-start from an analytical
// solution. The expected scale is eta_analytical * max(L, X).
func (n *Node) SetEta(eta float64) {
	if eta < 0 {
		eta = 0
	}
	n.core.Eta = eta
}

// Battery returns the current energy storage level in Joules.
func (n *Node) Battery() float64 { return n.core.Battery }

// Updates returns how many multiplier updates have been applied.
func (n *Node) Updates() int { return n.core.Updates() }

// Depleted reports whether the battery is at or below zero.
func (n *Node) Depleted() bool { return n.core.Depleted() }

// Estimate converts a listener count into the estimate the protocol
// consumes: c-hat for groupput mode, gamma-hat for anyput mode (§V-B).
func (n *Node) Estimate(listeners int) float64 { return n.par.Estimate(listeners) }

// Rates evaluates eq. (18) for the current multiplier; see Core.Rates.
func (n *Node) Rates(carrierFree bool, estimate float64) Rates {
	return n.core.Rates(&n.par, carrierFree, estimate)
}

// ContinueTransmitProb is the packetized transmit-state holding law; see
// Core.ContinueTransmitProb.
func (n *Node) ContinueTransmitProb(estimate float64) float64 {
	return n.core.ContinueTransmitProb(&n.par, estimate)
}

// Advance accrues dt seconds of operation in the given state; see
// Core.Advance.
func (n *Node) Advance(dt float64, st model.State) {
	n.core.Advance(&n.par, n.harvest, dt, st)
}
