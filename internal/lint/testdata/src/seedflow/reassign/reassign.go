// Package fixture pins seedflow's reassignment behavior: a local seed
// is chased through every assignment in its function, reachable or
// not. A collision-prone initializer is therefore a finding even when
// every path overwrites it with a sound derivation before the sink
// (rederived, rederivedField); the conservative scan keeps such dead
// arithmetic out of the tree. The one-branch variants keep a tainted
// path alive and are findings under any reading.
package fixture

import "econcast/internal/rng"

type cellCfg struct {
	Sigma float64
	Seed  uint64
}

// rederived overwrites the tainted initializer on both branches; no
// arithmetic reaches rng.New, but the initializer is still flagged.
func rederived(base uint64, hot bool) *rng.Source {
	seed := base + 1 // want seedflow
	if hot {
		seed = rng.DeriveSeed(base, 1)
	} else {
		seed = rng.DeriveSeed(base, 2)
	}
	return rng.New(seed)
}

// rederivedField is the same shape through a Seed field store.
func rederivedField(base uint64, i int) cellCfg {
	s := base * 31 // want seedflow
	switch {
	case i == 0:
		s = rng.DeriveSeed(base, 0)
	default:
		s = rng.DeriveSeed(base, uint64(i))
	}
	return cellCfg{Seed: s}
}

// oneBranch only fixes the hot path: the tainted initializer still
// reaches the sink along the else edge.
func oneBranch(base uint64, hot bool) *rng.Source {
	seed := base + 1 // want seedflow
	if hot {
		seed = rng.DeriveSeed(base, 1)
	}
	return rng.New(seed)
}

// lateTaint derives soundly first, then damages the seed on one path
// before the sink; the tainted write is the finding.
func lateTaint(base uint64, skew int) *rng.Source {
	seed := rng.DeriveSeed(base, 7)
	if skew > 0 {
		seed = seed + uint64(skew) // want seedflow
	}
	return rng.New(seed)
}

// sunkBeforeFix sinks the tainted value BEFORE the rederivation: the
// arithmetic reaches the first sink, even though a later write cleans
// it up for the second sink.
func sunkBeforeFix(base uint64) (a, b *rng.Source) {
	seed := base ^ 0x5bd1e995 // want seedflow
	a = rng.New(seed)
	seed = rng.DeriveSeed(base, 9)
	b = rng.New(seed)
	return a, b
}
