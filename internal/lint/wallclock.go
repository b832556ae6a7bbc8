package lint

import (
	"go/ast"
)

// rngPkg is the one package licensed to own randomness; all simulation
// randomness must flow through its seeded Source streams.
const rngPkg = "econcast/internal/rng"

// wallclockBanned are the time package functions that read or depend on
// the wall clock. Simulators run on a virtual clock; a wall-clock read in
// protocol or simulation code makes runs unreproducible.
var wallclockBanned = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// wallclockLicensed are the packages that legitimately live on the wall
// clock: the serving layer and its daemon, where deadlines, Retry-After
// hints, backoff waits, and breaker cool-downs are real-time quantities
// by definition. Their one random decision, the client's backoff
// jitter, still comes from a seeded stream (see seedflow), so chaos runs
// replay; only the durations are real. Simulation and protocol code
// stays banned.
var wallclockLicensed = map[string]bool{
	"econcast/internal/serve": true,
	"econcast/cmd/oracled":    true,
}

// WallClock forbids wall-clock reads (time.Now, time.Sleep, …) and any
// use of math/rand outside internal/rng. Both break the repo-wide
// invariant that every run is exactly reproducible from a seed.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "wall-clock or math/rand use outside internal/rng",
	Run: func(p *Pass) {
		if p.Path == rngPkg {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch pkgNameOf(p.Info, sel.X) {
				case "time":
					if wallclockBanned[sel.Sel.Name] && !wallclockLicensed[p.Path] {
						p.Reportf(sel.Pos(), "time.%s reads the wall clock; simulations run on the virtual clock and must be reproducible from a seed", sel.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					p.Reportf(sel.Pos(), "math/rand bypasses the seeded streams in internal/rng; use rng.Source instead")
				}
				return true
			})
		}
	},
}
