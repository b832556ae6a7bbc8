package lint

import (
	"go/ast"
)

// concurrencyPkgs are the only packages licensed to spawn goroutines:
// asim's broker/node protocol, sweep's bounded worker pool, and the
// serving layer (plus its daemon). asim and sweep confine concurrency
// behind a determinism fence (a conservative virtual clock, or sweep's
// index-ordered collection barrier) so runs stay reproducible; serve is
// a real server whose goroutines (watchdogged solves, HTTP handlers) are
// inherently concurrent but whose *decisions* stay seed-deterministic.
// A raw `go` statement anywhere else reintroduces scheduling
// nondeterminism (and data-race surface) outside those fences.
var concurrencyPkgs = map[string]bool{
	"econcast/internal/asim":  true,
	"econcast/internal/sweep": true,
	"econcast/internal/serve": true,
	"econcast/cmd/oracled":    true,
}

// RawGoroutine flags `go` statements outside the licensed concurrency
// packages.
var RawGoroutine = &Analyzer{
	Name: "rawgoroutine",
	Doc:  "goroutine spawned outside internal/asim, internal/sweep, internal/serve and cmd/oracled",
	Run: func(p *Pass) {
		if concurrencyPkgs[p.Path] {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "goroutines are confined to internal/asim, internal/sweep, internal/serve and cmd/oracled; route concurrency through their fenced pools")
				}
				return true
			})
		}
	},
}
