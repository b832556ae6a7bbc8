package lint

import (
	"go/ast"
	"go/types"
)

// chanDirPkgs lists, per request-reply package, the event-loop methods
// licensed to multiplex channels. In asim the broker and the node
// runtimes exchange strictly alternating command/reply messages over
// per-node channels; that lockstep is what makes the concurrent
// simulator deterministic. The discipline is enforceable in the type
// system: every channel crossing the broker/node boundary (a struct
// field or a function parameter) must be declared with a direction, so a
// node physically cannot send on its own command channel, and no code
// outside the licensed loops may select — a select is a scheduling race
// by construction.
var chanDirPkgs = map[string][]hotEntry{
	"econcast/internal/asim": {
		{recv: "broker", method: "loop"},
		// ask is the loop's blocking request/reply primitive; its selects
		// pair every channel op with the liveness watchdog timer, which is
		// not a scheduling race: exactly one node channel is armed at a
		// time, so the reply order is still the loop's deterministic order.
		{recv: "broker", method: "ask"},
		// disarm's select is the standard non-blocking drain of a stopped
		// timer's channel; no node channel is involved.
		{recv: "broker", method: "disarm"},
		{recv: "nodeRuntime", method: "run"},
	},
	// The serving layer's selects are all two-way races against
	// cancellation or a timer, confined to four sites: the admission
	// gate's slot wait, a singleflight follower's wait on the leader, the
	// solve watchdog, and the client's backoff sleep. Every channel
	// stored in a struct or passed across a boundary is direction-typed
	// (gate.acq/gate.rel, flightCall.done, runSolve's done parameter).
	"econcast/internal/serve": {
		{recv: "gate", method: "acquire"},
		{recv: "flightGroup", method: "wait"},
		{recv: "Solver", method: "solveGuarded"},
		{recv: "Client", method: "sleep"},
	},
}

// ChanDir enforces the request-reply channel discipline of the
// concurrent simulators: boundary-crossing channels must be declared
// with a direction (chan<- or <-chan), and select statements are
// confined to the licensed event loops. Bidirectional channels are still
// fine as locals — make needs one — as long as every place they are
// stored or passed commits to a role.
var ChanDir = &Analyzer{
	Name: "chandir",
	Doc:  "bidirectional channel crossing the broker/node boundary, or select outside the licensed event loops",
	Run: func(p *Pass) {
		licensed, ok := chanDirPkgs[p.Path]
		if !ok {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, field := range n.Fields.List {
						if hasBidirChan(p.Info.TypeOf(field.Type), 0) {
							p.Reportf(field.Pos(), "struct field %s holds a bidirectional channel; declare chan<- or <-chan so the request-reply roles are type-enforced", fieldNames(field))
						}
					}
				case *ast.FuncDecl:
					for _, param := range n.Type.Params.List {
						if hasBidirChan(p.Info.TypeOf(param.Type), 0) {
							p.Reportf(param.Pos(), "parameter %s of %s holds a bidirectional channel; declare chan<- or <-chan so the caller's role is type-enforced", fieldNames(param), n.Name.Name)
						}
					}
					if n.Body != nil && !chanDirLicensed(n, licensed) {
						ast.Inspect(n.Body, func(m ast.Node) bool {
							if sel, ok := m.(*ast.SelectStmt); ok {
								p.Reportf(sel.Pos(), "select outside the licensed event loops breaks the request-reply lockstep; move the multiplexing into them or restructure as blocking request/reply")
							}
							return true
						})
					}
				}
				return true
			})
		}
	},
}

// chanDirLicensed reports whether fd is one of the package's licensed
// event-loop methods.
func chanDirLicensed(fd *ast.FuncDecl, licensed []hotEntry) bool {
	name := recvTypeName(fd)
	for _, e := range licensed {
		if name == e.recv && fd.Name.Name == e.method {
			return true
		}
	}
	return false
}

// hasBidirChan reports whether t is, or directly contains (through
// slices, arrays, maps, and pointers), a bidirectional channel type.
func hasBidirChan(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return false
	}
	switch t := t.Underlying().(type) {
	case *types.Chan:
		return t.Dir() == types.SendRecv
	case *types.Slice:
		return hasBidirChan(t.Elem(), depth+1)
	case *types.Array:
		return hasBidirChan(t.Elem(), depth+1)
	case *types.Pointer:
		return hasBidirChan(t.Elem(), depth+1)
	case *types.Map:
		return hasBidirChan(t.Key(), depth+1) || hasBidirChan(t.Elem(), depth+1)
	}
	return false
}

// fieldNames renders a field's name list ("cmds", "a, b"), or "(embedded)".
func fieldNames(field *ast.Field) string {
	if len(field.Names) == 0 {
		return "(embedded)"
	}
	s := field.Names[0].Name
	for _, n := range field.Names[1:] {
		s += ", " + n.Name
	}
	return s
}
