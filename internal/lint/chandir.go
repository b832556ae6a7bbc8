package lint

import (
	"go/ast"
	"go/token"
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
							fix := chanDirFix(p, field)
							if fix == nil {
								fix = suppressionFix(p, field.Pos(), "chandir", "TODO: justify the bidirectional channel")
							}
							p.ReportfFix(field.Pos(), fix, "struct field %s holds a bidirectional channel; declare chan<- or <-chan so the request-reply roles are type-enforced", fieldNames(field))
						}
					}
				case *ast.FuncDecl:
					for _, param := range n.Type.Params.List {
						if hasBidirChan(p.Info.TypeOf(param.Type), 0) {
							fix := chanDirFix(p, param)
							if fix == nil {
								fix = suppressionFix(p, param.Pos(), "chandir", "TODO: justify the bidirectional channel")
							}
							p.ReportfFix(param.Pos(), fix, "parameter %s of %s holds a bidirectional channel; declare chan<- or <-chan so the caller's role is type-enforced", fieldNames(param), n.Name.Name)
						}
					}
					if n.Body != nil && !chanDirLicensed(n, licensed) {
						ast.Inspect(n.Body, func(m ast.Node) bool {
							if sel, ok := m.(*ast.SelectStmt); ok {
								fix := suppressionFix(p, sel.Pos(), "chandir", "TODO: justify multiplexing outside the licensed loops")
								p.ReportfFix(sel.Pos(), fix, "select outside the licensed event loops breaks the request-reply lockstep; move the multiplexing into them or restructure as blocking request/reply")
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

// chanDirFix proposes inserting the direction a flagged bidirectional
// channel field or parameter is actually used in: one only ever sent on
// (or closed) becomes chan<-, one only received from becomes <-chan.
// When the role is not provable from this package alone — uses in both
// directions, the channel passed along whole, or no uses at all — there
// is no fix and the caller falls back to a suppression stub. Only
// single-name declarations whose type is literally `chan T` qualify;
// channels nested in slices or maps need a human.
func chanDirFix(p *Pass, field *ast.Field) *Fix {
	ch, ok := field.Type.(*ast.ChanType)
	if !ok || ch.Dir != ast.SEND|ast.RECV || len(field.Names) != 1 {
		return nil
	}
	obj := p.Info.Defs[field.Names[0]]
	if obj == nil {
		return nil
	}
	sends, recvs, proven := chanUses(p, obj)
	if !proven || (sends > 0) == (recvs > 0) {
		return nil
	}
	tf := p.Fset.File(ch.Pos())
	if tf == nil {
		return nil
	}
	// The bidirectional type reads "chan T": prepending "<-" yields the
	// receive side, inserting it after the keyword yields the send side.
	off := tf.Offset(ch.Begin)
	msg := "declare the receive-only role: <-chan"
	if sends > 0 {
		off += len("chan")
		msg = "declare the send-only role: chan<-"
	}
	return &Fix{
		Message: msg,
		Edits:   []TextEdit{{File: tf.Name(), Start: off, End: off, New: "<-"}},
	}
}

// chanUses classifies every use of a channel-typed object across the
// package: sends (including close), receives (<-ch, range ch), and
// direction-neutral stores into the object (assignment targets,
// composite-literal keys), which stay legal once a direction is
// declared. proven is false when any use escapes this classification —
// e.g. the whole channel passed to a callee — because then the role
// cannot be established from this package.
func chanUses(p *Pass, obj types.Object) (sends, recvs int, proven bool) {
	classified := make(map[*ast.Ident]bool)
	mark := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if p.Info.Uses[e] == obj {
				classified[e] = true
				return true
			}
		case *ast.SelectorExpr:
			if p.Info.Uses[e.Sel] == obj {
				classified[e.Sel] = true
				return true
			}
		}
		return false
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if mark(n.Chan) {
					sends++
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && mark(n.X) {
					recvs++
				}
			case *ast.RangeStmt:
				if mark(n.X) {
					recvs++
				}
			case *ast.CallExpr:
				if id, isIdent := ast.Unparen(n.Fun).(*ast.Ident); isIdent && len(n.Args) == 1 {
					if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" && mark(n.Args[0]) {
						sends++
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.KeyValueExpr:
				if k, isIdent := n.Key.(*ast.Ident); isIdent && p.Info.Uses[k] == obj {
					classified[k] = true
				}
			}
			return true
		})
	}
	proven = true
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, isIdent := n.(*ast.Ident); isIdent && p.Info.Uses[id] == obj && !classified[id] {
				proven = false
			}
			return true
		})
	}
	return sends, recvs, proven
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
