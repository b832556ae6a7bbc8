package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"econcast/internal/lint/flow"
)

// hotEntry names one event-loop entry point: a method on a receiver type
// from which the whole per-event call tree is reachable.
type hotEntry struct {
	recv   string
	method string
}

// hotEntries lists, per package, the entry points of the allocation-free
// hot paths. Everything statically reachable from an entry through
// same-package calls is "hot": the simulators execute those functions once
// per discrete event (millions of times per run), the simplex once per
// pivot, and the Gibbs evaluation once per dual-descent step, so a single
// allocation there dominates the profile. Cold setup/teardown
// (newCoordinator, Run, Solve's tableau construction, Enumerate) is not
// reachable from the entries and stays unconstrained.
var hotEntries = map[string][]hotEntry{
	"econcast/internal/sim": {
		// The per-event path: the event loop's step, from which head
		// and every handler are reachable.
		{recv: "coordinator", method: "step"},
	},
	// The shared event heap: both engines call Set and Remove once per
	// event, and the hot closure stays within one package, so the
	// heap's own methods are entries here.
	"econcast/internal/evq": {
		{recv: "Heap", method: "Set"},
		{recv: "Heap", method: "Remove"},
	},
	"econcast/internal/asim": {
		{recv: "broker", method: "loop"},
		{recv: "nodeRuntime", method: "run"},
	},
	"econcast/internal/lp": {
		{recv: "tableau", method: "iterate"},
		{recv: "tableau", method: "pivot"},
	},
	"econcast/internal/statespace": {
		{recv: "Space", method: "Gibbs"},
	},
	// The fault-schedule queries run once per simulator event when fault
	// injection is on; they must not spoil the engines' 0 allocs/op.
	"econcast/internal/faults": {
		{recv: "Set", method: "Alive"},
		{recv: "Set", method: "Silenced"},
		{recv: "Set", method: "HarvestScale"},
		{recv: "Set", method: "DropRx"},
		{recv: "Set", method: "Drift"},
	},
	// The serving layer's admission decision runs once per arrival even
	// at full overload — it is the path that must stay fast precisely
	// when the process is drowning, so queue-full rejection must not
	// allocate.
	"econcast/internal/serve": {
		{recv: "gate", method: "admit"},
	},
}

// HotAlloc flags allocation sites inside the simulators' event-loop call
// trees: make, append, and map literals (as before), plus — now that the
// analysis is flow-sensitive over internal/lint/flow — capturing
// function literals, values boxed into empty interfaces at call sites,
// and loop-invariant makes that provably do not escape their iteration,
// which earn a "hoistable" finding whose hint names the x = x[:0] reslice
// for the make([]T, 0, cap) shape. The event loops are required to be
// allocation-free in steady state (see internal/sim/alloc_test.go); an
// allocation that is genuinely one-time or amortized earns a per-line
// `//lint:allow hotalloc <reason>`.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocation (make/append/map literal/closure/interface boxing) inside a simulator event loop",
	Run: func(p *Pass) {
		entries, ok := hotEntries[p.Path]
		if !ok {
			return
		}

		decls := funcDecls(p)

		// Seed the worklist with the entry methods.
		hot := make(map[*types.Func]bool)
		var work []*types.Func
		for fn, fd := range decls {
			name := recvTypeName(fd)
			for _, e := range entries {
				if name == e.recv && fd.Name.Name == e.method {
					hot[fn] = true
					work = append(work, fn)
				}
			}
		}

		// Transitive closure over same-package static calls: any helper the
		// event loop calls is itself hot.
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(p.Info, call)
				if callee == nil || hot[callee] {
					return true
				}
				if _, ok := decls[callee]; ok {
					hot[callee] = true
					work = append(work, callee)
				}
				return true
			})
		}

		for fn := range hot {
			checkHotFunc(p, decls[fn])
		}
	},
}

// checkHotFunc reports the allocation sites of one hot function.
func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	hoist := hoistableMakes(p, fd)
	panicSpans := panicArgSpans(fd)
	inPanicArg := func(pos token.Pos) bool {
		for _, s := range panicSpans {
			if pos > s[0] && pos < s[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "append":
						if how, ok := hoist[n]; ok {
							p.Reportf(n.Pos(), "make in hot path %s is loop-invariant and does not escape its iteration; hoist it above the loop and reuse the buffer (%s)", fd.Name.Name, how)
						} else {
							p.Reportf(n.Pos(), "%s in hot path %s; hoist the allocation out of the event loop or add //lint:allow hotalloc with a justification", b.Name(), fd.Name.Name)
						}
					}
					return true
				}
			}
			if !inPanicArg(n.Pos()) {
				checkBoxing(p, fd, n)
			}
		case *ast.CompositeLit:
			t := p.Info.TypeOf(n)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				p.Reportf(n.Pos(), "map literal in hot path %s; hoist the allocation out of the event loop or add //lint:allow hotalloc with a justification", fd.Name.Name)
			}
		case *ast.FuncLit:
			if !inPanicArg(n.Pos()) && capturesVariables(p, n) {
				p.Reportf(n.Pos(), "capturing function literal in hot path %s allocates a closure per event; predeclare the function or hoist the capture out of the event loop", fd.Name.Name)
			}
		}
		return true
	})
}

// panicArgSpans collects the argument spans of builtin panic calls: a
// panic aborts the run, so an allocation feeding one is not a
// steady-state cost.
func panicArgSpans(fd *ast.FuncDecl) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPanicCall(call) {
			spans = append(spans, [2]token.Pos{call.Lparen, call.Rparen})
		}
		return true
	})
	return spans
}

// checkBoxing reports non-interface values bound to empty-interface
// parameters (or converted with any(x)): each binding allocates to box
// the value. Spread calls (f(xs...)) pass an existing slice and box
// nothing new.
func checkBoxing(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if call.Ellipsis.IsValid() {
		return
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: any(x) with a concrete x boxes.
		if len(call.Args) == 1 && isEmptyInterface(tv.Type) && boxes(p, call.Args[0]) {
			p.Reportf(call.Args[0].Pos(), "value boxes into an empty interface in hot path %s; keep the concrete type or add //lint:allow hotalloc with a justification", fd.Name.Name)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isEmptyInterface(pt) && boxes(p, arg) {
			p.Reportf(arg.Pos(), "argument boxes into an empty interface in hot path %s; each binding allocates — avoid the interface{} sink on the event path or add //lint:allow hotalloc with a justification", fd.Name.Name)
		}
	}
}

// boxes reports whether passing arg to an empty-interface slot
// allocates: its type is concrete (non-interface) and not untyped nil.
func boxes(p *Pass, arg ast.Expr) bool {
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	return true
}

func isEmptyInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.Empty()
}

// capturesVariables reports whether lit closes over any variable
// declared outside it (other than package-level state): only capturing
// literals materialize a closure object at run time.
func capturesVariables(p *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// hoistableMakes finds `x := make(...)` statements inside loops of fd
// whose arguments are loop-invariant (every reaching definition of every
// argument variable lies outside the loop) and whose result provably
// does not escape its iteration, each mapped to the reuse hint its
// finding carries. Those allocations can always be replaced by a buffer
// reused across iterations; for the make([]T, 0, cap) shape the reuse is
// a reslice to x[:0] in the loop.
func hoistableMakes(p *Pass, fd *ast.FuncDecl) map[*ast.CallExpr]string {
	found := make(map[*ast.CallExpr]string)

	// Innermost enclosing loop for every node of interest.
	var g *flow.Graph
	var reach *flow.Reach
	build := func() {
		if g != nil {
			return
		}
		g = flow.Build(fd.Body)
		var fields []*ast.FieldList
		fields = append(fields, fd.Recv)
		if fd.Type.Params != nil {
			fields = append(fields, fd.Type.Params)
		}
		if fd.Type.Results != nil {
			fields = append(fields, fd.Type.Results)
		}
		reach = flow.Reaching(g, p.Info, fields...)
	}

	var loops []ast.Node // enclosing loop stack
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, visit)
			loops = loops[:len(loops)-1]
			return false
		case *ast.RangeStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, visit)
			loops = loops[:len(loops)-1]
			return false
		case *ast.FuncLit:
			return false // a literal's body is its own scope
		case *ast.AssignStmt:
			if len(loops) == 0 {
				return true
			}
			loop := loops[len(loops)-1]
			if how, call, ok := hoistableAssign(p, loop, n, &reach, build); ok {
				found[call] = how
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	return found
}

// hoistableAssign decides whether one in-loop assignment is a hoistable
// make, and if so returns its reuse hint.
func hoistableAssign(p *Pass, loop ast.Node, as *ast.AssignStmt, reach **flow.Reach, build func()) (string, *ast.CallExpr, bool) {
	if as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", nil, false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return "", nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return "", nil, false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", nil, false
	}
	if b, ok := p.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "make" {
		return "", nil, false
	}

	build()

	// Loop-invariant arguments: every variable read by a make argument
	// must have all its reaching definitions outside the loop.
	for _, arg := range call.Args[1:] {
		invariant := true
		ast.Inspect(arg, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || !invariant {
				return invariant
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			defs, ok := (*reach).DefsAt(v, id.Pos())
			if !ok {
				invariant = false
				return false
			}
			for _, d := range defs {
				if d.Node != nil && d.Node.Pos() >= loop.Pos() && d.Node.End() <= loop.End() {
					invariant = false
					return false
				}
			}
			return true
		})
		if !invariant {
			return "", nil, false
		}
	}

	// Iteration-local result: the made value must not escape the loop
	// body (returned, stored elsewhere, captured, appended into an
	// accumulator...).
	v, ok := p.Info.Defs[lhs].(*types.Var)
	if !ok {
		return "", nil, false
	}
	body := loopBody(loop)
	if esc := flow.EscapesRegion(p.Info, body, v); esc.Class != flow.Local {
		return "", nil, false
	}

	if zeroLenSliceMake(p, call) {
		return "x = x[:0] each iteration", call, true
	}
	return "reuse a preallocated buffer across iterations", call, true
}

func loopBody(loop ast.Node) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// zeroLenSliceMake reports whether call has the make([]T, 0, cap) shape,
// the one a reslice can reuse: non-zero lengths rely on fresh zeroing,
// and maps need a clear loop.
func zeroLenSliceMake(p *Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 3 {
		return false
	}
	if _, isSlice := p.Info.TypeOf(call).Underlying().(*types.Slice); !isSlice {
		return false
	}
	ltv, ok := p.Info.Types[call.Args[1]]
	return ok && ltv.Value != nil && ltv.Value.String() == "0"
}

// funcDecls indexes the package's function and method declarations with
// bodies by their type-checker object. Several analyzers (hotalloc,
// seedflow, sharedstate) use it to chase same-package static calls.
func funcDecls(p *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// recvTypeName returns the bare receiver type name of a method
// declaration ("engine" for `func (e *engine) step()`), or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isPanicCall matches a call to the builtin panic.
func isPanicCall(c *ast.CallExpr) bool {
	id, ok := ast.Unparen(c.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
