package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitFlow checks dimensional consistency of the physically-typed
// quantities in the model: energies in Joules, powers in Watts, times
// in seconds vs. simulator ticks, packet counts and rates. Dimensions
// are seeded from the declarative registry in units.go and propagated
// through assignments, arithmetic, and call boundaries:
//
//   - mul/div compose dimensions (J / s = W);
//   - add/sub/compare require both sides to agree;
//   - assignments into registered fields, arguments to registered
//     parameters, composite literals, and returns from registered
//     functions must match the registered dimension.
//
// The lattice is three-valued — unknown, scalar (dimensionless
// constants and int conversions), known — and only a meeting of two
// known, different dimensions is reported, so unannotated code never
// flags. Result dimensions of unregistered same-package functions are
// inferred from their return statements when unambiguous, which is what
// carries dimensions interprocedurally beyond the registry seed.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc:  "mixed-dimension arithmetic or tick/second conflation between physically-typed quantities",
	Run:  runUnitFlow,
}

// dimVal is the unitflow lattice value of an expression.
type dimVal struct {
	kind byte // dimUnknown, dimScalar, or dimKnown
	d    Dim
}

const (
	dimUnknown byte = iota // no information; never flags
	dimScalar              // dimensionless; composes neutrally
	dimKnown               // carries d
)

func known(d Dim) dimVal { return dimVal{kind: dimKnown, d: d} }

var (
	unknownVal = dimVal{kind: dimUnknown}
	scalarVal  = dimVal{kind: dimScalar}
)

// uf is the per-package unitflow state.
type uf struct {
	p        *Pass
	decls    map[*types.Func]*ast.FuncDecl
	resMemo  map[*types.Func]dimVal // inferred result dims
	visiting map[*types.Func]bool   // inference recursion guard
	env      map[*types.Var]dimVal  // current function's local dims
	seeds    map[*types.Var]dimVal  // registry-declared parameter dims
	reported map[token.Pos]bool
}

func runUnitFlow(p *Pass) {
	u := &uf{
		p:        p,
		decls:    funcDecls(p),
		resMemo:  make(map[*types.Func]dimVal),
		visiting: make(map[*types.Func]bool),
		reported: make(map[token.Pos]bool),
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				u.checkFunc(fd)
			}
		}
	}
}

func (u *uf) report(pos token.Pos, format string, args ...any) {
	if u.reported[pos] {
		return
	}
	u.reported[pos] = true
	u.p.Reportf(pos, format, args...)
}

func (u *uf) checkFunc(fd *ast.FuncDecl) {
	u.env = make(map[*types.Var]dimVal)
	u.seeds = make(map[*types.Var]dimVal)
	u.seedParams(fd)
	// Two environment passes before reporting: dims flow forward through
	// assignments, so a second pass stabilizes vars first used above the
	// assignment that dims them (loop-carried state).
	u.buildEnv(fd.Body)
	u.buildEnv(fd.Body)

	resDim := u.declaredResultDim(fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			u.checkBinary(n)
		case *ast.AssignStmt:
			u.checkAssign(n)
		case *ast.CallExpr:
			u.checkCallArgs(n)
		case *ast.CompositeLit:
			u.checkComposite(n)
		case *ast.ReturnStmt:
			if resDim.kind == dimKnown && len(n.Results) == 1 {
				got := u.exprDim(n.Results[0])
				if got.kind == dimKnown && got.d != resDim.d {
					u.report(n.Results[0].Pos(), "%s returns %s but this value is %s", fd.Name.Name, resDim.d, got.d)
				}
			}
		}
		return true
	})
}

// seedParams installs registered parameter dimensions into the env.
func (u *uf) seedParams(fd *ast.FuncDecl) {
	base := funcKey(u.p.Pkg.Path(), fd)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := u.p.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if d, ok := parsedUnits[base+"."+name.Name]; ok {
				u.env[v] = known(d)
				u.seeds[v] = known(d)
			}
		}
	}
}

// declaredResultDim is the registered dimension of fd's sole result.
func (u *uf) declaredResultDim(fd *ast.FuncDecl) dimVal {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 || len(fd.Type.Results.List[0].Names) > 1 {
		return unknownVal
	}
	if d, ok := parsedUnits[funcKey(u.p.Pkg.Path(), fd)+".result"]; ok {
		return known(d)
	}
	return unknownVal
}

// buildEnv records local-variable dimensions from assignments without
// reporting. Later assignments overwrite: a reused temporary changes
// dimension legally.
func (u *uf) buildEnv(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v := u.lhsVar(id)
			if v == nil {
				continue
			}
			if d := u.exprDim(as.Rhs[i]); d.kind == dimKnown {
				u.env[v] = d
			}
		}
		return true
	})
}

func (u *uf) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := u.p.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := u.p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func binVerb(op token.Token) string {
	switch op {
	case token.ADD:
		return "add"
	case token.SUB:
		return "subtract"
	default:
		return "compare"
	}
}

func (u *uf) checkBinary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	x, y := u.exprDim(b.X), u.exprDim(b.Y)
	if x.kind != dimKnown || y.kind != dimKnown || x.d == y.d {
		return
	}
	msg := "cannot " + binVerb(b.Op) + " %s and %s"
	if tickSecondMix(x.d, y.d) {
		msg += "; ticks are multiplier intervals — convert with Protocol.TicksToSeconds / SecondsToTicks"
	}
	u.report(b.OpPos, msg, x.d, y.d)
}

// tickSecondMix reports the classic conflation: one side counts ticks
// where the other measures seconds.
func tickSecondMix(a, b Dim) bool {
	flip := func(d Dim) Dim { d.Tick, d.S = d.S, d.Tick; return d }
	return (a.Tick != 0 || b.Tick != 0) && (flip(a) == b)
}

func (u *uf) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		want := u.lhsDeclaredDim(lhs)
		if want.kind != dimKnown {
			continue
		}
		got := u.exprDim(as.Rhs[i])
		if got.kind == dimKnown && got.d != want.d {
			u.report(as.Rhs[i].Pos(), "assigning %s value to %s, declared %s", got.d, exprLabel(lhs), want.d)
		}
	}
}

// lhsDeclaredDim is the *declared* (registered) dimension of an
// assignment target — a registry field, possibly behind indexing, or a
// registered parameter. Plain locals are inferred, not declared, so
// overwriting them is not an error.
func (u *uf) lhsDeclaredDim(lhs ast.Expr) dimVal {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		return u.fieldDim(lhs)
	case *ast.IndexExpr:
		return u.lhsDeclaredDim(lhs.X)
	case *ast.Ident:
		// Registry-declared params keep their dimension; plain locals
		// float with whatever is assigned to them.
		if v, ok := u.p.Info.Uses[lhs].(*types.Var); ok {
			if d, ok := u.seeds[v]; ok {
				return d
			}
		}
	}
	return unknownVal
}

func (u *uf) checkCallArgs(call *ast.CallExpr) {
	fn := calleeFunc(u.p.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return
	}
	base := typesFuncKey(fn)
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		param := sig.Params().At(i)
		want, ok := parsedUnits[base+"."+param.Name()]
		if !ok {
			continue
		}
		got := u.exprDim(call.Args[i])
		if got.kind == dimKnown && got.d != want {
			msg := "argument %s of %s is declared %s, got %s"
			if tickSecondMix(want, got.d) {
				msg += "; ticks are multiplier intervals — convert with Protocol.TicksToSeconds / SecondsToTicks"
			}
			u.report(call.Args[i].Pos(), msg, param.Name(), fn.Name(), want, got.d)
		}
	}
}

func (u *uf) checkComposite(cl *ast.CompositeLit) {
	tv, ok := u.p.Info.Types[cl]
	if !ok {
		return
	}
	named, ok := derefType(tv.Type).(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	typeKey := namedKey(named)
	for i, elt := range cl.Elts {
		var fieldName string
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fieldName, value = id.Name, kv.Value
		} else if i < st.NumFields() {
			fieldName = st.Field(i).Name()
		} else {
			continue
		}
		want, ok := parsedUnits[typeKey+"."+fieldName]
		if !ok {
			continue
		}
		got := u.exprDim(value)
		if got.kind == dimKnown && got.d != want {
			u.report(value.Pos(), "field %s.%s is declared %s, got %s", named.Obj().Name(), fieldName, want, got.d)
		}
	}
}

// exprDim infers the dimension of e. Pure: never reports.
func (u *uf) exprDim(e ast.Expr) dimVal {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return u.exprDim(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return u.exprDim(e.X)
		}
		return unknownVal
	case *ast.StarExpr:
		return u.exprDim(e.X)
	case *ast.BasicLit:
		return scalarVal
	case *ast.Ident:
		return u.identDim(e)
	case *ast.SelectorExpr:
		if d := u.fieldDim(e); d.kind == dimKnown {
			return d
		}
		// Qualified package-level const/var: model.Watt.
		if obj := u.p.Info.Uses[e.Sel]; obj != nil {
			if d, ok := objDim(obj); ok {
				return d
			}
		}
		return unknownVal
	case *ast.IndexExpr:
		// Registered slice dims apply elementwise.
		return u.exprDim(e.X)
	case *ast.SliceExpr:
		return u.exprDim(e.X)
	case *ast.BinaryExpr:
		return u.binaryDim(e)
	case *ast.CallExpr:
		return u.callDim(e)
	}
	return unknownVal
}

func (u *uf) identDim(id *ast.Ident) dimVal {
	obj := u.p.Info.Uses[id]
	if obj == nil {
		obj = u.p.Info.Defs[id]
	}
	switch obj := obj.(type) {
	case *types.Var:
		if d, ok := u.env[obj]; ok {
			return d
		}
	case *types.Const:
		if d, ok := objDim(obj); ok {
			return d
		}
		return scalarVal
	}
	return unknownVal
}

// objDim looks up a package-scope object in the registry.
func objDim(obj types.Object) (dimVal, bool) {
	if obj.Pkg() == nil {
		return unknownVal, false
	}
	if d, ok := parsedUnits[obj.Pkg().Path()+"."+obj.Name()]; ok {
		return known(d), true
	}
	return unknownVal, false
}

// fieldDim resolves a selector to a registered struct-field dimension.
func (u *uf) fieldDim(sel *ast.SelectorExpr) dimVal {
	s, ok := u.p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return unknownVal
	}
	named, ok := derefType(s.Recv()).(*types.Named)
	if !ok {
		return unknownVal
	}
	if d, ok := parsedUnits[namedKey(named)+"."+sel.Sel.Name]; ok {
		return known(d)
	}
	return unknownVal
}

func namedKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func (u *uf) binaryDim(b *ast.BinaryExpr) dimVal {
	x, y := u.exprDim(b.X), u.exprDim(b.Y)
	switch b.Op {
	case token.MUL:
		return composeMul(x, y)
	case token.QUO:
		return composeDiv(x, y)
	case token.ADD, token.SUB:
		// Known + scalar keeps the known dim (offsets by dimensionless
		// literals are pervasive and legal); conflicting knowns are
		// reported by checkBinary, so yield unknown here.
		switch {
		case x.kind == dimKnown && y.kind == dimKnown:
			if x.d == y.d {
				return x
			}
			return unknownVal
		case x.kind == dimKnown && y.kind == dimScalar:
			return x
		case y.kind == dimKnown && x.kind == dimScalar:
			return y
		case x.kind == dimScalar && y.kind == dimScalar:
			return scalarVal
		}
		return unknownVal
	}
	return unknownVal
}

func composeMul(x, y dimVal) dimVal {
	switch {
	case x.kind == dimKnown && y.kind == dimKnown:
		return normDim(x.d.Mul(y.d))
	case x.kind == dimKnown && y.kind == dimScalar:
		return x
	case y.kind == dimKnown && x.kind == dimScalar:
		return y
	case x.kind == dimScalar && y.kind == dimScalar:
		return scalarVal
	}
	return unknownVal
}

func composeDiv(x, y dimVal) dimVal {
	switch {
	case x.kind == dimKnown && y.kind == dimKnown:
		return normDim(x.d.Div(y.d))
	case x.kind == dimKnown && y.kind == dimScalar:
		return x
	case x.kind == dimScalar && y.kind == dimKnown:
		return normDim(Dim{}.Div(y.d))
	case x.kind == dimScalar && y.kind == dimScalar:
		return scalarVal
	}
	return unknownVal
}

// normDim collapses a dimensionless product (W · 1/W) back to scalar.
func normDim(d Dim) dimVal {
	if d.IsZero() {
		return scalarVal
	}
	return known(d)
}

// callDim is the dimension of a call result: conversions preserve the
// operand's dimension (int conversions of unregistered counts are
// scalar), dimension-preserving math builtins pass through, registered
// results win, and unregistered same-package functions are inferred.
func (u *uf) callDim(call *ast.CallExpr) dimVal {
	// Type conversion?
	if tv, ok := u.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return unknownVal
		}
		inner := u.exprDim(call.Args[0])
		if inner.kind == dimKnown {
			return inner
		}
		if basicInfo(u.p.Info.TypeOf(call.Args[0]))&types.IsInteger != 0 {
			return scalarVal
		}
		return unknownVal
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := u.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "len" || id.Name == "cap" {
				return scalarVal
			}
			return unknownVal
		}
	}
	fn := calleeFunc(u.p.Info, call)
	if fn == nil {
		return unknownVal
	}
	// Dimension-preserving math helpers.
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		switch fn.Name() {
		case "Abs", "Floor", "Ceil", "Round", "Trunc":
			if len(call.Args) == 1 {
				return u.exprDim(call.Args[0])
			}
		case "Max", "Min":
			if len(call.Args) == 2 {
				x, y := u.exprDim(call.Args[0]), u.exprDim(call.Args[1])
				if x.kind == dimKnown {
					return x
				}
				return y
			}
		}
		return unknownVal
	}
	return u.resultDim(fn)
}

func basicInfo(t types.Type) types.BasicInfo {
	if t == nil {
		return 0
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()
	}
	return 0
}

// typesFuncKey is funcKey for a *types.Func.
func typesFuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeNameOf(sig.Recv().Type()); name != "" {
			key += name + "."
		}
	}
	return key + fn.Name()
}

// resultDim is the dimension of fn's sole result: registered, or
// inferred from the body of a same-package declaration whose return
// statements agree on a known dimension. Memoized; recursion yields
// unknown.
func (u *uf) resultDim(fn *types.Func) dimVal {
	if d, ok := parsedUnits[typesFuncKey(fn)+".result"]; ok {
		return known(d)
	}
	if d, ok := u.resMemo[fn]; ok {
		return d
	}
	fd, ok := u.decls[fn]
	if !ok || fd.Body == nil || u.visiting[fn] {
		return unknownVal
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		u.resMemo[fn] = unknownVal
		return unknownVal
	}
	u.visiting[fn] = true
	defer delete(u.visiting, fn)

	// Infer in a scratch env seeded only from the registry: the callee's
	// locals must not leak into the caller's env.
	savedEnv, savedSeeds := u.env, u.seeds
	u.env = make(map[*types.Var]dimVal)
	u.seeds = make(map[*types.Var]dimVal)
	u.seedParams(fd)
	u.buildEnv(fd.Body)

	res := unknownVal
	first := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // returns inside closures are not fn's returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		d := u.exprDim(ret.Results[0])
		if first {
			res, first = d, false
		} else if res != d {
			res = unknownVal
		}
		return true
	})
	u.env, u.seeds = savedEnv, savedSeeds
	if res.kind != dimKnown {
		res = unknownVal
	}
	u.resMemo[fn] = res
	return res
}

// exprLabel renders a short name for an assignment target in findings.
func exprLabel(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprLabel(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprLabel(e.X) + "[...]"
	case *ast.StarExpr:
		return exprLabel(e.X)
	case *ast.ParenExpr:
		return exprLabel(e.X)
	}
	return "expression"
}
