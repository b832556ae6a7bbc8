package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// rngPkgPath is the sanctioned seed-derivation package. Inside it, raw
// seed arithmetic is the implementation; everywhere else it is the bug.
const rngPkgPath = "econcast/internal/rng"

// SeedFlow proves that every seed reaching a seed sink — the argument of
// rng.New, the base of rng.DeriveSeed, a struct field named Seed (or
// *Seed), or an argument bound to a uint64 parameter whose name contains
// "seed" (which covers goroutine launches and sweep.Cell constructors
// that thread seeds through helpers) — derives from rng.DeriveSeed, a
// constant, or an already-derived value. What it flags is arithmetic
// (+, -, *, ^, |, &, %, /, <<, >>, &^) on the way to a sink: additive
// derivations like base+uint64(i) let distinct parameter tuples collide
// on one RNG stream, the exact class of bug PR 2 fixed when four
// topology families silently shared a seed.
//
// The pass is interprocedural over the package's static call graph
// (reusing hotalloc's closure machinery): a sink fed by a same-package
// call is checked through that callee's return expressions, and a local
// variable is chased through every assignment to it in the enclosing
// function, whether or not that write reaches the sink. The scan is
// conservative: a collision-prone initializer is flagged even when every
// path overwrites it before the sink.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "seed derived with collision-prone arithmetic instead of rng.DeriveSeed",
	Run: func(p *Pass) {
		if p.Path == rngPkgPath {
			return
		}
		sf := &seedflowPass{
			p:        p,
			decls:    funcDecls(p),
			funcBad:  make(map[*types.Func]*ast.BinaryExpr),
			visiting: make(map[*types.Func]bool),
			reported: make(map[token.Pos]bool),
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				var body ast.Node = d
				if fd != nil {
					if fd.Body == nil {
						continue
					}
					body = fd.Body
				}
				ast.Inspect(body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						sf.checkCall(n, fd)
					case *ast.CompositeLit:
						sf.checkComposite(n, fd)
					case *ast.AssignStmt:
						sf.checkAssign(n, fd)
					}
					return true
				})
			}
		}
	},
}

type seedflowPass struct {
	p        *Pass
	decls    map[*types.Func]*ast.FuncDecl
	funcBad  map[*types.Func]*ast.BinaryExpr // memoized: offending expr in a callee's returns
	visiting map[*types.Func]bool            // recursion guard
	reported map[token.Pos]bool              // one finding per arithmetic site
}

// isSeedParam matches parameters that carry seeds by convention.
func isSeedParam(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// isSeedField matches struct fields that carry seeds: Seed itself and
// BaseSeed-style variants.
func isSeedField(name string) bool {
	return name == "Seed" || strings.HasSuffix(name, "Seed")
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// checkCall inspects one call for seed sinks among its arguments.
func (sf *seedflowPass) checkCall(call *ast.CallExpr, fd *ast.FuncDecl) {
	fn := calleeFunc(sf.p.Info, call)
	if fn == nil {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == rngPkgPath {
		switch fn.Name() {
		case "New":
			if len(call.Args) == 1 {
				sf.checkSeedExpr(call.Args[0], fd, "seed passed to rng.New")
			}
		case "DeriveSeed":
			if len(call.Args) >= 1 {
				// The base must itself be a sound seed; the parts are
				// arbitrary distinguishers and may be anything.
				sf.checkSeedExpr(call.Args[0], fd, "base seed passed to rng.DeriveSeed")
			}
		}
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		prm := params.At(pi)
		if isSeedParam(prm.Name()) && isUint64(prm.Type()) {
			sf.checkSeedExpr(arg, fd, fmt.Sprintf("seed argument %q of %s", prm.Name(), fn.Name()))
		}
	}
}

// checkComposite inspects struct literals for Seed-named fields.
func (sf *seedflowPass) checkComposite(lit *ast.CompositeLit, fd *ast.FuncDecl) {
	t := sf.p.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && isSeedField(id.Name) {
				sf.checkSeedExpr(kv.Value, fd, fmt.Sprintf("seed stored in field %s", id.Name))
			}
			continue
		}
		// Positional literal: match the field by index.
		if i < st.NumFields() && isSeedField(st.Field(i).Name()) {
			sf.checkSeedExpr(el, fd, fmt.Sprintf("seed stored in field %s", st.Field(i).Name()))
		}
	}
}

// checkAssign inspects assignments to Seed-named fields.
func (sf *seedflowPass) checkAssign(as *ast.AssignStmt, fd *ast.FuncDecl) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !isSeedField(sel.Sel.Name) {
			continue
		}
		if t := sf.p.Info.TypeOf(sel); t != nil && isUint64(t) {
			sf.checkSeedExpr(as.Rhs[i], fd, fmt.Sprintf("seed stored in field %s", sel.Sel.Name))
		}
	}
}

// checkSeedExpr traces e backwards and reports the first collision-prone
// arithmetic feeding it.
func (sf *seedflowPass) checkSeedExpr(e ast.Expr, fd *ast.FuncDecl, what string) {
	bad := sf.unsound(e, fd, make(map[types.Object]bool))
	if bad == nil || sf.reported[bad.OpPos] {
		return
	}
	sf.reported[bad.OpPos] = true
	sf.p.Reportf(bad.OpPos, "%s is derived with %q arithmetic, which can collide across cells; mix with rng.DeriveSeed(base, parts...) instead", what, bad.Op)
}

// seedArithOps are the operators that can map distinct input tuples to
// one seed.
func seedArithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.XOR, token.OR, token.AND, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}

// unsound returns the offending arithmetic expression feeding e, or nil
// if e is a sound seed derivation. The analysis is deliberately
// permissive where it cannot see (field reads, index expressions, calls
// into other packages resolve to sound): those values were themselves
// produced at a checked sink or are out of scope; the target is the
// arithmetic the paper-reproduction actually writes.
func (sf *seedflowPass) unsound(e ast.Expr, fd *ast.FuncDecl, seen map[types.Object]bool) *ast.BinaryExpr {
	e = ast.Unparen(e)
	if tv, ok := sf.p.Info.Types[e]; ok && tv.Value != nil {
		return nil // constant expression: one fixed seed, no collision surface
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if seedArithOp(e.Op) {
			return e
		}
		return nil
	case *ast.CallExpr:
		if tv, ok := sf.p.Info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion such as uint64(x): look through it.
			if len(e.Args) == 1 {
				return sf.unsound(e.Args[0], fd, seen)
			}
			return nil
		}
		fn := calleeFunc(sf.p.Info, e)
		if fn == nil {
			return nil
		}
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == rngPkgPath {
			return nil // DeriveSeed, Split, Uint64, ...: sanctioned derivations
		}
		if fd2, ok := sf.decls[fn]; ok {
			return sf.callUnsound(fn, fd2)
		}
		return nil
	case *ast.Ident:
		obj := sf.p.Info.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok || seen[v] {
			return nil
		}
		seen[v] = true
		if fd == nil || fd.Body == nil {
			return nil
		}
		return sf.varUnsound(v, fd, seen)
	}
	return nil
}

// varUnsound chases a local variable through every assignment inside
// fd, ignoring reachability. Writes it cannot see through (parameter
// values, range variables, multi-value assignments) count as sound.
func (sf *seedflowPass) varUnsound(v *types.Var, fd *ast.FuncDecl, seen map[types.Object]bool) *ast.BinaryExpr {
	var bad *ast.BinaryExpr
	assignTo := func(id *ast.Ident, rhs ast.Expr) {
		if bad != nil {
			return
		}
		obj := sf.p.Info.Defs[id]
		if obj == nil {
			obj = sf.p.Info.Uses[id]
		}
		if obj == v {
			bad = sf.unsound(rhs, fd, seen)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					assignTo(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, id := range n.Names {
				assignTo(id, n.Values[i])
			}
		}
		return true
	})
	return bad
}

// callUnsound checks a same-package callee: its return expressions feed
// the sink, so they must be sound seed derivations too.
func (sf *seedflowPass) callUnsound(fn *types.Func, fd *ast.FuncDecl) *ast.BinaryExpr {
	if bad, ok := sf.funcBad[fn]; ok {
		return bad
	}
	if sf.visiting[fn] {
		return nil // recursion: assume sound rather than loop
	}
	sf.visiting[fn] = true
	defer delete(sf.visiting, fn)

	var bad *ast.BinaryExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal's returns are not fn's returns
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if b := sf.unsound(res, fd, make(map[types.Object]bool)); b != nil {
					bad = b
					break
				}
			}
		}
		return true
	})
	sf.funcBad[fn] = bad
	return bad
}
