package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InstanceOwned is the reserved ownership domain for types owned
// per-instance by whichever single goroutine holds them (rng.Source,
// stats.Accumulator, econcast.Node, faults.Set). Instance-owned types
// are the sharedstate analyzer's jurisdiction — one instance must not be
// consumed from two goroutines — while shardown's cross-domain rules
// apply only to role domains (asim-broker, asim-node), where the
// domain names a specific goroutine role and any access from another
// role is a contract violation.
const InstanceOwned = "goroutine"

// Owners is the module-wide ownership-annotation table, built by the
// Loader as packages are type-checked (dependencies included):
//
//	//lint:owner <domain> [reason]    on a type declaration
//	//lint:handoff <domain> [reason]  on a function declaration
//
// An owner annotation declares that every instance of the type is owned
// by one goroutine of the named domain; a handoff annotation licenses
// the function as a conservative sync boundary through which owned state
// may legally cross domains. The Loader fills the table serially, one
// package at a time as each is type-checked; analysis only reads it.
type Owners struct {
	types    map[string]string // "pkgpath.TypeName" -> domain
	handoffs map[string]string // "pkgpath.Func" / "pkgpath.Recv.Method" -> domain
}

func newOwners() *Owners {
	return &Owners{
		types:    make(map[string]string),
		handoffs: make(map[string]string),
	}
}

// scanPackage records pkg's ownership annotations. The Loader calls it
// once per package, right after type-checking it.
func (o *Owners) scanPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				declDomain := ownerDomainIn(d.Doc)
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					domain := ownerDomainIn(ts.Doc)
					if domain == "" {
						domain = declDomain
					}
					if domain != "" {
						o.types[pkg.Path+"."+ts.Name.Name] = domain
					}
				}
			case *ast.FuncDecl:
				if domain := handoffDomainIn(d.Doc); domain != "" {
					o.handoffs[funcKey(pkg.Path, d)] = domain
				}
			}
		}
	}
}

func ownerDomainIn(doc *ast.CommentGroup) string {
	return directiveDomainIn(doc, "owner")
}

func handoffDomainIn(doc *ast.CommentGroup) string {
	return directiveDomainIn(doc, "handoff")
}

func directiveDomainIn(doc *ast.CommentGroup, kind string) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if d := parseDirective(c.Text); d.Kind == kind {
			return d.Domain
		}
	}
	return ""
}

// funcKey builds the handoff-table key of a declared function:
// "pkgpath.Func" for free functions, "pkgpath.Recv.Method" for methods.
func funcKey(pkgPath string, fd *ast.FuncDecl) string {
	if recv := recvTypeName(fd); recv != "" {
		return pkgPath + "." + recv + "." + fd.Name.Name
	}
	return pkgPath + "." + fd.Name.Name
}

// TypeDomain returns the ownership domain annotated on the named type,
// or "".
func (o *Owners) TypeDomain(tn *types.TypeName) string {
	if o == nil || tn == nil || tn.Pkg() == nil {
		return ""
	}
	return o.types[tn.Pkg().Path()+"."+tn.Name()]
}

// HandoffDomain returns the domain fn is a licensed handoff for, or "".
func (o *Owners) HandoffDomain(fn *types.Func) string {
	if o == nil || fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeNameOf(sig.Recv().Type()); name != "" {
			key += name + "."
		}
	}
	return o.handoffs[key+fn.Name()]
}

// roleDomain returns the non-instance ownership domain of t (pointers
// unwrapped), or "". Instance-owned types resolve to "": their sharing
// discipline is sharedstate's rule, not a role boundary.
func (o *Owners) roleDomain(t types.Type) string {
	d := o.anyDomain(t)
	if d == InstanceOwned {
		return ""
	}
	return d
}

// anyDomain returns t's annotated domain (pointers unwrapped), role or
// instance, or "".
func (o *Owners) anyDomain(t types.Type) string {
	if o == nil || t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return o.TypeDomain(named.Obj())
}

// recvTypeNameOf returns the bare type name of a receiver type.
func recvTypeNameOf(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ShardOwn proves the isolation invariant asim's concurrent simulator
// is built against: state owned by a goroutine domain (annotated
// `//lint:owner <domain>` on its type; today the domains are asim-broker
// and asim-node) is only ever touched from its own domain, and only
// crosses domains through functions
// explicitly licensed with `//lint:handoff <domain>`. Three access paths
// are checked:
//
//   - goroutine crossing: an owned value referenced inside a `go` call
//     (captured, passed, or received) — legal only as the receiver of
//     the launch that establishes ownership (`go n.run()`) or when
//     the launched function is a licensed handoff;
//
//   - cross-domain access: a method of a type owned by domain A reading
//     or writing a field, or calling a method, of a value owned by
//     domain B — legal only inside a handoff licensed for B;
//
//   - cross-domain escape: domain-A code passing a B-owned value as an
//     argument — legal only when the callee is a handoff licensed for B.
//
// Code with no domain (constructors, Run wrappers) runs before the
// goroutines exist and is unconstrained except for the crossing rule.
// Types annotated with the reserved `goroutine` domain are
// instance-owned and policed by sharedstate instead.
var ShardOwn = &Analyzer{
	Name: "shardown",
	Doc:  "owned state accessed outside its owning goroutine domain without a licensed handoff",
	Run: func(p *Pass) {
		if p.Owners == nil {
			return
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkShardFunc(p, fd)
			}
		}
	},
}

func checkShardFunc(p *Pass, fd *ast.FuncDecl) {
	o := p.Owners
	// The function's own domain: a method of an owned type runs in that
	// type's goroutine.
	domain := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		domain = o.roleDomain(p.Info.TypeOf(fd.Recv.List[0].Type))
	}
	// A handoff license extends the allowed set by its domain.
	handoff := ""
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		handoff = o.HandoffDomain(fn)
	}
	allowed := func(b string) bool { return b == domain || b == handoff }

	// goCalls maps each `go` statement's call so the access rules can
	// recognize the ownership-establishing launch.
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})

	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		p.Reportf(pos, format, args...)
	}

	// Rule 1: owned values crossing into goroutines.
	for call := range goCalls {
		checkGoCrossing(p, fd, call, report)
	}

	if domain == "" {
		return // un-owned code: setup/teardown, unconstrained below
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selInfo, ok := p.Info.Selections[n]
			if !ok {
				return true
			}
			b := o.roleDomain(p.Info.TypeOf(n.X))
			if b == "" || allowed(b) {
				return true
			}
			switch selInfo.Kind() {
			case types.FieldVal:
				report(n.Sel.Pos(), "field %s of domain %q state accessed from domain %q; route it through a //lint:handoff %s function", n.Sel.Name, b, domain, b)
			case types.MethodVal:
				if isEstablishingLaunch(p, goCalls, n) {
					return true
				}
				if fn, ok := p.Info.Uses[n.Sel].(*types.Func); ok && o.HandoffDomain(fn) == b {
					return true
				}
				report(n.Sel.Pos(), "method %s of domain %q state called from domain %q; only //lint:handoff %s methods may cross", n.Sel.Name, b, domain, b)
			}
		case *ast.CallExpr:
			callee := calleeFunc(p.Info, n)
			for _, arg := range n.Args {
				b := o.roleDomain(p.Info.TypeOf(arg))
				if b == "" || allowed(b) {
					continue
				}
				if callee != nil && o.HandoffDomain(callee) == b {
					continue
				}
				report(arg.Pos(), "value owned by domain %q escapes domain %q as a call argument; only //lint:handoff %s functions may receive it", b, domain, b)
			}
		}
		return true
	})
}

// isEstablishingLaunch reports whether sel is the `x.m` of a `go x.m()`
// statement: the launch that hands x to its owning goroutine.
func isEstablishingLaunch(p *Pass, goCalls map[*ast.CallExpr]bool, sel *ast.SelectorExpr) bool {
	for call := range goCalls {
		if ast.Unparen(call.Fun) == sel {
			return true
		}
	}
	return false
}

// checkGoCrossing flags role-owned values referenced anywhere in a `go`
// call — closure captures, arguments, receivers — except the receiver of
// the ownership-establishing launch and arguments to licensed handoffs.
func checkGoCrossing(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	o := p.Owners
	// The establishing receiver: `go x.run()` hands x to the goroutine
	// that will own it.
	var establish ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if o.roleDomain(p.Info.TypeOf(sel.X)) != "" {
			establish = sel.X
		}
	}
	calleeHandoff := ""
	if fn := calleeFunc(p.Info, call); fn != nil {
		calleeHandoff = o.HandoffDomain(fn)
	}
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		b := o.roleDomain(v.Type())
		if b == "" || b == calleeHandoff {
			return true
		}
		if establish != nil && id.Pos() >= establish.Pos() && id.Pos() < establish.End() {
			return true
		}
		report(id.Pos(), "%s (owned by domain %q) crosses into this goroutine; launch it as `go %s.method()` to establish ownership or pass it through a //lint:handoff %s function", id.Name, b, id.Name, b)
		return true
	})
}
