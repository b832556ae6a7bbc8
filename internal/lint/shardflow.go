package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"econcast/internal/lint/flow"
)

// shardflowConfig names the moving parts of one sharded discrete-event
// engine so the prover can be pointed at look-alike engines (and at
// fixtures) without hard-coding internal/sim. All matching is by type
// and field name within the configured package.
type shardflowConfig struct {
	coordType   string // the coordinator holding the shard heap
	shardType   string // the per-shard runtime
	drainMethod string // shardType method that drains a batch
	fixMethod   string // coordType method restoring one heap position

	// heapOps are the shard-heap mutations that can move a shard's head,
	// each matched as shards[s].<field>.<method>(...).
	heapOps []shardHeapOp

	shardsField  string // coordType field: slice of shard runtimes
	posField     string // coordType SoA: heap position per shard
	currentField string // coordType scalar: the draining shard id
	idField      string // shardType field: this shard's id

	// ownedSlices are the coordinator's per-shard SoA caches. Only the
	// coordinator's event-loop goroutine may index them, and shard-
	// receiver methods only via their own idField (or a //lint:handoff
	// license).
	ownedSlices map[string]bool
	// controlScalars are coordinator fields a shard method may write only
	// through a //lint:handoff boundary (the batch-control backchannel).
	controlScalars map[string]bool
}

// shardHeapOp names one shard-heap mutation: a method called on a
// shardType field.
type shardHeapOp struct{ field, method string }

// shardflowConfigs keys engine descriptions by import path, mirroring
// hotEntries: the fixture packages load themselves under the same path
// to opt in.
var shardflowConfigs = map[string]shardflowConfig{
	"econcast/internal/sim": {
		coordType:   "coordinator",
		shardType:   "shardRuntime",
		drainMethod: "run",
		fixMethod:   "fix",
		heapOps: []shardHeapOp{
			{"queue", "push"},   // packet ends and fault boundaries
			{"trans", "set"},    // a node's pending transition, set or replaced
			{"trans", "remove"}, // its cancellation
		},
		shardsField:  "shards",
		posField:     "pos",
		currentField: "current",
		idField:      "id",
		ownedSlices: map[string]bool{
			"headAt": true, "headSeq": true,
			"order": true, "pos": true,
		},
		controlScalars: map[string]bool{
			"current": true, "crossed": true, "done": true,
		},
	},
}

// ShardFlow proves the detach/eager-fix discipline of the sharded
// discrete-event engine on its control-flow graph:
//
//  1. Every drain call (shards[s].run(...)) must be dominated by the
//     draining shard's detach (pos[s] = -1): with the drained shard
//     still attached, the eager cross-shard fixes in push would repair
//     positions against a heap holding a stale root.
//  2. Every drain must be followed by fix(s) on all paths to the
//     function exit, re-attaching the shard before the next comparison.
//  3. Every mutation of a shard's heaps (a queue push, a transition
//     set or cancel) must be followed on all paths by fix of that
//     shard — except along branch edges that prove the mutation hit the
//     currently-draining (detached) shard.
//  4. A shard-receiver method may index the coordinator's per-shard SoA
//     slices only through its own id, and may write the coordinator's
//     batch-control scalars only when the method is a declared
//     //lint:handoff boundary.
//  5. Coordinator state (the coordinator itself, or any owned SoA
//     slice) must not be stored into shard-runtime fields: shards
//     partition data, not control, and an alias would let a shard
//     mutate heap state behind the prover's back.
var ShardFlow = &Analyzer{
	Name: "shardflow",
	Doc:  "prove the sharded engine's detach/eager-fix and ownership discipline on the CFG",
	Run:  runShardFlow,
}

func runShardFlow(p *Pass) {
	cfg, ok := shardflowConfigs[p.Path]
	if !ok {
		return
	}
	sf := &shardflowPass{p: p, cfg: cfg}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch recvTypeName(fd) {
			case cfg.coordType:
				sf.checkCoordMethod(fd)
			case cfg.shardType:
				sf.checkShardMethod(fd)
			}
			sf.checkAliasing(fd)
		}
	}
}

type shardflowPass struct {
	p   *Pass
	cfg shardflowConfig

	g     *flow.Graph   // current function's CFG (built on demand)
	dom   *flow.DomTree // and its dominator tree
	gFunc *ast.FuncDecl
}

// graphFor returns the (cached) CFG and dominator tree of fd.
func (sf *shardflowPass) graphFor(fd *ast.FuncDecl) (*flow.Graph, *flow.DomTree) {
	if sf.gFunc != fd {
		sf.g = flow.Build(fd.Body)
		sf.dom = sf.g.Dominators()
		sf.gFunc = fd
	}
	return sf.g, sf.dom
}

// checkCoordMethod enforces rules 1–3 inside one coordinator method.
func (sf *shardflowPass) checkCoordMethod(fd *ast.FuncDecl) {
	var drains, ops []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := sf.drainIndex(call); ok {
			drains = append(drains, call)
		}
		if _, ok := sf.heapOpIndex(call); ok {
			ops = append(ops, call)
		}
		return true
	})
	if len(drains) == 0 && len(ops) == 0 {
		return
	}
	g, dom := sf.graphFor(fd)
	for _, call := range drains {
		sf.checkDrainDominated(fd, g, dom, call)
		sf.checkFollowedByFix(g, call, sf.drainCallIndex(call), false,
			"drain of shard %s is not followed by %s on every path to the exit; the shard would stay detached from the heap",
		)
	}
	for _, call := range ops {
		sf.checkFollowedByFix(g, call, sf.heapOpCallIndex(call), true,
			"heap mutation of shard %s is not followed by an eager %s on every cross-shard path; the heap would hold a stale position at the next comparison",
		)
	}
}

// drainIndex matches cfg.shards[s].run(...) and returns the shard index
// expression.
func (sf *shardflowPass) drainIndex(call *ast.CallExpr) (ast.Expr, bool) {
	callee := calleeFunc(sf.p.Info, call)
	if callee == nil || callee.Name() != sf.cfg.drainMethod {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if sf.typeName(sel.X) != sf.cfg.shardType {
		return nil, false
	}
	if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok && sf.isCoordField(ix.X, sf.cfg.shardsField) {
		return ix.Index, true
	}
	return nil, false
}

// heapOpIndex matches cfg.shards[s].<field>.<method>(...) for any of
// the configured heap ops and returns the shard index expression.
func (sf *shardflowPass) heapOpIndex(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || !sf.isHeapOp(fsel.Sel.Name, sel.Sel.Name) {
		return nil, false
	}
	if ix, ok := ast.Unparen(fsel.X).(*ast.IndexExpr); ok && sf.isCoordField(ix.X, sf.cfg.shardsField) {
		return ix.Index, true
	}
	return nil, false
}

func (sf *shardflowPass) isHeapOp(field, method string) bool {
	for _, op := range sf.cfg.heapOps {
		if op.field == field && op.method == method {
			return true
		}
	}
	return false
}

func (sf *shardflowPass) drainCallIndex(call *ast.CallExpr) ast.Expr {
	ix, _ := sf.drainIndex(call)
	return ix
}

func (sf *shardflowPass) heapOpCallIndex(call *ast.CallExpr) ast.Expr {
	ix, _ := sf.heapOpIndex(call)
	return ix
}

// checkDrainDominated enforces rule 1: some detach of the drained shard
// (pos[s] = -1) dominates the drain call.
func (sf *shardflowPass) checkDrainDominated(fd *ast.FuncDecl, g *flow.Graph, dom *flow.DomTree, call *ast.CallExpr) {
	idx := sf.drainCallIndex(call)
	callBlk, callIdx, ok := g.FindNode(call.Pos())
	if !ok {
		return
	}
	dominated := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if dominated {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		ix, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
		if !ok || !sf.isCoordField(ix.X, sf.cfg.posField) {
			return true
		}
		if !sf.isMinusOne(as.Rhs[0]) {
			return true
		}
		if !sameIndexIfIdents(sf.p.Info, ix.Index, idx) {
			return true
		}
		dBlk, dIdx, ok := g.FindNode(as.Pos())
		if !ok {
			return true
		}
		if dBlk == callBlk {
			dominated = dIdx < callIdx
		} else {
			dominated = dom.Dominates(dBlk, callBlk)
		}
		return true
	})
	if !dominated {
		sf.p.Reportf(call.Pos(), "drain of shard %s is not dominated by its detach (%s[%s] = -1); the eager cross-shard fixes after heap mutations are only sound against a heap with the draining shard removed",
			renderExpr(idx), sf.cfg.posField, renderExpr(idx))
	}
}

// checkFollowedByFix enforces rules 2 and 3: from the given call, every
// path to the function exit must pass a fix of the same shard (or
// panic). When allowCurrentBranch is set, branch edges proving the shard
// is the currently-draining one (idx == current) are exempt — the
// current shard is detached, so no heap position needs repair.
func (sf *shardflowPass) checkFollowedByFix(g *flow.Graph, call *ast.CallExpr, idx ast.Expr, allowCurrentBranch bool, format string) {
	startBlk, startIdx, ok := g.FindNode(call.Pos())
	if !ok {
		return
	}
	// fixed reports whether node n satisfies the obligation.
	fixed := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			c, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPanicCall(c) {
				found = true // a panic aborts the run; nothing to repair
				return false
			}
			callee := calleeFunc(sf.p.Info, c)
			if callee == nil || callee.Name() != sf.cfg.fixMethod {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok || sf.typeName(sel.X) != sf.cfg.coordType {
				return true
			}
			if len(c.Args) == 1 && sameIndexIfIdents(sf.p.Info, c.Args[0], idx) {
				found = true
			}
			return !found
		})
		return found
	}

	// DFS forward from the statement after the call. An edge proving
	// idx == current (true edge of ==, false edge of !=) discharges the
	// obligation on that path when allowed.
	visited := make(map[*flow.Block]bool)
	var bad bool
	var walk func(b *flow.Block, from int)
	walk = func(b *flow.Block, from int) {
		if bad {
			return
		}
		for i := from; i < len(b.Nodes); i++ {
			if fixed(b.Nodes[i]) {
				return
			}
		}
		if b == g.Exit {
			bad = true
			return
		}
		if visited[b] {
			return
		}
		visited[b] = true
		for si, s := range b.Succs {
			if allowCurrentBranch && b.Cond != nil && sf.edgeProvesCurrent(b.Cond, si, idx) {
				continue
			}
			walk(s, 0)
		}
	}
	walk(startBlk, startIdx+1)
	if bad {
		sf.p.Reportf(call.Pos(), format, renderExpr(idx), sf.cfg.fixMethod)
	}
}

// edgeProvesCurrent reports whether taking successor edge si of a block
// conditioned on cond proves idx == coordinator.current: the true edge
// (si == 0) of `idx == c.current`, or the false edge (si == 1) of
// `idx != c.current`.
func (sf *shardflowPass) edgeProvesCurrent(cond ast.Expr, si int, idx ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var wantEdge int
	switch be.Op {
	case token.EQL:
		wantEdge = 0
	case token.NEQ:
		wantEdge = 1
	default:
		return false
	}
	if si != wantEdge {
		return false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if identsMatch(sf.p.Info, x, idx) && sf.isCurrentField(y) {
		return true
	}
	if identsMatch(sf.p.Info, y, idx) && sf.isCurrentField(x) {
		return true
	}
	return false
}

// isCurrentField matches cfg.currentField selected from a coordinator
// value (possibly through a conversion of the shard id).
func (sf *shardflowPass) isCurrentField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == sf.cfg.currentField && sf.typeName(sel.X) == sf.cfg.coordType
}

// checkShardMethod enforces rule 4 on one shard-receiver method.
func (sf *shardflowPass) checkShardMethod(fd *ast.FuncDecl) {
	licensed := sf.handoffLicensed(fd)
	recvIdent := receiverIdent(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
			if !ok || !sf.cfg.ownedSlices[sel.Sel.Name] || sf.typeName(sel.X) != sf.cfg.coordType {
				return true
			}
			if licensed || sf.isOwnID(n.Index, recvIdent) {
				return true
			}
			sf.p.Reportf(n.Pos(), "shard method %s indexes coordinator-owned slice %s by an id not proven to be its own; shards may touch the SoA caches only at their own %s (or declare the method a //lint:handoff boundary)",
				fd.Name.Name, sel.Sel.Name, sf.cfg.idField)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !sf.cfg.controlScalars[sel.Sel.Name] || sf.typeName(sel.X) != sf.cfg.coordType {
					continue
				}
				if licensed {
					continue
				}
				sf.p.Reportf(lhs.Pos(), "shard method %s writes coordinator control field %s without a //lint:handoff license; the batch-control backchannel must be a declared boundary",
					fd.Name.Name, sel.Sel.Name)
			}
		}
		return true
	})
}

// handoffLicensed reports whether fd carries a //lint:handoff directive
// in the module ownership table.
func (sf *shardflowPass) handoffLicensed(fd *ast.FuncDecl) bool {
	if sf.p.Owners == nil {
		return false
	}
	if obj, ok := sf.p.Info.Defs[fd.Name].(*types.Func); ok {
		return sf.p.Owners.HandoffDomain(obj) != ""
	}
	return false
}

// isOwnID matches the receiver's id field (s.id), possibly through a
// type conversion (int(s.id)).
func (sf *shardflowPass) isOwnID(e ast.Expr, recv *ast.Ident) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// A conversion keeps the identity; a real call does not.
		if _, isConv := sf.p.Info.Types[call.Fun]; isConv && sf.p.Info.Types[call.Fun].IsType() {
			return sf.isOwnID(call.Args[0], recv)
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != sf.cfg.idField || recv == nil {
		return false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	ro := sf.p.Info.Uses[base]
	rd := sf.p.Info.Defs[recv]
	return ro != nil && ro == rd
}

// checkAliasing enforces rule 5 in every function: coordinator state
// must not be stored into shard-runtime fields or composite literals.
func (sf *shardflowPass) checkAliasing(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sf.typeName(sel.X) != sf.cfg.shardType {
					continue
				}
				if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) && sf.aliasesCoordState(n.Rhs[i]) {
					sf.p.Reportf(n.Rhs[i].Pos(), "coordinator state stored into %s field %s; shards partition data, not control — pass the coordinator as a call argument instead of aliasing it",
						sf.cfg.shardType, sel.Sel.Name)
				}
			}
		case *ast.CompositeLit:
			if sf.typeNameOf(sf.p.Info.Types[ast.Expr(n)].Type) != sf.cfg.shardType {
				return true
			}
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if sf.aliasesCoordState(v) {
					sf.p.Reportf(v.Pos(), "coordinator state stored into a %s literal; shards partition data, not control — pass the coordinator as a call argument instead of aliasing it",
						sf.cfg.shardType)
				}
			}
		}
		return true
	})
}

// aliasesCoordState reports whether e evaluates to the coordinator
// itself, its address, or one of its owned SoA slices.
func (sf *shardflowPass) aliasesCoordState(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if sf.typeName(e) == sf.cfg.coordType {
		return true
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && sf.cfg.ownedSlices[sel.Sel.Name] && sf.typeName(sel.X) == sf.cfg.coordType {
		return true
	}
	return false
}

// isCoordField matches `<coordinator value>.<field>`.
func (sf *shardflowPass) isCoordField(e ast.Expr, field string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != field {
		return false
	}
	return sf.typeName(sel.X) == sf.cfg.coordType
}

// typeName resolves the named type of e, pointers unwrapped, "" when
// unresolvable.
func (sf *shardflowPass) typeName(e ast.Expr) string {
	tv, ok := sf.p.Info.Types[ast.Unparen(e)]
	if !ok {
		return ""
	}
	return sf.typeNameOf(tv.Type)
}

func (sf *shardflowPass) typeNameOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return ""
}

// isMinusOne reports whether e is a constant -1.
func (sf *shardflowPass) isMinusOne(e ast.Expr) bool {
	tv, ok := sf.p.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v == -1
}

// sameIndexIfIdents requires two index expressions to resolve to the
// same object when both are plain identifiers; when either is a more
// complex expression the prover cannot distinguish them and accepts.
func sameIndexIfIdents(info *types.Info, a, b ast.Expr) bool {
	ai, aok := ast.Unparen(a).(*ast.Ident)
	bi, bok := ast.Unparen(b).(*ast.Ident)
	if !aok || !bok {
		return true
	}
	ao, bo := info.Uses[ai], info.Uses[bi]
	if ao == nil || bo == nil {
		return true
	}
	return ao == bo
}

// identsMatch is the strict form: both sides must be identifiers of the
// same object.
func identsMatch(info *types.Info, a, b ast.Expr) bool {
	ai, aok := ast.Unparen(a).(*ast.Ident)
	bi, bok := ast.Unparen(b).(*ast.Ident)
	if !aok || !bok {
		return false
	}
	ao, bo := info.Uses[ai], info.Uses[bi]
	return ao != nil && ao == bo
}

// receiverIdent returns the receiver's identifier, nil for anonymous.
func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// isPanicCall matches a call to the builtin panic.
func isPanicCall(c *ast.CallExpr) bool {
	id, ok := ast.Unparen(c.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// renderExpr renders a small index expression for messages.
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			return renderExpr(e.Fun) + "(" + renderExpr(e.Args[0]) + ")"
		}
	}
	return "the shard index"
}
