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
	pushMethod  string // queue method that enqueues an event

	shardsField  string // coordType field: slice of shard runtimes
	queueField   string // shardType field: the event heap
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

	// The parallel window engine (rule 6). parType is the driver owning
	// the worker pool; a send on workField dispatches a window to the
	// workers, a receive on doneField collects one barrier ack, and
	// rebuildMethod reconstructs the coordinator's order heap once the
	// barrier is complete. Empty parType disables the rule.
	parType       string
	workField     string
	doneField     string
	rebuildMethod string
}

// shardflowConfigs keys engine descriptions by import path, mirroring
// hotEntries: the fixture packages load themselves under the same path
// to opt in.
var shardflowConfigs = map[string]shardflowConfig{
	"econcast/internal/sim": {
		coordType:    "coordinator",
		shardType:    "shardRuntime",
		drainMethod:  "run",
		fixMethod:    "fix",
		pushMethod:   "push",
		shardsField:  "shards",
		queueField:   "queue",
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
		parType:       "parCoordinator",
		workField:     "work",
		doneField:     "done",
		rebuildMethod: "rebuildOrder",
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
//  3. Every push into a shard's queue must be followed on all paths by
//     fix of that shard — except along branch edges that prove the push
//     landed in the currently-draining (detached) shard.
//  4. A shard-receiver method may index the coordinator's per-shard SoA
//     slices only through its own id, and may write the coordinator's
//     batch-control scalars only when the method is a declared
//     //lint:handoff boundary.
//  5. Coordinator state (the coordinator itself, or any owned SoA
//     slice) must not be stored into shard-runtime fields: shards
//     partition data, not control, and an alias would let a shard
//     mutate heap state behind the prover's back.
//  6. Window-barrier discipline on the parallel driver: every window
//     dispatch (a send on the worker pool's work channel) must be
//     followed on all paths by a barrier ack (a receive on the done
//     channel) and then an order-heap rebuild before the function can
//     exit, and no coordinator-owned state (SoA caches, control
//     scalars) may be written between the dispatch and the rebuild —
//     the window workers own the shard state until the barrier
//     completes.
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
			case cfg.parType:
				sf.checkWindowBarrier(fd)
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
	var drains, pushes []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := sf.drainIndex(call); ok {
			drains = append(drains, call)
		}
		if _, ok := sf.pushIndex(call); ok {
			pushes = append(pushes, call)
		}
		return true
	})
	if len(drains) == 0 && len(pushes) == 0 {
		return
	}
	g, dom := sf.graphFor(fd)
	for _, call := range drains {
		sf.checkDrainDominated(fd, g, dom, call)
		sf.checkFollowedByFix(g, call, sf.drainCallIndex(call), false,
			"drain of shard %s is not followed by %s on every path to the exit; the shard would stay detached from the heap",
		)
	}
	for _, call := range pushes {
		sf.checkFollowedByFix(g, call, sf.pushCallIndex(call), true,
			"push into shard %s is not followed by an eager %s on every cross-shard path; the heap would hold a stale position at the next comparison",
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

// pushIndex matches cfg.shards[s].queue.push(...) and returns the shard
// index expression.
func (sf *shardflowPass) pushIndex(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != sf.cfg.pushMethod {
		return nil, false
	}
	qsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || qsel.Sel.Name != sf.cfg.queueField {
		return nil, false
	}
	if ix, ok := ast.Unparen(qsel.X).(*ast.IndexExpr); ok && sf.isCoordField(ix.X, sf.cfg.shardsField) {
		return ix.Index, true
	}
	return nil, false
}

func (sf *shardflowPass) drainCallIndex(call *ast.CallExpr) ast.Expr {
	ix, _ := sf.drainIndex(call)
	return ix
}

func (sf *shardflowPass) pushCallIndex(call *ast.CallExpr) ast.Expr {
	ix, _ := sf.pushIndex(call)
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
		sf.p.Reportf(call.Pos(), "drain of shard %s is not dominated by its detach (%s[%s] = -1); the eager cross-shard fixes in %s are only sound against a heap with the draining shard removed",
			renderExpr(idx), sf.cfg.posField, renderExpr(idx), sf.cfg.pushMethod)
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

// checkWindowBarrier enforces rule 6 on one parallel-driver method: walk
// the CFG forward from every window dispatch (send on the work channel)
// through a two-stage obligation — first a barrier ack (receive on the
// done channel), then the order-heap rebuild. Reaching the function exit
// with the obligation open is a missing barrier; writing coordinator-
// owned state while it is open races the window workers.
func (sf *shardflowPass) checkWindowBarrier(fd *ast.FuncDecl) {
	if sf.cfg.parType == "" || fd.Recv == nil {
		return
	}
	var sends []*ast.SendStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok && sf.isParChan(s.Chan, sf.cfg.workField) {
			sends = append(sends, s)
		}
		return true
	})
	if len(sends) == 0 {
		return
	}
	// Ack-drain loops (`for ... { <-p.done }`) discharge the barrier
	// even on the CFG's zero-iteration edge: the worker pool always has
	// at least one worker, so the loop body runs at runtime. A recv
	// guarded by an if keeps no such guarantee and gets no credit.
	barrierConds := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil && sf.hasDoneRecv(f.Body) {
			barrierConds[f.Cond] = true
		}
		return true
	})
	g, _ := sf.graphFor(fd)
	reported := make(map[token.Pos]bool)
	for _, send := range sends {
		sf.walkBarrier(g, send, barrierConds, reported)
	}
}

// walkBarrier runs the two-stage DFS for one dispatch site. Stage 0
// needs a done-receive, stage 1 needs the rebuild call; stage 2 is
// discharged. Revisiting a block in the same stage terminates the path
// (a loop that never discharges also never reaches the exit except
// through its exit edge, which is walked separately).
func (sf *shardflowPass) walkBarrier(g *flow.Graph, send *ast.SendStmt, barrierConds map[ast.Expr]bool, reported map[token.Pos]bool) {
	startBlk, startIdx, ok := g.FindNode(send.Pos())
	if !ok {
		return
	}
	type key struct {
		b     *flow.Block
		stage int
	}
	visited := make(map[key]bool)
	bad := false
	var walk func(b *flow.Block, from, stage int)
	walk = func(b *flow.Block, from, stage int) {
		if bad {
			return
		}
		for i := from; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			if stage == 0 && sf.hasDoneRecv(n) {
				stage = 1
				continue
			}
			if stage == 1 && sf.hasRebuildCall(n) {
				return // discharged
			}
			if w := sf.ownedWrite(n); w != nil && !reported[w.Pos()] {
				reported[w.Pos()] = true
				sf.p.Reportf(w.Pos(), "coordinator-owned state written between the window dispatch and the barrier %s; the window workers own the shard state until every ack is drained and the order heap is rebuilt",
					sf.cfg.rebuildMethod)
			}
		}
		if b == g.Exit {
			bad = true
			return
		}
		if stage == 0 && b.Cond != nil && barrierConds[b.Cond] {
			// Crossing an ack-drain loop header: the loop body runs at
			// least once at runtime, so both edges leave with the acks
			// drained.
			stage = 1
		}
		k := key{b, stage}
		if visited[k] {
			return
		}
		visited[k] = true
		for _, s := range b.Succs {
			walk(s, 0, stage)
		}
	}
	walk(startBlk, startIdx+1, 0)
	if bad && !reported[send.Pos()] {
		reported[send.Pos()] = true
		sf.p.Reportf(send.Pos(), "window dispatch is not followed by the full barrier (drain %s, then %s) on every path to the exit; the next heap comparison would race the window workers",
			sf.cfg.doneField, sf.cfg.rebuildMethod)
	}
}

// isParChan matches `<parType value>.<field>` or `<parType value>.<field>[i]`.
func (sf *shardflowPass) isParChan(e ast.Expr, field string) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == field && sf.typeName(sel.X) == sf.cfg.parType
}

// hasDoneRecv reports whether n contains a receive from the done channel.
func (sf *shardflowPass) hasDoneRecv(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		u, ok := m.(*ast.UnaryExpr)
		if ok && u.Op == token.ARROW && sf.isParChan(u.X, sf.cfg.doneField) {
			found = true
		}
		return !found
	})
	return found
}

// hasRebuildCall reports whether n contains a call to the rebuild method
// on the parallel driver.
func (sf *shardflowPass) hasRebuildCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		c, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if ok && sel.Sel.Name == sf.cfg.rebuildMethod && sf.typeName(sel.X) == sf.cfg.parType {
			found = true
		}
		return !found
	})
	return found
}

// ownedWrite returns the left-hand side of an assignment in n that
// writes coordinator-owned state (an owned SoA slice element or a
// batch-control scalar), nil when n writes none.
func (sf *shardflowPass) ownedWrite(n ast.Node) ast.Expr {
	var hit ast.Expr
	check := func(lhs ast.Expr) {
		if hit != nil {
			return
		}
		lhs = ast.Unparen(lhs)
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok &&
				sf.cfg.ownedSlices[sel.Sel.Name] && sf.typeName(sel.X) == sf.cfg.coordType {
				hit = lhs
			}
			return
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok &&
			sf.cfg.controlScalars[sel.Sel.Name] && sf.typeName(sel.X) == sf.cfg.coordType {
			hit = lhs
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if hit != nil {
			return false
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(m.X)
		}
		return true
	})
	return hit
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
