// Package flow is econlint's intraprocedural dataflow framework: a
// control-flow graph over go/ast function bodies plus the classic
// analyses the suite's flow-sensitive analyzers are built on — reaching
// definitions (path-sensitive seedflow, loop-invariance for hotalloc's
// hoistable makes) and a small escape lattice (hotalloc's per-iteration
// allocation check).
//
// Like the rest of econlint, the package is standard library only. The
// graph is deliberately syntactic: basic blocks hold the statements (and
// branch conditions) of one straight-line run, function literals are
// opaque single nodes (their bodies get their own graphs when a caller
// needs them), and panics edge to the synthetic exit block. Everything
// is built by one deterministic AST walk, so analyzers layered on top
// keep the suite's byte-identical-output contract for free.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line statement run.
type Block struct {
	// Index is the block's position in Graph.Blocks (creation order,
	// stable across runs).
	Index int

	// Nodes are the block's statements and branch conditions in
	// execution order. Conditions appear as their bare ast.Expr;
	// range statements appear once, in their loop-header block, where
	// their key/value variables are defined.
	Nodes []ast.Node

	// Succs and Preds are the control-flow edges. When Cond is non-nil
	// the block ends in a two-way branch and Succs[0] is the true edge,
	// Succs[1] the false edge.
	Succs []*Block
	Preds []*Block

	// Cond is the boolean branch condition the block ends with (if/for
	// headers), or nil for straight-line blocks and multi-way branches
	// (switch, select, range).
	Cond ast.Expr
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every block in creation order; Blocks[0] is Entry.
	// Statically unreachable blocks (code after return) are included,
	// with no predecessors.
	Blocks []*Block

	Entry *Block
	// Exit is the synthetic sink: returns, panics, and the body's
	// fall-off end all edge here. It holds no nodes.
	Exit *Block

	// nodeAt locates each block node for position queries.
	nodeAt []placedNode
}

type placedNode struct {
	node  ast.Node
	block *Block
	index int // position in block.Nodes
}

// FindNode returns the innermost graph node whose source span contains
// pos, with its block and index. ok is false when pos lies outside every
// recorded node (e.g. a position inside a nested function literal whose
// enclosing statement was not recorded, or outside the body entirely).
func (g *Graph) FindNode(pos token.Pos) (b *Block, idx int, ok bool) {
	best := -1
	var span token.Pos
	for i, pn := range g.nodeAt {
		if pn.node.Pos() <= pos && pos < pn.node.End() {
			width := pn.node.End() - pn.node.Pos()
			if best < 0 || width < span {
				best, span = i, width
			}
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	pn := g.nodeAt[best]
	return pn.block, pn.index, true
}

// Build constructs the control-flow graph of body. The builder handles
// the full statement grammar: if/else chains, all three for forms,
// range, switch with fallthrough, type switch, select, labeled
// break/continue, and goto. It never panics on type-checked input and
// tolerates ill-formed trees (unresolved labels simply produce no edge),
// which FuzzBuildCFG exercises on arbitrary parseable bodies.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: make(map[string]*Block)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	// Resolve forward gotos now that every label has a block.
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, target)
		}
	}
	return b.g
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label     string // enclosing label, "" if unlabeled
	breakT    *Block
	continueT *Block // nil for switch/select frames
	isLoop    bool   // continue targets loops only
	nextCase  *Block // fallthrough target: next case clause, switch frames only
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g      *Graph
	cur    *Block // nil after a terminator until the next block starts
	frames []loopFrame
	labels map[string]*Block
	gotos  []pendingGoto
	// pendingLabel is the label of a LabeledStmt whose statement is
	// about to be built: the next loop/switch/select claims it for its
	// labeled break/continue.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block under construction, starting a fresh
// (unreachable) one if the previous statement terminated control flow.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.current()
	b.g.nodeAt = append(b.g.nodeAt, placedNode{n, blk, len(blk.Nodes)})
	blk.Nodes = append(blk.Nodes, n)
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.pendingLabel = ""
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.pendingLabel = ""
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.pendingLabel = ""
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.pendingLabel = ""
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.pendingLabel = ""
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.cur = nil
		}
	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line.
		b.pendingLabel = ""
		b.add(s)
	}
}

// isPanicCall matches a direct call of the builtin panic. (A shadowed
// `panic` misclassifies; the analyzers built on the graph only use the
// edge conservatively.)
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	condBlk := b.current()
	b.add(s.Cond)
	condBlk.Cond = s.Cond

	thenBlk := b.newBlock()
	after := b.newBlock()
	b.edge(condBlk, thenBlk) // Succs[0]: true edge

	elseTarget := after
	if s.Else != nil {
		elseTarget = b.newBlock()
	}
	b.edge(condBlk, elseTarget) // Succs[1]: false edge

	b.cur = thenBlk
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, after)
	}

	if s.Else != nil {
		b.cur = elseTarget
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	header := b.newBlock()
	b.edge(b.current(), header)

	body := b.newBlock()
	after := b.newBlock()
	if s.Cond != nil {
		b.cur = header
		b.add(s.Cond)
		header.Cond = s.Cond
		b.edge(header, body)  // true
		b.edge(header, after) // false
	} else {
		b.edge(header, body)
	}

	continueT := header
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		continueT = post
	}

	b.frames = append(b.frames, loopFrame{label: label, breakT: after, continueT: continueT, isLoop: true})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, continueT)
	}
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		if b.cur != nil {
			b.edge(b.cur, header)
		}
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	header := b.newBlock()
	b.edge(b.current(), header)
	// The range statement itself sits in the header: its key/value
	// variables are (re)defined there on every iteration, and its X is
	// evaluated there.
	b.cur = header
	b.add(s)

	body := b.newBlock()
	after := b.newBlock()
	b.edge(header, body)  // iterate
	b.edge(header, after) // exhausted

	b.frames = append(b.frames, loopFrame{label: label, breakT: after, continueT: header, isLoop: true})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, header)
	}
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	condBlk := b.current()
	if s.Tag != nil {
		b.add(s.Tag)
	}
	after := b.newBlock()

	clauses := make([]*Block, len(s.Body.List))
	hasDefault := false
	for i, cl := range s.Body.List {
		clauses[i] = b.newBlock()
		b.edge(condBlk, clauses[i])
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(condBlk, after)
	}

	for i, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		var ft *Block
		if i+1 < len(clauses) {
			ft = clauses[i+1]
		}
		b.frames = append(b.frames, loopFrame{label: label, breakT: after, nextCase: ft})
		b.cur = clauses[i]
		// The clause node carries the case expressions (uses, no defs);
		// its body statements follow as ordinary nodes.
		b.add(cc)
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	condBlk := b.current()
	if s.Assign != nil {
		b.add(s.Assign)
	}
	after := b.newBlock()

	clauses := make([]*Block, len(s.Body.List))
	hasDefault := false
	for i, cl := range s.Body.List {
		clauses[i] = b.newBlock()
		b.edge(condBlk, clauses[i])
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(condBlk, after)
	}

	for i, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.frames = append(b.frames, loopFrame{label: label, breakT: after})
		b.cur = clauses[i]
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	condBlk := b.current()
	after := b.newBlock()

	if len(s.Body.List) == 0 {
		// `select {}` blocks forever; give it the exit edge so the
		// graph stays connected. The after block is unreachable.
		b.edge(condBlk, b.g.Exit)
		b.cur = after
		return
	}
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		clause := b.newBlock()
		b.edge(condBlk, clause)
		b.cur = clause
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakT: after})
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	labelBlk := b.newBlock()
	b.edge(b.current(), labelBlk)
	b.labels[s.Label.Name] = labelBlk
	b.cur = labelBlk
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if label == "" || fr.label == label {
				b.edge(b.cur, fr.breakT)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.isLoop && (label == "" || fr.label == label) {
				b.edge(b.cur, fr.continueT)
				break
			}
		}
	case token.GOTO:
		if label != "" {
			if target, ok := b.labels[label]; ok {
				b.edge(b.cur, target)
			} else {
				b.gotos = append(b.gotos, pendingGoto{b.cur, label})
			}
		}
	case token.FALLTHROUGH:
		for i := len(b.frames) - 1; i >= 0; i-- {
			if ft := b.frames[i].nextCase; ft != nil {
				b.edge(b.cur, ft)
				break
			}
		}
	}
	b.cur = nil
}

// reversePostorder returns the reachable blocks in reverse postorder of
// a depth-first walk from Entry following Succs in order. The walk is
// fully deterministic: edge order is creation order.
func (g *Graph) reversePostorder() []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var post []*Block
	var walk func(b *Block)
	walk = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				walk(s)
			}
		}
		post = append(post, b)
	}
	walk(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
