package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildFunc parses and type-checks one function and returns its decl,
// graph, and type info. src is the function body (without braces).
func buildFunc(t *testing.T, decl string) (*ast.FuncDecl, *Graph, *types.Info, *token.FileSet) {
	t.Helper()
	src := "package p\n\n" + decl + "\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Error: func(error) {}}
	// Errors tolerated: some shape tests use undeclared labels etc.
	conf.Check("p", fset, []*ast.File{f}, info) //nolint:errcheck
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd, Build(fd.Body), info, fset
		}
	}
	t.Fatalf("no function in:\n%s", src)
	return nil, nil, nil, nil
}

// blockOfLine finds the reachable block holding a node starting on the
// given source line.
func blockOfLine(t *testing.T, g *Graph, fset *token.FileSet, line int) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return b
			}
		}
	}
	t.Fatalf("no block holds a node on line %d", line)
	return nil
}

// lineOf resolves a marker comment-free source line by substring.
func lineOf(t *testing.T, src, frag string) int {
	t.Helper()
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, frag) {
			return i + 1
		}
	}
	t.Fatalf("fragment %q not found", frag)
	return 0
}

func TestCFGStraightLine(t *testing.T) {
	_, g, _, _ := buildFunc(t, `func f() int {
	x := 1
	x = x + 1
	return x
}`)
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry should edge straight to exit")
	}
}

func TestCFGIfElse(t *testing.T) {
	decl := `func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`
	src := "package p\n\n" + decl + "\n"
	_, g, _, fset := buildFunc(t, decl)
	cond := blockOfLine(t, g, fset, lineOf(t, src, "if c"))
	if cond.Cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("cond block: Cond=%v succs=%d, want a two-way branch", cond.Cond, len(cond.Succs))
	}
	thenB := blockOfLine(t, g, fset, lineOf(t, src, "x = 1"))
	elseB := blockOfLine(t, g, fset, lineOf(t, src, "x = 2"))
	if cond.Succs[0] != thenB || cond.Succs[1] != elseB {
		t.Fatalf("true edge should lead to then block, false edge to else block")
	}
	merge := blockOfLine(t, g, fset, lineOf(t, src, "return x"))
	if !reaches(thenB, merge) || !reaches(elseB, merge) {
		t.Errorf("both branches must reach the merge")
	}
	if reaches(thenB, elseB) || reaches(elseB, thenB) {
		t.Errorf("neither branch may reach the other")
	}
}

func TestCFGForLoop(t *testing.T) {
	decl := `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if s > 10 {
			break
		}
		s += i
	}
	return s
}`
	src := "package p\n\n" + decl + "\n"
	_, g, _, fset := buildFunc(t, decl)
	// The init statement shares the header's source line, so find the
	// header by its condition expression rather than by line.
	var header *Block
	for _, b := range g.Blocks {
		if b.Cond != nil && fset.Position(b.Cond.Pos()).Line == lineOf(t, src, "i < n") {
			header = b
			break
		}
	}
	if header == nil {
		t.Fatalf("no cond block on the loop-header line")
	}
	body := blockOfLine(t, g, fset, lineOf(t, src, "if s > 10"))
	ret := blockOfLine(t, g, fset, lineOf(t, src, "return s"))
	if !reaches(header, body) || !reaches(header, ret) {
		t.Errorf("loop header must reach body and after")
	}
	if reaches(ret, header) {
		t.Errorf("the after block must not reach back into the loop")
	}
	// The back edge: body (via the += block) reaches the header again.
	if !reaches(body, header) {
		t.Errorf("loop body must reach the header (back edge)")
	}
}

func TestCFGLabeledBreakAndGoto(t *testing.T) {
	decl := `func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s > 9 {
				break outer
			}
			if s < 0 {
				goto done
			}
			s++
		}
	}
done:
	return s
}`
	src := "package p\n\n" + decl + "\n"
	_, g, _, fset := buildFunc(t, decl)
	inner := blockOfLine(t, g, fset, lineOf(t, src, "s++"))
	ret := blockOfLine(t, g, fset, lineOf(t, src, "return s"))
	brk := blockOfLine(t, g, fset, lineOf(t, src, "break outer"))
	gto := blockOfLine(t, g, fset, lineOf(t, src, "goto done"))
	if !reaches(brk, ret) {
		t.Errorf("break outer must reach the labeled-loop exit path")
	}
	if !reaches(gto, ret) {
		t.Errorf("goto done must reach the label's block")
	}
	if !reaches(inner, ret) {
		t.Errorf("fallthrough loop exit must reach the return")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	decl := `func f(x int) int {
	s := 0
	switch x {
	case 0:
		s = 1
		fallthrough
	case 1:
		s = 2
	default:
		s = 3
	}
	return s
}`
	src := "package p\n\n" + decl + "\n"
	_, g, _, fset := buildFunc(t, decl)
	c0 := blockOfLine(t, g, fset, lineOf(t, src, "s = 1"))
	c1 := blockOfLine(t, g, fset, lineOf(t, src, "s = 2"))
	if !reaches(c0, c1) {
		t.Errorf("fallthrough must edge case 0 into case 1")
	}
}

func TestCFGPanicEdgesToExit(t *testing.T) {
	decl := `func f(c bool) int {
	if c {
		panic("boom")
	}
	return 1
}`
	src := "package p\n\n" + decl + "\n"
	_, g, _, fset := buildFunc(t, decl)
	pb := blockOfLine(t, g, fset, lineOf(t, src, "panic"))
	if len(pb.Succs) != 1 || pb.Succs[0] != g.Exit {
		t.Errorf("panic block must edge only to exit, got %d succs", len(pb.Succs))
	}
}

func TestReachingBothBranchesKillEntryDef(t *testing.T) {
	decl := `func f(c bool, base uint64) uint64 {
	seed := base + 1
	if c {
		seed = base * 3
	} else {
		seed = base * 5
	}
	return seed
}`
	src := "package p\n\n" + decl + "\n"
	fd, g, info, fset := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "seed")
	retLine := lineOf(t, src, "return seed")
	defs, ok := r.DefsAt(v, posOnLine(t, g, fset, retLine))
	if !ok {
		t.Fatalf("seed should be analyzable")
	}
	lines := defLines(fset, defs)
	wantA, wantB := lineOf(t, src, "base * 3"), lineOf(t, src, "base * 5")
	dead := lineOf(t, src, "base + 1")
	if len(defs) != 2 || lines[0] != wantA || lines[1] != wantB {
		t.Fatalf("reaching defs at return = lines %v, want [%d %d] (the dead initial def on line %d must be killed)", lines, wantA, wantB, dead)
	}
}

func TestReachingOneBranchKeepsInitialDef(t *testing.T) {
	decl := `func f(c bool, base uint64) uint64 {
	seed := base + 1
	if c {
		seed = base * 3
	}
	return seed
}`
	src := "package p\n\n" + decl + "\n"
	fd, g, info, fset := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "seed")
	defs, ok := r.DefsAt(v, posOnLine(t, g, fset, lineOf(t, src, "return seed")))
	if !ok || len(defs) != 2 {
		t.Fatalf("want both the initial and the conditional def to reach, got %d (ok=%v)", len(defs), ok)
	}
}

func TestReachingParamEntryDef(t *testing.T) {
	decl := `func f(c bool, seed uint64) uint64 {
	if c {
		seed = 7
	}
	return seed
}`
	src := "package p\n\n" + decl + "\n"
	fd, g, info, fset := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "seed")
	defs, ok := r.DefsAt(v, posOnLine(t, g, fset, lineOf(t, src, "return seed")))
	if !ok || len(defs) != 2 {
		t.Fatalf("want entry def + conditional def, got %d (ok=%v)", len(defs), ok)
	}
	if defs[0].Node != nil {
		t.Errorf("first def should be the synthetic entry definition")
	}
}

func TestReachingAddressTakenBailsOut(t *testing.T) {
	decl := `func f() int {
	x := 1
	p := &x
	_ = p
	return x
}`
	src := "package p\n\n" + decl + "\n"
	fd, g, info, fset := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "x")
	if _, ok := r.DefsAt(v, posOnLine(t, g, fset, lineOf(t, src, "return x"))); ok {
		t.Fatalf("address-taken variable must be unanalyzable")
	}
}

func TestReachingClosureAssignBailsOut(t *testing.T) {
	decl := `func f() int {
	x := 1
	g := func() { x = 2 }
	g()
	return x
}`
	fd, g, info, _ := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "x")
	if r.Analyzable(v) {
		t.Fatalf("closure-assigned variable must be unanalyzable")
	}
}

func TestReachingLoopCarried(t *testing.T) {
	decl := `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`
	src := "package p\n\n" + decl + "\n"
	fd, g, info, fset := buildFunc(t, decl)
	r := Reaching(g, info, fd.Recv, fd.Type.Params, fd.Type.Results)
	v := findVar(t, info, "s")
	// Inside the loop, both the initial def and the loop-carried def
	// reach the update's RHS.
	defs, ok := r.DefsAt(v, posOnLine(t, g, fset, lineOf(t, src, "s = s + i")))
	if !ok || len(defs) != 2 {
		t.Fatalf("loop-carried defs = %d (ok=%v), want 2", len(defs), ok)
	}
}

func TestEscapeLocalBuffer(t *testing.T) {
	decl := `func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		buf := make([]int, 0, 8)
		for j := 0; j < i; j++ {
			buf = append(buf, j)
		}
		buf = buf[:0]
		for _, v := range buf {
			total += v
		}
		total += len(buf)
		buf[0] = 1
	}
	return total
}`
	fd, _, info, _ := buildFunc(t, decl)
	v := findVar(t, info, "buf")
	loop := findLoop(t, fd)
	if esc := EscapesRegion(info, loop.Body, v); esc.Class != Local {
		t.Fatalf("buf should be Local, got Escapes: %s", esc.Reason)
	}
}

func TestEscapeShapes(t *testing.T) {
	cases := []struct {
		name, body, reason string
	}{
		{"returned", `return buf`, "returned"},
		{"call", `use(buf)`, "passed to a call"},
		{"alias", `other = buf`, "aliased by assignment"},
		{"append-into", `other = append(other, buf...)`, "appended as an element"},
		{"closure", `fn = func() int { return len(buf) }`, "captured by a function literal"},
		{"composite", `pair = [2][]int{buf, nil}`, "stored in a composite literal"},
		{"reslice-away", `other = buf[1:]`, "resliced into another value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decl := `func f(n int) []int {
	var other []int
	var pair [2][]int
	var fn func() int
	_ = pair
	_ = fn
	for i := 0; i < n; i++ {
		buf := make([]int, 0, 8)
		` + tc.body + `
	}
	return other
}

func use([]int) {}`
			fd, _, info, _ := buildFunc(t, decl)
			v := findVar(t, info, "buf")
			loop := findLoop(t, fd)
			esc := EscapesRegion(info, loop.Body, v)
			if esc.Class != Escapes {
				t.Fatalf("%s: expected escape", tc.name)
			}
			if esc.Reason != tc.reason {
				t.Errorf("%s: reason = %q, want %q", tc.name, esc.Reason, tc.reason)
			}
		})
	}
}

// ---- helpers ----

func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func findVar(t *testing.T, info *types.Info, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for id, obj := range info.Defs {
		if id.Name == name {
			if v, ok := obj.(*types.Var); ok {
				if found != nil && found != v {
					t.Fatalf("variable %q is ambiguous in this fixture", name)
				}
				found = v
			}
		}
	}
	if found == nil {
		t.Fatalf("no variable %q", name)
	}
	return found
}

func findLoop(t *testing.T, fd *ast.FuncDecl) *ast.ForStmt {
	t.Helper()
	var loop *ast.ForStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok && loop == nil {
			loop = l
			return false
		}
		return true
	})
	if loop == nil {
		t.Fatalf("no for loop in fixture")
	}
	return loop
}

// posOnLine returns the position of the first graph node starting on
// the given line.
func posOnLine(t *testing.T, g *Graph, fset *token.FileSet, line int) token.Pos {
	t.Helper()
	b := blockOfLine(t, g, fset, line)
	for _, n := range b.Nodes {
		if fset.Position(n.Pos()).Line == line {
			return n.Pos()
		}
	}
	t.Fatalf("no node on line %d", line)
	return token.NoPos
}

func defLines(fset *token.FileSet, defs []Def) []int {
	lines := make([]int, len(defs))
	for i, d := range defs {
		if d.Node != nil {
			lines[i] = fset.Position(d.Node.Pos()).Line
		}
	}
	return lines
}
