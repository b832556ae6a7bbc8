package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// FuzzBuildCFG shakes the CFG builder and the dominator computation on
// arbitrary parseable function bodies. The seeds replay the
// directive-grammar fuzz corpus (as comment/statement soup) plus
// synthesized control-flow shapes — labeled breaks, gotos into and out
// of nests, select inside licensed loops, fallthrough chains — and the
// invariants pin what every consumer trusts: Build never panics,
// Preds/Succs are mutually consistent, the entry dominates every
// reachable block, and each reachable block's immediate dominator is
// itself reachable and strictly dominates it.
func FuzzBuildCFG(f *testing.F) {
	seeds := []string{
		// The directive corpus, dropped into bodies as comments.
		"// //lint:allow floateq sentinel",
		"// //lint:allow floateq,errdrop multi",
		"// //lint:ordered audited below",
		"// //lint:owner sim-engine the event-loop goroutine owns all engine state",
		"// //lint:handoff fix-broker reads the clock at a sync point",
		"//lint:",
		"",
		// Straight line and branches.
		"x := 1\nx = x + 1\n_ = x",
		"if a {\n\tb()\n} else if c {\n\td()\n}",
		// Loops: all three for forms, range, nested with labels.
		"for {\n\tbreak\n}",
		"for i := 0; i < 10; i++ {\n\tcontinue\n}",
		"for cond() {\n\tif x() {\n\t\tbreak\n\t}\n}",
		"for k, v := range m {\n\t_ = k\n\t_ = v\n}",
		"outer:\nfor i := 0; i < 10; i++ {\n\tfor j := 0; j < 10; j++ {\n\t\tif j > i {\n\t\t\tbreak outer\n\t\t}\n\t\tcontinue outer\n\t}\n}",
		// Goto: forward, backward, into a label after a loop.
		"goto done\ndone:\n\treturn",
		"again:\n\tif cond() {\n\t\tgoto again\n\t}",
		"for {\n\tgoto out\n}\nout:\n\treturn",
		// Switch: tags, fallthrough chains, init statements.
		"switch x := f(); x {\ncase 1:\n\tfallthrough\ncase 2:\n\tg()\ndefault:\n\th()\n}",
		"switch {\ncase a:\n\tbreak\ncase b:\n}",
		"switch v := i.(type) {\ncase int:\n\t_ = v\ncase string:\ndefault:\n}",
		// Select inside a licensed loop, with breaks and sends.
		"for {\n\tselect {\n\tcase v := <-ch:\n\t\t_ = v\n\tcase ch2 <- 1:\n\t\tbreak\n\tdefault:\n\t\treturn\n\t}\n}",
		"loop:\nfor {\n\tselect {\n\tcase <-ch:\n\t\tbreak loop\n\t}\n}",
		"select {}",
		// Terminators and dead code.
		"panic(\"boom\")\nx := 1\n_ = x",
		"return\nfor {\n}",
		"defer f()\ngo g()\nch <- 1\nx++",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc fz() {\n" + body + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // not parseable: out of scope
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := Build(fd.Body) // must not panic
			checkGraph(t, g)
		}
	})
}

// checkGraph asserts the structural invariants of a built graph and its
// dominator tree.
func checkGraph(t *testing.T, g *Graph) {
	t.Helper()
	if g.Entry == nil || g.Exit == nil {
		t.Fatalf("graph missing entry/exit")
	}
	index := make(map[*Block]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Fatalf("block %d carries index %d", i, b.Index)
		}
		index[b] = true
	}
	count := func(list []*Block, b *Block) int {
		n := 0
		for _, x := range list {
			if x == b {
				n++
			}
		}
		return n
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				t.Fatalf("edge to a block outside the graph")
			}
			if count(s.Preds, b) < count(b.Succs, s) {
				t.Fatalf("succ edge %d->%d without matching pred edge", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if count(p.Succs, b) < count(b.Preds, p) {
				t.Fatalf("pred edge %d<-%d without matching succ edge", b.Index, p.Index)
			}
		}
		if b.Cond != nil && len(b.Succs) != 2 {
			t.Fatalf("cond block %d has %d succs, want 2", b.Index, len(b.Succs))
		}
	}
}
