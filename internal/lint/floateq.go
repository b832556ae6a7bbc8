package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// epsilonHelperNames marks functions approved to compare floats exactly:
// the epsilon-comparison helpers themselves. A function qualifies when
// its name contains one of these fragments, case-insensitively.
var epsilonHelperNames = []string{"approx", "almost", "close", "near", "within"}

// FloatEq flags == and != between floating-point operands. Exact float
// comparison is almost always a correctness bug — accumulated rounding
// makes "equal" values differ in the last ulp, which silently flips
// branches (the simplex pivot in internal/lp is the canonical hazard).
// Compare against a tolerance, or suppress with //lint:allow floateq
// when the comparison is intentionally exact (sentinel zero, ±Inf
// checks, bit-identical determinism assertions).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "exact ==/!= between floating-point values",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && isEpsilonHelper(fd.Name.Name) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					tx, ty := p.Info.TypeOf(be.X), p.Info.TypeOf(be.Y)
					if tx == nil || ty == nil || !isFloat(tx) || !isFloat(ty) {
						return true
					}
					// Two constants fold at compile time; nothing can drift.
					if p.Info.Types[be.X].Value != nil && p.Info.Types[be.Y].Value != nil {
						return true
					}
					p.Reportf(be.Pos(), "exact float comparison (%s); use a tolerance helper, or //lint:allow floateq if exactness is intended", be.Op)
					return true
				})
			}
		}
	},
}

func isEpsilonHelper(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range epsilonHelperNames {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}
