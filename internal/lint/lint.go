// Package lint implements econlint, a project-specific static-analysis
// suite that guards the determinism and correctness invariants this
// reproduction depends on. Every figure and oracle bound in the repo
// assumes the simulators are bit-for-bit reproducible from a seed
// (internal/asim promises "exactly reproducible despite the concurrency");
// these analyzers make that invariant machine-checked instead of
// conventional.
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types); it deliberately does not depend on golang.org/x/tools.
//
// Analyzers:
//
//   - maprange: `for … range` over a map in a deterministic package,
//     unless the loop body is provably order-insensitive.
//   - wallclock: time.Now / time.Sleep / math/rand outside internal/rng.
//   - floateq: == / != between floating-point operands outside approved
//     epsilon-comparison helpers.
//   - rawgoroutine: `go` statements outside internal/asim,
//     internal/sweep, internal/serve and cmd/oracled, the only packages
//     licensed to spawn concurrency.
//   - errdrop: discarded error return values.
//   - hotalloc: make/append/map-literal, capturing-closure and
//     interface-boxing allocation sites reachable from the simulators'
//     event loops, which must stay allocation-free in steady state.
//   - chandir: channels crossing the asim broker-node boundary
//     must be declared with a direction, and select is confined to the
//     licensed event loops, so the request-reply discipline that makes
//     the concurrent simulator deterministic is type-enforced.
//   - seedflow: every seed reaching rng.New, rng.DeriveSeed's base, a
//     Seed struct field, or a seed-named parameter must derive from
//     rng.DeriveSeed (or be a constant / already-derived value), never
//     from additive or xor arithmetic, which can collide. A local is
//     chased through every assignment to it, reachable or not.
//   - sharedstate: a mutable determinism-critical pointer (*rng.Source,
//     *stats.Accumulator, ...) must not be shared across goroutines, by
//     closure capture or by storing one value into several
//     goroutine-crossing structs.
//   - unitflow: unit/dimension flow analysis over the simulator's
//     physical quantities (seconds, joules, watts, meters); mixing
//     dimensions in arithmetic is reported unless annotated.
//   - shardown: //lint:owner role domains are enforced — state owned by
//     one goroutine role must not be touched from another except through
//     a declared //lint:handoff boundary.
//
// # Suppressions
//
// A finding can be silenced at the site with a per-line comment, either
// trailing the offending line or on its own line immediately above it:
//
//	//lint:allow <name>[,<name>...] [reason]
//
// maprange additionally honours the shorthand
//
//	//lint:ordered [reason]
//
// which asserts the loop body has been audited to be iteration-order
// insensitive. A trailing directive covers exactly its own line; a
// standalone directive covers its own line and the next one. There is no
// file- or package-wide escape hatch, and a directive that no longer
// suppresses anything, or that gives no reason, is itself reported by the
// suppression audit (AuditSuppressions), which every econlint run
// includes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical "file:line: [name] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // import path the package was checked under
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Owners is the module-wide //lint:owner annotation table, collected
	// incrementally by the Loader as packages (including dependencies)
	// are type-checked. May be nil for hand-built passes.
	Owners *Owners

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, FloatEq, RawGoroutine, ErrDrop, HotAlloc, ChanDir, SeedFlow, SharedState, UnitFlow, ShardOwn}
}

// Check runs the analyzers over the packages, applies per-line
// suppressions, and returns the surviving findings sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, checkPkg(pkg, analyzers)...)
	}
	sortFindings(all)
	return all
}

// checkPkg runs the analyzers over one package and applies its
// suppressions.
func checkPkg(pkg *Package, analyzers []*Analyzer) []Finding {
	sup := suppressions(pkg.Fset, pkg.Files)
	var kept []Finding
	for _, f := range rawFindings(pkg, analyzers) {
		if sup.allows(f.Pos.Filename, f.Pos.Line, f.Analyzer) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// rawFindings runs the analyzers over one package without applying
// suppressions.
func rawFindings(pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Owners:   pkg.Owners,
			findings: &raw,
		}
		a.Run(pass)
	}
	return raw
}

// sortFindings orders findings by position, then analyzer, then message.
// The message tiebreak matters for byte-identical output: an analyzer that
// collects sites through a map (e.g. hotalloc's closure) may report two
// findings on one line in either order.
func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// StaleSuppression is the pseudo-analyzer name under which
// AuditSuppressions reports directives that no longer suppress anything.
const StaleSuppression = "stale-suppression"

// UnjustifiedSuppression is the pseudo-analyzer name under which
// AuditSuppressions reports directives that give no reason: a finding is
// silenced only at its line and with a reason a reviewer can weigh.
const UnjustifiedSuppression = "unjustified-suppression"

// AuditSuppressions reruns the analyzers without applying suppressions
// and reports every //lint: directive whose covered lines produce no
// finding it names — dead weight that would silently mask a future
// regression — and every live directive that gives no reason. Run it
// with the full suite: a directive naming an analyzer that is not in the
// run set is indistinguishable from a stale one.
func AuditSuppressions(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, auditPkg(pkg, analyzers)...)
	}
	sortFindings(all)
	return all
}

func auditPkg(pkg *Package, analyzers []*Analyzer) []Finding {
	hits := make(suppTable)
	for _, f := range rawFindings(pkg, analyzers) {
		hits.add(f.Pos.Filename, f.Pos.Line, f.Analyzer)
	}
	var stale []Finding
	for _, d := range directives(pkg.Fset, pkg.Files) {
		live := false
		for _, n := range d.Names {
			if hits.allows(d.Pos.Filename, d.Pos.Line, n) ||
				(d.Standalone && hits.allows(d.Pos.Filename, d.Pos.Line+1, n)) {
				live = true
				break
			}
		}
		switch {
		case !live:
			stale = append(stale, Finding{
				Pos:      d.Pos,
				Analyzer: StaleSuppression,
				Message:  fmt.Sprintf("suppression %q no longer matches any finding; delete it", d.Text),
			})
		case d.Reason == "":
			stale = append(stale, Finding{
				Pos:      d.Pos,
				Analyzer: UnjustifiedSuppression,
				Message:  fmt.Sprintf("suppression %q gives no reason; say why the finding is acceptable", d.Text),
			})
		}
	}
	return stale
}

// suppTable maps file -> line -> analyzer names allowed on that line.
type suppTable map[string]map[int]map[string]bool

func (s suppTable) allows(file string, line int, analyzer string) bool {
	return s[file][line][analyzer]
}

func (s suppTable) add(file string, line int, analyzer string) {
	byLine, ok := s[file]
	if !ok {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	names, ok := byLine[line]
	if !ok {
		names = make(map[string]bool)
		byLine[line] = names
	}
	names[analyzer] = true
}

// Directive is one parsed //lint:allow or //lint:ordered comment.
type Directive struct {
	Pos        token.Position
	Names      []string // analyzer names the directive allows
	Standalone bool     // own-line comment: also covers the next line
	Reason     string   // the text after the names, trimmed; "" when absent
	Text       string   // the raw comment text
}

// directiveContent is the parsed payload of one //lint: comment,
// independent of where it sits in the source.
type directiveContent struct {
	Kind   string   // "allow", "ordered", "owner", "handoff", or "" for non-directives
	Names  []string // allow: analyzer names; ordered: the maprange alias
	Reason string   // allow/ordered: the trimmed free-form reason, or ""
	Domain string   // owner/handoff: the ownership domain
}

// parseDirective parses a raw comment text ("//lint:allow floateq why")
// into its directive content. Comments that are not //lint: directives,
// and directives with an empty payload, parse to the zero content. The
// grammar is shared by the suppression table, the suppression audit, and
// the ownership-annotation scan, and is fuzzed by FuzzParseDirectives.
func parseDirective(text string) directiveContent {
	body, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return directiveContent{}
	}
	switch {
	case body == "ordered" || strings.HasPrefix(body, "ordered "):
		reason := strings.TrimSpace(strings.TrimPrefix(body, "ordered"))
		return directiveContent{Kind: "ordered", Names: []string{MapRange.Name}, Reason: reason}
	case strings.HasPrefix(body, "allow "):
		list, reason, _ := strings.Cut(strings.TrimPrefix(body, "allow "), " ")
		var names []string
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return directiveContent{}
		}
		return directiveContent{Kind: "allow", Names: names, Reason: strings.TrimSpace(reason)}
	case strings.HasPrefix(body, "owner "), strings.HasPrefix(body, "handoff "):
		kind, rest, _ := strings.Cut(body, " ")
		domain := strings.TrimSpace(rest)
		if i := strings.IndexByte(domain, ' '); i >= 0 {
			domain = domain[:i] // anything after the domain is a free-form reason
		}
		if domain == "" {
			return directiveContent{}
		}
		return directiveContent{Kind: kind, Domain: domain}
	}
	return directiveContent{}
}

// directives scans the files' comments for suppression directives
// (//lint:allow, //lint:ordered). A directive trailing code covers
// exactly its own line; a standalone directive (nothing but the comment
// on its line) additionally covers the next line. Ownership annotations
// (//lint:owner, //lint:handoff) are not suppressions and are collected
// separately (see Owners).
func directives(fset *token.FileSet, files []*ast.File) []Directive {
	var ds []Directive
	for _, f := range files {
		var code map[int]bool // lazily built per file
		for _, group := range f.Comments {
			for _, c := range group.List {
				d := parseDirective(c.Text)
				if d.Kind != "allow" && d.Kind != "ordered" {
					continue
				}
				if code == nil {
					code = codeLines(fset, f)
				}
				pos := fset.Position(c.Pos())
				ds = append(ds, Directive{
					Pos:        pos,
					Names:      d.Names,
					Standalone: !code[pos.Line],
					Reason:     d.Reason,
					Text:       c.Text,
				})
			}
		}
	}
	return ds
}

// suppressions builds the per-line allow table from the files'
// directives.
func suppressions(fset *token.FileSet, files []*ast.File) suppTable {
	tab := make(suppTable)
	for _, d := range directives(fset, files) {
		for _, n := range d.Names {
			tab.add(d.Pos.Filename, d.Pos.Line, n)
			if d.Standalone {
				// Only a standalone comment extends to the next line: a
				// trailing directive silences the line it annotates, not
				// whatever happens to follow it.
				tab.add(d.Pos.Filename, d.Pos.Line+1, n)
			}
		}
	}
	return tab
}

// codeLines returns the set of lines on which some non-comment node of f
// starts or ends. A line comment on such a line trails code; on any other
// line it stands alone. (Line comments cannot precede code on their line.)
// Start lines must be recorded too: on header lines where no node ends —
// `for {`, a bare `select {` — an end-only scan would misread a trailing
// directive as standalone and leak it onto the next line.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgNameOf resolves an identifier used as a package qualifier, returning
// the imported package path, or "".
func pkgNameOf(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
