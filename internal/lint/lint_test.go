package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectation is one (file, line, analyzer) triple a fixture demands.
type expectation struct {
	file     string // base name
	line     int
	analyzer string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d: [%s]", e.file, e.line, e.analyzer)
}

// wantMarks scans the fixture sources in dir for "// want name[,name]"
// trailing markers.
func wantMarks(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, mark, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, name := range strings.Split(strings.Fields(mark)[0], ",") {
				want = append(want, expectation{e.Name(), line, name})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func runFixture(t *testing.T, dir, asPath string, a *Analyzer) []expectation {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatal(err)
	}
	var got []expectation
	for _, f := range Check([]*Package{pkg}, []*Analyzer{a}) {
		got = append(got, expectation{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer})
	}
	return got
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		name     string
		dir      string
		as       string
		analyzer *Analyzer
		// wantNone overrides the markers: the same fixture loaded under an
		// exempt package path must stay silent.
		wantNone bool
	}{
		{"maprange", "maprange", "econcast/internal/sim", MapRange, false},
		{"maprange/outside-deterministic-pkg", "maprange", "econcast/internal/viz", MapRange, true},
		{"wallclock", "wallclock", "econcast/internal/sim", WallClock, false},
		{"wallclock/inside-rng", "wallclock", "econcast/internal/rng", WallClock, true},
		{"floateq", "floateq", "econcast/internal/lp", FloatEq, false},
		{"rawgoroutine", "rawgoroutine", "econcast/internal/experiments", RawGoroutine, false},
		{"rawgoroutine/licensed-pkg", "rawgoroutine", "econcast/internal/asim", RawGoroutine, true},
		{"errdrop", "errdrop", "econcast/internal/experiments", ErrDrop, false},
		{"hotalloc", "hotalloc", "econcast/internal/sim", HotAlloc, false},
		{"hotalloc/outside-hot-pkg", "hotalloc", "econcast/internal/viz", HotAlloc, true},
		{"hotalloc/lp-pivot-tree", filepath.Join("hotalloc", "lp"), "econcast/internal/lp", HotAlloc, false},
		{"hotalloc/lp-outside-hot-pkg", filepath.Join("hotalloc", "lp"), "econcast/internal/viz", HotAlloc, true},
		{"hotalloc/statespace-gibbs-tree", filepath.Join("hotalloc", "statespace"), "econcast/internal/statespace", HotAlloc, false},
		{"hotalloc/statespace-outside-hot-pkg", filepath.Join("hotalloc", "statespace"), "econcast/internal/viz", HotAlloc, true},
		{"hotalloc/faults-query-tree", filepath.Join("hotalloc", "faults"), "econcast/internal/faults", HotAlloc, false},
		{"hotalloc/faults-outside-hot-pkg", filepath.Join("hotalloc", "faults"), "econcast/internal/viz", HotAlloc, true},
		{"hotalloc/evq-heap-tree", filepath.Join("hotalloc", "evq"), "econcast/internal/evq", HotAlloc, false},
		{"hotalloc/evq-outside-hot-pkg", filepath.Join("hotalloc", "evq"), "econcast/internal/viz", HotAlloc, true},
		{"hotalloc/flow-sensitive", filepath.Join("hotalloc", "flow"), "econcast/internal/sim", HotAlloc, false},
		{"hotalloc/flow-outside-hot-pkg", filepath.Join("hotalloc", "flow"), "econcast/internal/viz", HotAlloc, true},
		{"chandir", "chandir", "econcast/internal/asim", ChanDir, false},
		{"chandir/outside-channel-pkg", "chandir", "econcast/internal/viz", ChanDir, true},
		{"seedflow", "seedflow", "econcast/internal/experiments", SeedFlow, false},
		{"seedflow/inside-rng", filepath.Join("seedflow", "exempt"), "econcast/internal/rng", SeedFlow, true},
		{"seedflow/reassign", filepath.Join("seedflow", "reassign"), "econcast/internal/experiments", SeedFlow, false},
		{"sharedstate", "sharedstate", "econcast/internal/asim", SharedState, false},
		{"sharedstate/clean-handoffs", filepath.Join("sharedstate", "clean"), "econcast/internal/asim", SharedState, true},
		{"unitflow", "unitflow", "econcast/internal/sim", UnitFlow, false},
		{"unitflow/outside-registry-pkg", "unitflow", "econcast/internal/viz", UnitFlow, true},
		{"shardown", "shardown", "econcast/internal/asim", ShardOwn, false},
		{"shardown/clean-engine", filepath.Join("shardown", "clean"), "econcast/internal/asim", ShardOwn, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFixture(t, tc.dir, tc.as, tc.analyzer)
			var want []expectation
			if !tc.wantNone {
				want = wantMarks(t, filepath.Join("testdata", "src", tc.dir))
			}
			sortExpectations(got)
			sortExpectations(want)
			if !equalExpectations(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
			if !tc.wantNone && len(want) == 0 {
				t.Fatalf("fixture %s has no positive markers", tc.dir)
			}
		})
	}
}

func sortExpectations(es []expectation) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.analyzer < b.analyzer
	})
}

func equalExpectations(a, b []expectation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRepoIsClean is the executable form of the CI gate: the full suite
// over the whole module must report nothing, and the suppression audit
// must find no stale or reasonless directive. Any new finding either gets
// fixed or earns an explicit suppression with a justification.
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.Root() + "/...")
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must cover command binaries, not just internal/...: a
	// determinism bug in cmd wiring (flag parsing feeding seeds, output
	// ordering) escapes to users just as readily.
	covered := false
	for _, p := range pkgs {
		if p.Path == "econcast/cmd/econlint" {
			covered = true
		}
	}
	if !covered {
		t.Error("module walk missed econcast/cmd/econlint; cmd/... must be linted")
	}
	for _, f := range Check(pkgs, All()) {
		t.Errorf("%s", f)
	}
	for _, f := range AuditSuppressions(pkgs, All()) {
		t.Errorf("%s", f)
	}
}

// TestSuppressionScope pins the directive grammar: a standalone
// suppression covers its own line and the next line, a trailing one
// covers exactly the line it sits on, and //lint:ordered is shorthand
// for allowing maprange.
func TestSuppressionScope(t *testing.T) {
	src := `package p

//lint:allow floateq sentinel
var _ = 0

//lint:allow floateq,errdrop multi
var _ = 1

//lint:ordered audited below
var _ = 2

// plain comment, not a directive
var _ = 3

var _ = 4 //lint:allow floateq trailing: covers this line only
var _ = 5

func f() {
	for { //lint:allow floateq trailing on a header line: no node ends here
		_ = 6
	}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "scope.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tab := suppressions(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "floateq", true},    // the directive's own line
		{4, "floateq", true},    // the next line
		{5, "floateq", false},   // one past the window
		{6, "floateq", true},    // comma list, first name
		{7, "errdrop", true},    // comma list, second name
		{7, "wallclock", false}, // unnamed analyzer stays live
		{10, "maprange", true},  // //lint:ordered aliases maprange
		{10, "floateq", false},
		{13, "floateq", false}, // ordinary comments are inert
		{15, "floateq", true},  // trailing directive covers its own line...
		{16, "floateq", false}, // ...but must NOT leak onto the next one
		{19, "floateq", true},  // `for {` header: code starts but nothing ends, still trailing...
		{20, "floateq", false}, // ...so the loop body stays live
	}
	for _, c := range cases {
		if got := tab.allows("scope.go", c.line, c.analyzer); got != c.want {
			t.Errorf("allows(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}
