package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path it was checked under
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Owners is the Loader's module-wide ownership-annotation table,
	// shared by every package the Loader produced. Annotations from
	// dependency packages are visible because dependencies are loaded
	// (and scanned) through the same Loader before analysis begins.
	Owners *Owners
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Imports within the module are resolved
// recursively by the Loader itself; everything else (the standard
// library) is type-checked from source via go/importer, so no compiled
// export data is required. A Loader is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	root      string // module root directory (absolute)
	module    string // module path from go.mod
	goVersion string // e.g. "go1.22", from go.mod; may be ""
	std       types.Importer

	pkgs    map[string]*Package // memoized module-internal packages
	loading map[string]bool     // import-cycle guard
	owners  *Owners             // //lint:owner and //lint:handoff annotations
}

// NewLoader returns a Loader for the module enclosing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, goVersion, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		root:      root,
		module:    module,
		goVersion: goVersion,
		std:       importer.ForCompiler(fset, "source", nil),
		pkgs:      make(map[string]*Package),
		loading:   make(map[string]bool),
		owners:    newOwners(),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and extracts the
// module path and language version.
func findModule(dir string) (root, module, goVersion string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					module = strings.TrimSpace(rest)
				}
				if rest, ok := strings.CutPrefix(line, "go "); ok {
					goVersion = "go" + strings.TrimSpace(rest)
				}
			}
			if module == "" {
				return "", "", "", fmt.Errorf("lint: no module path in %s/go.mod", d)
			}
			return d, module, goVersion, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// Import implements types.Importer: module-internal paths resolve through
// the Loader, everything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadPath loads a module-internal import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return l.loadDir(filepath.Join(l.root, filepath.FromSlash(rel)), path)
}

// parseDir parses the non-test Go files of dir into fset. Test files
// (_test.go) are excluded: econlint guards the production sources; tests
// are exercised by `go test -race` instead.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadDir parses and type-checks the package in dir under import path
// asPath.
func (l *Loader) loadDir(dir, asPath string) (*Package, error) {
	if pkg, ok := l.pkgs[asPath]; ok {
		return pkg, nil
	}
	l.loading[asPath] = true
	defer delete(l.loading, asPath)

	files, err := parseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, GoVersion: l.goVersion}
	tpkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", asPath, err)
	}
	pkg := &Package{Path: asPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, Owners: l.owners}
	l.pkgs[asPath] = pkg
	// Collect ownership annotations as each package loads, so by the
	// time analysis reads the table every loaded package — dependencies
	// included — has contributed its annotations.
	l.owners.scanPackage(pkg)
	return pkg, nil
}

// LoadDirAs loads the single package in dir, checking it under the given
// import path. Fixture tests use this to place test sources in a
// deterministic package without moving them there.
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, asPath)
}

// Load expands package patterns relative to the current directory and
// loads them in expansion order. Supported forms: "./...", "dir/...", "./dir",
// "dir". Directories named testdata or vendor, and hidden or
// underscore-prefixed directories, are skipped, as are directories with
// no non-test Go files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.expand(patterns...)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := l.loadDir(t.abs, t.path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// target is one directory selected by pattern expansion.
type target struct {
	abs  string // absolute directory
	path string // import path it will be checked under
}

// expand resolves patterns to a deduplicated target list in a
// deterministic order (pattern order, then WalkDir's lexical directory
// order).
func (l *Loader) expand(patterns ...string) ([]target, error) {
	var targets []target
	seen := make(map[string]bool)
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		path, err := l.importPathFor(abs)
		if err != nil {
			return err
		}
		if seen[path] {
			return nil
		}
		seen[path] = true
		targets = append(targets, target{abs: abs, path: path})
		return nil
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !hasGoFiles(p) {
				return nil
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	return targets, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", abs, l.module)
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
