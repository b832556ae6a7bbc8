// Econlint runs the project's determinism & correctness analyzers
// (internal/lint) over package patterns and reports each finding as
// "file:line:col: [analyzer] message", with the file relative to the
// working directory when it lies under it. Every run also audits the
// suppression directives: a //lint:allow or //lint:ordered that no
// longer holds back a finding is reported as [stale-suppression], and
// one that gives no reason as [unjustified-suppression]. It exits 1 when
// anything is reported, 2 on usage or load errors.
//
// Usage:
//
//	econlint [-list] [-as importpath] [packages]
//
// Patterns default to ./... and support the usual dir and dir/... forms.
// The -as flag checks a single directory under an assumed import path,
// which is how the fixture packages under internal/lint/testdata are
// placed into deterministic packages without living there.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"econcast/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("econlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	asPath := fs.String("as", "", "check a single directory under this assumed import path")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "econlint: %v\n", err)
		return 2
	}

	var pkgs []*lint.Package
	if *asPath != "" {
		if len(patterns) != 1 {
			fmt.Fprintln(stderr, "econlint: -as takes exactly one directory")
			return 2
		}
		pkg, err := loader.LoadDirAs(patterns[0], *asPath)
		if err != nil {
			fmt.Fprintf(stderr, "econlint: %v\n", err)
			return 2
		}
		pkgs = []*lint.Package{pkg}
	} else {
		pkgs, err = loader.Load(patterns...)
		if err != nil {
			fmt.Fprintf(stderr, "econlint: %v\n", err)
			return 2
		}
	}

	findings := lint.Check(pkgs, lint.All())
	audit := lint.AuditSuppressions(pkgs, lint.All())
	cwd, _ := os.Getwd()
	for _, f := range append(findings, audit...) {
		file := f.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); cwd != "" && err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if _, err := fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", filepath.ToSlash(file), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message); err != nil {
			fmt.Fprintf(stderr, "econlint: %v\n", err)
			return 2
		}
	}
	if len(findings)+len(audit) > 0 {
		fmt.Fprintf(stderr, "econlint: %d finding(s) and %d suppression problem(s) in %d package(s)\n",
			len(findings), len(audit), len(pkgs))
		return 1
	}
	return 0
}
