package main

import (
	"bytes"
	"strings"
	"testing"
)

const (
	wallclockFixture = "../../internal/lint/testdata/src/wallclock"
	auditFixture     = "../../internal/lint/testdata/src/auditstale"
	simPath          = "econcast/internal/sim"
)

func TestListExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"maprange", "wallclock", "floateq", "rawgoroutine", "errdrop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestSeededViolationExitsNonzero runs the CLI over a fixture package
// known to contain violations: the gate must fail loudly.
func TestSeededViolationExitsNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-as", simPath, wallclockFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[wallclock]") {
		t.Errorf("output missing [wallclock] finding:\n%s", out.String())
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/rng"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestUsageErrorsExitTwo pins the flag surface: only -list and -as are
// accepted, and -as takes exactly one directory.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "wallclock"},
		{"-json"},
		{"-as", simPath, wallclockFixture, auditFixture},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// TestAuditSuppressions pins the audit every run includes: the fixture
// carries live wallclock directives, one stale floateq directive, and
// one live directive that gives no reason; exactly the stale one and the
// unjustified one are reported, and nothing else.
func TestAuditSuppressions(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-as", simPath, auditFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s stderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d report lines, want 2:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "[stale-suppression]") || !strings.Contains(lines[0], "floateq stale") {
		t.Errorf("stale floateq directive not reported:\n%s", lines[0])
	}
	if !strings.Contains(lines[1], "[unjustified-suppression]") || !strings.Contains(lines[1], `"//lint:allow floateq"`) {
		t.Errorf("reasonless directive not reported:\n%s", lines[1])
	}
}
