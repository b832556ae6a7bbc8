package lint

import (
	"strings"
	"testing"
)

// FuzzParseDirectives shakes the shared //lint: directive grammar. The
// seeds replay the trailing-vs-standalone regression corpus from the
// suppression-scope work plus the ownership forms; the invariants keep
// the parser total and its outputs well-formed, since every consumer
// (suppression table, audit, ownership scan) trusts them blindly.
func FuzzParseDirectives(f *testing.F) {
	seeds := []string{
		"//lint:allow floateq sentinel",
		"//lint:allow floateq,errdrop multi",
		"//lint:allow floateq trailing: covers this line only",
		"//lint:allow floateq trailing on a header line: no node ends here",
		"//lint:ordered audited below",
		"//lint:ordered",
		"//lint:owner goroutine each goroutine owns its own stream",
		"//lint:owner sim-engine the event-loop goroutine owns all engine state",
		"//lint:handoff fix-broker reads the clock at a sync point",
		"//lint:allow",
		"//lint:allow ",
		"//lint:allow ,, ",
		"//lint:owner",
		"//lint:owner ",
		"//lint:handoff  leading space",
		"//lint:ordered2 prefix confusion",
		"//lint:allowx not allow",
		"// plain comment, not a directive",
		"//lint:",
		"",
		"//lint:allow floateq",
		"//lint:allow floateq   ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d := parseDirective(text)
		if d.Reason != strings.TrimSpace(d.Reason) {
			t.Errorf("parseDirective(%q): untrimmed reason %q", text, d.Reason)
		}
		switch d.Kind {
		case "":
			if len(d.Names) != 0 || d.Domain != "" || d.Reason != "" {
				t.Errorf("parseDirective(%q): zero kind with payload %+v", text, d)
			}
		case "allow":
			if len(d.Names) == 0 {
				t.Errorf("parseDirective(%q): allow with no names", text)
			}
			for _, n := range d.Names {
				if n == "" || strings.ContainsRune(n, ' ') {
					t.Errorf("parseDirective(%q): malformed name %q", text, n)
				}
			}
			if !strings.HasPrefix(text, "//lint:allow ") {
				t.Errorf("parseDirective(%q): allow from non-allow text", text)
			}
		case "ordered":
			if len(d.Names) != 1 || d.Names[0] != MapRange.Name {
				t.Errorf("parseDirective(%q): ordered must alias exactly maprange, got %v", text, d.Names)
			}
			if text != "//lint:ordered" && !strings.HasPrefix(text, "//lint:ordered ") {
				t.Errorf("parseDirective(%q): ordered from non-ordered text", text)
			}
		case "owner", "handoff":
			if d.Domain == "" || strings.ContainsRune(d.Domain, ' ') {
				t.Errorf("parseDirective(%q): malformed domain %q", text, d.Domain)
			}
			if len(d.Names) != 0 || d.Reason != "" {
				t.Errorf("parseDirective(%q): ownership directive carries names %v or reason %q", text, d.Names, d.Reason)
			}
			if !strings.HasPrefix(text, "//lint:"+d.Kind+" ") {
				t.Errorf("parseDirective(%q): %s from mismatched text", text, d.Kind)
			}
		default:
			t.Errorf("parseDirective(%q): unknown kind %q", text, d.Kind)
		}
	})
}
