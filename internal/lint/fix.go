package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
)

// TextEdit is one machine-applicable replacement: the bytes of File in
// [Start, End) are replaced by New. Offsets are 0-based byte offsets
// into the file as parsed; Start == End inserts.
type TextEdit struct {
	File  string
	Start int
	End   int
	New   string
}

// Fix is a suggested repair for a finding: a short description and the
// edits that implement it. All edits of one Fix are applied atomically
// or not at all.
type Fix struct {
	Message string
	Edits   []TextEdit
}

// suppressionFix builds the fallback Fix for analyzers whose findings
// need human judgment: append a justified trailing suppression to the
// flagged line. The inserted reason is a TODO stub so the suppression
// audit's intent — every allow carries a reason — survives the autofix.
func suppressionFix(p *Pass, pos token.Pos, analyzer, reason string) *Fix {
	tf := p.Fset.File(pos)
	if tf == nil {
		return nil
	}
	line := tf.Line(pos)
	off := lineEndOffset(tf, line)
	if off < 0 {
		return nil
	}
	text := " //lint:allow " + analyzer + " " + reason
	// A line already carrying a trailing comment would swallow an
	// appended directive (the comment token runs to end of line), so the
	// directive goes in front of the existing comment instead.
	if c := trailingComment(p, tf, pos, line); c != nil {
		off = tf.Offset(c.Pos())
		text = "//lint:allow " + analyzer + " " + reason + " "
	}
	return &Fix{
		Message: "suppress with a justified //lint:allow " + analyzer,
		Edits: []TextEdit{{
			File:  tf.Name(),
			Start: off,
			End:   off,
			New:   text,
		}},
	}
}

// trailingComment returns the first comment that starts after pos on the
// given line of the file holding pos, or nil.
func trailingComment(p *Pass, tf *token.File, pos token.Pos, line int) *ast.Comment {
	for _, f := range p.Files {
		if p.Fset.File(f.Pos()) != tf {
			continue
		}
		var best *ast.Comment
		for _, g := range f.Comments {
			for _, c := range g.List {
				if c.Pos() > pos && tf.Line(c.Pos()) == line &&
					(best == nil || c.Pos() < best.Pos()) {
					best = c
				}
			}
		}
		return best
	}
	return nil
}

// lineEndOffset returns the byte offset just before line's terminating
// newline (or the file size for an unterminated last line), or -1 if
// line is out of range.
func lineEndOffset(tf *token.File, line int) int {
	if line < 1 || line > tf.LineCount() {
		return -1
	}
	if line == tf.LineCount() {
		return tf.Size()
	}
	return tf.Offset(tf.LineStart(line+1)) - 1
}

// FixResult is the outcome of planning fixes over a set of findings.
type FixResult struct {
	// Contents maps each file that would change to its rewritten bytes.
	Contents map[string][]byte
	// Applied counts fixes whose edits were accepted.
	Applied int
	// Skipped counts fixes dropped because an edit overlapped one
	// already accepted (first finding in sorted order wins).
	Skipped int
}

// PlanFixes reads the files named by the findings' fixes and computes
// their contents with all non-overlapping fixes applied. Findings must
// already be in sorted order (as returned by Check); earlier findings
// win conflicts, so the result is deterministic. Only the first Fix of
// each finding is considered.
func PlanFixes(findings []Finding) (*FixResult, error) {
	src := make(map[string][]byte)     // original file contents
	taken := make(map[string][][2]int) // accepted edit ranges per file
	var accepted []TextEdit
	res := &FixResult{Contents: make(map[string][]byte)}

	load := func(file string) ([]byte, error) {
		if data, ok := src[file]; ok {
			return data, nil
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		src[file] = data
		return data, nil
	}

	overlaps := func(file string, start, end int) bool {
		for _, r := range taken[file] {
			// Two inserts at the same offset conflict; otherwise ranges
			// conflict when they intersect.
			if start < r[1] && end > r[0] || start == r[0] && end == start && r[1] == r[0] {
				return true
			}
		}
		return false
	}

	for _, f := range findings {
		if len(f.Fixes) == 0 {
			continue
		}
		fix := f.Fixes[0]
		ok := true
		for _, e := range fix.Edits {
			data, err := load(e.File)
			if err != nil {
				return nil, fmt.Errorf("lint: fix for %s: %w", f.Pos, err)
			}
			if e.Start < 0 || e.End < e.Start || e.End > len(data) || overlaps(e.File, e.Start, e.End) {
				ok = false
				break
			}
		}
		if !ok {
			res.Skipped++
			continue
		}
		res.Applied++
		for _, e := range fix.Edits {
			taken[e.File] = append(taken[e.File], [2]int{e.Start, e.End})
			accepted = append(accepted, e)
		}
	}

	byFile := make(map[string][]TextEdit)
	for _, e := range accepted {
		byFile[e.File] = append(byFile[e.File], e)
	}
	for file, edits := range byFile {
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		data := append([]byte(nil), src[file]...)
		for _, e := range edits {
			data = append(data[:e.Start], append([]byte(e.New), data[e.End:]...)...)
		}
		res.Contents[file] = data
	}
	return res, nil
}

// WriteFixes writes the planned contents back to disk.
func (r *FixResult) WriteFixes() error {
	files := make([]string, 0, len(r.Contents))
	for f := range r.Contents {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		info, err := os.Stat(f)
		mode := os.FileMode(0o644)
		if err == nil {
			mode = info.Mode().Perm()
		}
		if err := os.WriteFile(f, r.Contents[f], mode); err != nil {
			return err
		}
	}
	return nil
}

// UnifiedDiff renders a unified diff (3 lines of context) between old
// and new, labeled with the given path. Returns "" when identical.
func UnifiedDiff(path string, old, new []byte) string {
	if string(old) == string(new) {
		return ""
	}
	a := splitLines(string(old))
	b := splitLines(string(new))
	ops := diffLines(a, b)

	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", path, path)

	const ctx = 3
	i := 0
	for i < len(ops) {
		// Skip to the next change.
		for i < len(ops) && ops[i].kind == ' ' {
			i++
		}
		if i == len(ops) {
			break
		}
		// Hunk start: back up ctx lines of context.
		start := i - ctx
		if start < 0 {
			start = 0
		}
		// Extend through changes separated by <= 2*ctx context lines.
		end := i
		run := 0
		for j := i; j < len(ops); j++ {
			if ops[j].kind == ' ' {
				run++
				if run > 2*ctx {
					break
				}
			} else {
				run = 0
				end = j + 1
			}
		}
		stop := end + ctx
		if stop > len(ops) {
			stop = len(ops)
		}

		aStart, bStart := ops[start].aLine, ops[start].bLine
		aCount, bCount := 0, 0
		for _, op := range ops[start:stop] {
			if op.kind != '+' {
				aCount++
			}
			if op.kind != '-' {
				bCount++
			}
		}
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", aStart+1, aCount, bStart+1, bCount)
		for _, op := range ops[start:stop] {
			sb.WriteByte(byte(op.kind))
			sb.WriteString(op.text)
			sb.WriteByte('\n')
		}
		i = stop
	}
	return sb.String()
}

type diffOp struct {
	kind  rune // ' ', '-', '+'
	text  string
	aLine int // 0-based line in a at this op (for '-'/' '), else position
	bLine int
}

// splitLines splits s into lines without trailing newlines; a trailing
// newline does not produce a final empty line.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// diffLines computes a line-level diff of a and b via LCS dynamic
// programming — quadratic, fine for source files.
func diffLines(a, b []string) []diffOp {
	n, m := len(a), len(b)
	// lcs[i][j] = LCS length of a[i:], b[j:].
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var ops []diffOp
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			ops = append(ops, diffOp{' ', a[i], i, j})
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, diffOp{'-', a[i], i, j})
			i++
		default:
			ops = append(ops, diffOp{'+', b[j], i, j})
			j++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, diffOp{'-', a[i], i, j})
	}
	for ; j < m; j++ {
		ops = append(ops, diffOp{'+', b[j], i, j})
	}
	return ops
}
