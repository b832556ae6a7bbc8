package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: econcast/internal/sim
cpu: some CPU
BenchmarkEventLoop-8   	19221097	       128.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkEventLoopNonClique-8   	 5000000	       221.2 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	econcast/internal/sim	9.876s
pkg: econcast
BenchmarkFig6-8   	       1	1234567890 ns/op
--- BENCH: BenchmarkFig6-8
    bench_test.go:12: note line, not a result
ok  	econcast	2.345s
pkg: econcast/internal/sim
BenchmarkScaleGrid/n=100k/workers=4-8   	       1	19410859407 ns/op	   1087851 events/s
ok  	econcast/internal/sim	19.5s
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sample), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}
	ev := results[0]
	if ev.Name != "BenchmarkEventLoop" || ev.Package != "econcast/internal/sim" {
		t.Errorf("first result misattributed: %+v", ev)
	}
	if ev.Iterations != 19221097 || ev.NsPerOp != 128.3 {
		t.Errorf("first result values wrong: %+v", ev)
	}
	if !ev.HasMemStats || ev.AllocsPerOp != 0 || ev.BytesPerOp != 0 {
		t.Errorf("first result mem stats wrong: %+v", ev)
	}
	if ev.GOMAXPROCS != 8 || ev.CPU != "some CPU" {
		t.Errorf("first result GOMAXPROCS/CPU wrong: %+v", ev)
	}
	for _, r := range results {
		if r.NProc != 2 {
			t.Errorf("%s: nproc = %d, want the host's 2 on every row", r.Name, r.NProc)
		}
	}
	if doc, err := json.Marshal(ev); err != nil || !strings.Contains(string(doc), `"nproc":2`) {
		t.Errorf("nproc column missing from JSON: %s (%v)", doc, err)
	}
	fig := results[2]
	if fig.Name != "BenchmarkFig6" || fig.Package != "econcast" {
		t.Errorf("third result misattributed: %+v", fig)
	}
	if fig.GOMAXPROCS != 8 {
		t.Errorf("third result GOMAXPROCS wrong: %+v", fig)
	}
	if fig.HasMemStats {
		t.Errorf("no -benchmem columns, yet HasMemStats: %+v", fig)
	}
	scale := results[3]
	if scale.Name != "BenchmarkScaleGrid/n=100k/workers=4" {
		t.Errorf("subbenchmark name wrong: %+v", scale)
	}
	if scale.Metrics["events/s"] != 1087851 {
		t.Errorf("custom metric not captured: %+v", scale)
	}
	if scale.HasMemStats {
		t.Errorf("custom metric misread as mem stats: %+v", scale)
	}
}

func TestParseEmptyInputYieldsEmptyArray(t *testing.T) {
	results, err := parse(strings.NewReader("PASS\nok \tx\t0.1s\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if results == nil || len(results) != 0 {
		t.Fatalf("want empty non-nil slice, got %#v", results)
	}
}

func TestCPUSuffix(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{"BenchmarkFoo-8", 8},
		{"BenchmarkFoo-128", 128},
		{"BenchmarkFoo", -1},
		{"BenchmarkFoo-bar", -1},
	}
	for _, c := range cases {
		if got := cpuSuffix(c.name); got != c.want {
			t.Errorf("cpuSuffix(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}
