// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can archive benchmark results (ns/op, B/op,
// allocs/op) as a machine-readable artifact and diffs against earlier
// runs stay scriptable.
//
// Usage:
//
//	go test -bench . -benchtime 1x -benchmem ./... | benchjson -o BENCH.json
//
// Lines that are not benchmark results (pkg headers, PASS/ok trailers)
// are skipped; `pkg:` headers attribute each result to its package.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string `json:"name"`
	Package string `json:"package,omitempty"`
	// GOMAXPROCS is the name's trailing `-N` decoration: the GOMAXPROCS
	// the benchmark ran under. 0 when the name carries no decoration.
	// Multi-core speedup tables key on this column (see EXPERIMENTS.md).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// CPU is the `cpu:` header of the run, attributed like Package, so
	// archived numbers carry the hardware they were measured on.
	CPU string `json:"cpu,omitempty"`
	// NProc is runtime.NumCPU() where benchjson ran — the logical CPUs
	// of the host, read next to the benchmarks it is piped from — so a
	// GOMAXPROCS-4 row from a 2-CPU host reads as oversubscribed.
	NProc      int     `json:"nproc,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// No omitempty on the allocation columns: an explicit 0 is the
	// allocation-free gate's evidence, not an absent measurement —
	// HasMemStats distinguishes "measured 0" from "not measured".
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	HasMemStats bool  `json:"has_mem_stats"`

	// Metrics holds custom b.ReportMetric columns ("events/s": 1.2e6)
	// keyed by their unit string, so throughput-style results survive the
	// conversion alongside the standard time and allocation columns.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	results, err := parse(os.Stdin, runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse scans go-test benchmark output. A result line looks like
//
//	BenchmarkEventLoop-8  19221097  128.3 ns/op  0 B/op  0 allocs/op
//
// with the B/op and allocs/op columns present only under -benchmem or
// b.ReportAllocs. nproc is recorded on every result as the host's CPU
// count.
func parse(r io.Reader, nproc int) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	var results []Result
	pkg, cpu := "", ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shortest valid form: name, iterations, value, "ns/op".
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		gomaxprocs := cpuSuffix(name)
		if gomaxprocs > 0 {
			name = name[:strings.LastIndexByte(name, '-')]
		} else {
			gomaxprocs = 0
		}
		res := Result{
			Name:       name,
			Package:    pkg,
			GOMAXPROCS: gomaxprocs,
			CPU:        cpu,
			NProc:      nproc,
			Iterations: iters,
			NsPerOp:    ns,
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				res.BytesPerOp = int64(v)
				res.HasMemStats = true
			case "allocs/op":
				res.AllocsPerOp = int64(v)
				res.HasMemStats = true
			default:
				// A custom b.ReportMetric column; keep it under its unit.
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if results == nil {
		results = []Result{}
	}
	return results, nil
}

// cpuSuffix extracts the trailing GOMAXPROCS decoration of a benchmark
// name ("BenchmarkFoo-8" -> 8), or -1 when absent.
func cpuSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return -1
	}
	return n
}
