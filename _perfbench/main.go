// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the shipped defaults, checks the outputs, and
// prints every metric by name and unit, ending with one JSON line:
//
//	bash _perfbench/run.sh --workload grid-100k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 each workload repeat runs in a fresh process and the
// end-to-end metrics are medians over the repeats. With --trace 1 the
// benchmark instead runs the traced layer ladder: one traced repeat of
// every workload, each in its own process, timing the calls into each
// layer, plus one untraced repeat of the named workload to measure the
// tracing overhead. BENCHMARK.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is what one child process reports about one repeat.
type result struct {
	SetupS float64            `json:"setup_s"`
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"` // CPU time of the process during the timed work
	Ops    int                `json:"ops"`
	Fails  []string           `json:"fails,omitempty"`
	Digest string             `json:"digest,omitempty"` // must match across repeats at one seed
	Named  map[string]float64 `json:"named"`            // workload-specific end-to-end figures
	Layer  map[string]float64 `json:"layer,omitempty"`  // traced per-layer metrics
	Spans  []span             `json:"spans,omitempty"`

	rssMB float64 // peak resident memory, measured by the parent
}

func newResult() *result {
	return &result{Named: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.Fails = append(r.Fails, fmt.Sprintf(format, args...))
}

// runWorkload runs one repeat of a workload in this process.
func runWorkload(name string, seed uint64, start time.Time, tr *tracer) *result {
	switch name {
	case "grid-100k":
		return runGrid(gridFull, seed, tr)
	case "paper-quick":
		return runPaper(paperFigs, seed, start, tr)
	default:
		return runOracled(oracledFull, seed, tr)
	}
}

// setupOnly performs just a workload's setup and reports its time, so a
// run can sample set-up more often than it can afford whole repeats.
func setupOnly(name string, seed uint64, start time.Time) *result {
	res := newResult()
	res.Ops = 1
	switch name {
	case "grid-100k":
		t0 := time.Now()
		gridSetup(gridFull, nil, 0)
		res.SetupS = time.Since(t0).Seconds()
	case "paper-quick":
		if _, err := lookupFigs(paperFigs); err != nil {
			res.fail("%v", err)
		}
		res.SetupS = time.Since(start).Seconds()
	default:
		run := newOracledRun(seed, oracledFull, nil)
		o, setup, err := setupOracled(oracledFull, run, runtime.NumCPU())
		if err != nil {
			res.fail("oracled setup: %v", err)
			return res
		}
		res.SetupS = setup
		pool := oracledFull.pool
		res.Fails = append(res.Fails, checkOracled(run.all[:pool], run.resps[:pool], run.errs[:pool])...)
		if err := o.stop(); err != nil {
			res.fail("oracled shutdown: %v", err)
		}
	}
	return res
}

var workloadNames = func() []string {
	var names []string
	for _, w := range workloadCatalogue {
		names = append(names, w.Name)
	}
	return names
}()

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// setupSamples is how many set-up-only processes a run starts before
// its repeats; set-up time is the median over these and the repeats.
const setupSamples = 12

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", runSeconds, "how long to measure")
		trace     = flag.Int("trace", 0, "1 runs the traced layer ladder instead of the untraced measurement")
		outDir    = flag.String("out", ".bench_build", "directory for result and trace files")
		catalogue = flag.Bool("catalogue", false, "print BENCHMARK.json and exit")
		childMode = flag.String("child", "", "internal: run one repeat (run) or one set-up (setup) and print it as JSON")
		startNs   = flag.Int64("start", 0, "internal: when the parent launched this child, in Unix nanoseconds")
	)
	flag.Parse()

	if *catalogue {
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *childMode != "" {
		start := time.Unix(0, *startNs)
		var res *result
		if *childMode == "setup" {
			res = setupOnly(*workload, *seed, start)
		} else {
			var tr *tracer
			if *trace == 1 {
				tr = newTracer()
			}
			res = runWorkload(*workload, *seed, start, tr)
			if tr != nil {
				res.Spans = tr.snapshot()
				for layer, s := range layerSelf(res.Spans) {
					res.Layer["self."+layer+"_s"] = s
				}
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	host := hostInfo(*seed)
	fmt.Println(host)
	var sum *summary
	if *trace == 1 {
		sum = ladder(*workload, *seed)
	} else {
		sum = measure(*workload, *seed, *seconds)
	}
	if err := sum.save(*outDir, *workload, *seed, *trace, host); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		sum.failed++
	}
	sum.print(*workload, *trace)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// spawn runs one repeat (mode "run") or one set-up (mode "setup") of a
// workload in a fresh process and waits for it. Every repeat gets its
// own process because the oracle memo is process-global: a second
// repeat in the same process would find its misses already solved.
func spawn(mode, workload string, seed uint64, traced bool) (*result, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	start := time.Now()
	cmd := exec.Command(exe, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-trace", trace,
		"-start", strconv.FormatInt(start.UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	took := time.Since(start)
	if err != nil {
		return nil, took, fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	res := newResult()
	if err := json.Unmarshal(out, res); err != nil {
		return nil, took, fmt.Errorf("%s child of %s: bad report: %w", mode, workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return res, took, nil
}

// summary is what one benchmark run reports.
type summary struct {
	attempted, failed int
	fails             []string
	repeats           int
	metrics           map[string]float64   // reported in the final JSON line
	samples           map[string][]float64 // untraced runs: every repeat's value behind each median
	named             map[string]float64   // every other figure, printed above it
	spans             map[string][]span    // traced runs: spans per workload
}

// tally folds one child's operations and failures into s.
func (s *summary) tally(res *result, err error) bool {
	if err != nil {
		s.attempted++
		s.failed++
		s.fails = append(s.fails, err.Error())
		return false
	}
	s.attempted += res.Ops
	s.failed += len(res.Fails)
	s.fails = append(s.fails, res.Fails...)
	return true
}

// measure is the untraced run: set-up samples, then fresh-process
// repeats until the time is up (at least one), reporting medians.
func measure(workload string, seed uint64, seconds float64) *summary {
	t0 := time.Now()
	s := &summary{metrics: map[string]float64{}, named: map[string]float64{}}
	var setups, walls, cpus, rss, took []float64
	named := map[string][]float64{}
	for i := 0; i < setupSamples; i++ {
		if res, _, err := spawn("setup", workload, seed, false); s.tally(res, err) {
			setups = append(setups, res.SetupS)
		}
	}
	digest := ""
	for {
		res, d, err := spawn("run", workload, seed, false)
		took = append(took, d.Seconds())
		if !s.tally(res, err) {
			break // a repeat that crashed will crash again
		}
		s.repeats++
		setups = append(setups, res.SetupS)
		walls = append(walls, res.WallS)
		cpus = append(cpus, res.CPUS)
		rss = append(rss, res.rssMB)
		for k, v := range res.Named {
			named[k] = append(named[k], v)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			s.failed++
			s.fails = append(s.fails, fmt.Sprintf("repeat %d output %s differs from the first repeat's %s", s.repeats, res.Digest, digest))
		}
		if time.Since(t0).Seconds()+median(took) > seconds {
			break
		}
	}
	s.samples = map[string][]float64{"setup_s": setups, "wall_s": walls, "cpu_s": cpus, "max_rss_mb": rss}
	for _, m := range endToEnd {
		s.metrics[m.Name] = median(s.samples[m.Name])
	}
	// Wall time and peak memory are printed with the figures, not gated
	// (see endToEnd).
	named["wall_s"], named["max_rss_mb"] = walls, rss
	for k, v := range named {
		s.named[k] = median(v)
	}
	return s
}

// ladder is the traced run: one traced repeat of every workload, each
// in its own process, and one untraced repeat of the named workload for
// the tracing overhead.
func ladder(workload string, seed uint64) *summary {
	s := &summary{metrics: map[string]float64{}, named: map[string]float64{}, spans: map[string][]span{}}
	tracedCPU := 0.0
	for _, w := range workloadNames {
		res, _, err := spawn("run", w, seed, true)
		if !s.tally(res, err) {
			continue
		}
		s.repeats++
		s.spans[w] = res.Spans
		for k, v := range res.Layer {
			if strings.HasPrefix(k, "self.") {
				s.metrics[k] += v // every workload spends time in these layers
			} else {
				s.metrics[k] = v
			}
		}
		for k, v := range res.Named {
			s.named[w+"."+k] = v
		}
		if w == workload {
			tracedCPU = res.CPUS
		}
	}
	if res, _, err := spawn("run", workload, seed, false); s.tally(res, err) && tracedCPU > 0 {
		s.metrics["trace.overhead_frac"] = tracedCPU/res.CPUS - 1
	}
	return s
}

// save writes the run's full record, host included, and its spans.
func (s *summary) save(dir, workload string, seed uint64, trace int, host string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d-trace%d", workload, seed, trace))
	rec, err := json.MarshalIndent(map[string]any{
		"host": host, "workload": workload, "seed": seed, "trace": trace,
		"attempted": s.attempted, "failed": s.failed, "fails": s.fails,
		"repeats": s.repeats, "metrics": finite(s.metrics), "named": finite(s.named), "samples": s.samples,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if s.spans == nil {
		return nil
	}
	spans, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", spans, 0o644)
}

// finite drops NaN and infinite values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedUnits are the units of the workload-specific figures printed
// above the final line.
var namedUnits = map[string]string{
	"events_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "hit_p50_ms": "ms",
	"miss_p50_ms": "ms", "bounds_p50_ms": "ms", "capacity_rps": "1/s", "late_p99_ms": "ms",
	"max_rss_mb": "MB", "wall_s": "s",
}

// print writes every figure by name and unit, then the final JSON line
// with exactly the catalogue's metrics for this kind of run.
func (s *summary) print(workload string, trace int) {
	const shown = 20 // the record file keeps every failure
	for i, f := range s.fails {
		if i == shown {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failures\n", len(s.fails)-shown)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
	want := map[string]string{}
	if trace == 1 {
		for _, m := range perLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.Name] = m.Unit
		}
	}
	out := map[string]metricValue{}
	for name, unit := range want {
		v, ok := s.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL metric %s was not measured\n", name)
			v = 0
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}

	fmt.Printf("workload=%s trace=%d repeats=%d attempted=%d failed=%d\n", workload, trace, s.repeats, s.attempted, s.failed)
	if trace == 0 && s.attempted > 0 {
		s.named["fail_frac"] = float64(s.failed) / float64(s.attempted)
	}
	lines := []string{}
	for name, m := range out {
		lines = append(lines, fmt.Sprintf("  %-32s %16.6g %s", name, m.Value, m.Unit))
	}
	for name, v := range s.named {
		_, base, _ := strings.Cut(name, ".")
		if base == "" {
			base = name
		}
		unit := namedUnits[base]
		if unit == "" {
			unit = "ratio"
		}
		lines = append(lines, fmt.Sprintf("  %-32s %16.6g %s", name, v, unit))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}

	attempted := s.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{s.failed == 0 && s.attempted > 0, attempted, s.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// cpuSeconds is the CPU time, user plus system, this process has used
// so far. Unlike wall time it leaves out time the host's hypervisor
// gave the CPU to another guest.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// hostInfo records where and on what the run happened.
func hostInfo(seed uint64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				commit = st.Value
			}
		}
	}
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit, seed)
}
