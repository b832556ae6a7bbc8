package main

import (
	"encoding/json"
)

// The catalogue is the single source of BENCHMARK.json: `perfbench
// -catalogue` prints it, and TestCatalogueMatchesBenchmarkJSON keeps
// the committed file in step.

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type catalogue struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []e2eMetric     `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

var workloadCatalogue = []workloadEntry{
	{"grid-100k", "one default-engine sim.Run on a 316x316 grid: the sharded coordinator and window-parallel engine do the work, oracle and serve none"},
	{"paper-quick", "fig2, fig4, fig5 and fig6 in quick mode: single-queue engine on cliques and small grids, oracle, statespace and sweep fan-out"},
	{"oracled-mix", "80/15/5 hit/miss/bounds HTTP traffic to an in-process oracled: serve, oracle and lp do the work, sim none"},
}

// endToEnd are the metrics every workload reports with tracing off.
// cpu_s is the CPU time of the workload's fixed unit of work: one
// sim.Run (grid-100k), the four figures (paper-quick), or the
// closed-loop batch (oracled-mix). Its wall time is printed, not gated:
// on a shared host it absorbs time the hypervisor gives to other guests
// (BENCHMARK.md, "End-to-end metrics").
var endToEnd = []e2eMetric{
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []layerMetric{
	{"topology.grid_build_ms", "ms", "lower"},
	{"topology.partition_ms", "ms", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.serial_ns_per_event", "ns", "lower"},
	{"sim.delivered_per_sent", "ratio", "higher"},
	{"sim.collided_per_sent", "ratio", "lower"},
	{"sim.clique_ns_per_event", "ns", "lower"},
	{"sim.smallgrid_ns_per_event", "ns", "lower"},
	{"rng.exp_ns", "ns", "lower"},
	{"experiments.fig2_s", "s", "lower"},
	{"experiments.fig4_s", "s", "lower"},
	{"experiments.fig5_s", "s", "lower"},
	{"experiments.fig6_s", "s", "lower"},
	{"experiments.serial_s", "s", "lower"},
	{"sweep.speedup", "ratio", "higher"},
	{"statespace.p4_us", "us", "lower"},
	{"oracle.clique_miss_us", "us", "lower"},
	{"oracle.bounds_us", "us", "lower"},
	{"oracle.memo_hits", "count", "higher"},
	{"oracle.memo_misses", "count", "lower"},
	{"oracle.memo_evictions", "count", "lower"},
	{"serve.hit_handler_us", "us", "lower"},
	{"serve.miss_handler_us", "us", "lower"},
	{"serve.bounds_handler_us", "us", "lower"},
	{"serve.hit_transport_us", "us", "lower"},
	{"serve.miss_transport_us", "us", "lower"},
	{"serve.bounds_transport_us", "us", "lower"},
	{"serve.solver_hit_us", "us", "lower"},
	{"serve.hit_frac", "ratio", "higher"},
	{"serve.exact", "count", "lower"},
	{"serve.cached", "count", "higher"},
	{"serve.degraded", "count", "lower"},
	{"serve.coalesced", "count", "higher"},
	{"serve.sheds", "count", "lower"},
	{"serve.queue_rejects", "count", "lower"},
	{"serve.disk_puts", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"residual.grid_s", "s", "lower"},
	{"residual.paper_s", "s", "lower"},
	{"residual.oracled_s", "s", "lower"},
	{"residual.hit_handler_us", "us", "lower"},
	{"residual.miss_handler_us", "us", "lower"},
	{"residual.bounds_handler_us", "us", "lower"},
	{"self.bench_s", "s", "lower"},
	{"self.topology_s", "s", "lower"},
	{"self.model_s", "s", "lower"},
	{"self.sim_s", "s", "lower"},
	{"self.rng_s", "s", "lower"},
	{"self.experiments_s", "s", "lower"},
	{"self.statespace_s", "s", "lower"},
	{"self.oracle_s", "s", "lower"},
	{"self.serve_s", "s", "lower"},
	{"self.loadgen_s", "s", "lower"},
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 30

func benchmarkJSON() ([]byte, error) {
	b, err := json.MarshalIndent(catalogue{
		Command:    []string{"bash", "_perfbench/run.sh"},
		Paths:      []string{"_perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadCatalogue,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
