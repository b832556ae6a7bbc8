// Package conform is the simulator's law-conformance harness. It holds
// no production code: its test runs a fixed catalogue of small
// configurations over K independent seeds and compares the distribution
// of the engine's outputs (throughputs, burst and latency distributions,
// state occupancy) against per-seed summaries that the same harness
// recorded from an earlier engine, under testdata/. A change to the
// engine that alters sample paths but not the law of the process passes;
// one that alters the law (a biased rate, say) fails.
//
// Run it with
//
//	go test -count=1 -v ./internal/sim/conform/
//
// and regenerate the reference on the engine that should serve as the
// baseline with
//
//	go test -count=1 ./internal/sim/conform/ -update -commit <hash>
//
// It lives in its own package so that internal/sim's test binary, and
// its -race run, do not grow by the harness's cost.
package conform
