package sim

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"econcast/internal/econcast"
	"econcast/internal/model"
	"econcast/internal/rng"
	"econcast/internal/sweep"
	"econcast/internal/topology"
)

// TestLargeNSmoke drives the window-parallel engine over a 100k-node
// grid on a truncated horizon, fanning two replicate cells through the
// sweep so the race detector has concurrent engines to watch. The cells
// force Parallel: 4 (auto would pick the serial coordinator), so with
// GOMAXPROCS above 1 (the CI smoke sets 4) the window workers run
// concurrently and the barrier protocol is raced at real scale. The
// first cell is re-run through the forced-serial single-queue path and
// compared for deep equality — the multi-core smoke double-checks the
// byte-identity contract at scale. At this N it is far too heavy for
// the ordinary `go test ./...` pass, so it only runs when CI asks for
// it via ECONCAST_LARGE_N_SMOKE=1.
func TestLargeNSmoke(t *testing.T) {
	if os.Getenv("ECONCAST_LARGE_N_SMOKE") == "" {
		t.Skip("set ECONCAST_LARGE_N_SMOKE=1 to run the 100k-node smoke test")
	}
	topo := topology.Grid(316, 316)
	n := 316 * 316
	cell := func(rep uint64) Config {
		return Config{
			Network:  model.Homogeneous(n, 60*model.MicroWatt, 500*model.MicroWatt, 500*model.MicroWatt),
			Topology: topo,
			Protocol: Protocol{Mode: model.Groupput, Variant: econcast.Capture, Sigma: 0.5, Delta: 0.1},
			Duration: 0.004,
			Warmup:   0.001,
			Seed:     rng.DeriveSeed(11, 100000, rep),
			Parallel: 4,
		}
	}
	first := cell(1)
	t.Logf("parallel engine with %d workers requested (GOMAXPROCS %d)", first.parallelPlan(), runtime.GOMAXPROCS(0))
	reps := []uint64{1, 2}
	metrics, err := sweep.Map(2, reps, func(ri int, rep uint64) (*Metrics, error) {
		return Run(cell(rep))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metrics {
		if m.Events == 0 || m.PacketsSent == 0 {
			t.Errorf("cell %d: no activity on the 100k grid: %+v", i, m)
		}
		if m.Groupput <= 0 || m.Groupput > float64(n) {
			t.Errorf("cell %d: aggregate groupput %v outside (0, N]", i, m.Groupput)
		}
	}
	serial := cell(1)
	serial.Parallel, serial.Shards = 1, 1
	want, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metrics[0], want) {
		t.Errorf("100k cell 1 diverged from the single-queue engine:\n  want %+v\n  got  %+v", want, metrics[0])
	}
}
