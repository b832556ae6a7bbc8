package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

func runOne(t *testing.T, id string) []*Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables, err := e.Run(quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table %q", id, tb.Name)
		}
		out := tb.Format()
		if !strings.Contains(out, tb.Name) {
			t.Fatalf("%s: Format missing name", id)
		}
	}
	return tables
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[row][col], "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table3", "table4", "text-homog", "ablations", "discovery", "topologies",
		"convergence", "harvesting", "churn", "faults", "scale"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestTable2(t *testing.T) {
	tables := runOne(t, "table2")
	het := tables[0]
	// Awake fractions must match the paper closely (they equal rho/L).
	wantAwake := []float64{0.5, 1.0, 5.0, 10.0}
	for i, want := range wantAwake {
		got := cell(t, het, i, 2)
		if got < want*0.8 || got > want*1.05 {
			t.Errorf("node %d awake %.2f%%, paper %.1f%%", i+1, got, want)
		}
	}
	// Transmit-when-awake must increase with the budget (the paper's key
	// qualitative point).
	prev := -1.0
	for i := range wantAwake {
		got := cell(t, het, i, 4)
		if got <= prev {
			t.Errorf("tx-when-awake not increasing at node %d: %v after %v", i+1, got, prev)
		}
		prev = got
	}
	// Homogeneous variant: 25% transmit when awake.
	hom := tables[1]
	if got := cell(t, hom, 1, 1); got < 20 || got > 30 {
		t.Errorf("homogeneous tx-when-awake %.1f%%, want ~25%%", got)
	}
}

func TestFig2Shape(t *testing.T) {
	tables := runOne(t, "fig2")
	for _, tb := range tables {
		for r := range tb.Rows {
			// Ratios must increase as sigma decreases: col1 (0.1) > col3
			// (0.25) > col5 (0.5); all within (0, 1].
			v01, v025, v05 := cell(t, tb, r, 1), cell(t, tb, r, 3), cell(t, tb, r, 5)
			if !(v01 > v025 && v025 > v05) {
				t.Errorf("%s row %d: ratios not ordered: %v %v %v", tb.Name, r, v01, v025, v05)
			}
			for _, v := range []float64{v01, v025, v05} {
				if v <= 0 || v > 1.001 {
					t.Errorf("%s row %d: ratio %v out of range", tb.Name, r, v)
				}
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tables := runOne(t, "fig3")
	tg := tables[0]
	// Find the X/L = 1 row.
	var unity int = -1
	for i, row := range tg.Rows {
		if row[0] == "1" {
			unity = i
		}
	}
	if unity < 0 {
		t.Fatal("no X/L=1 row")
	}
	econ025 := cell(t, tg, unity, 2)
	panda := cell(t, tg, unity, 4)
	bday := cell(t, tg, unity, 5)
	sl := cell(t, tg, unity, 6)
	if econ025/panda < 5 {
		t.Errorf("EconCast(0.25)/Panda = %.1f, expected >> 1", econ025/panda)
	}
	for _, base := range []float64{panda, bday, sl} {
		if base <= 0 || base >= econ025 {
			t.Errorf("baseline ratio %v not below EconCast %v", base, econ025)
		}
	}
	// EconCast's ratio peaks near X/L = 1 relative to the extremes.
	first := cell(t, tg, 0, 2)
	last := cell(t, tg, len(tg.Rows)-1, 2)
	if !(econ025 > first && econ025 > last) {
		t.Errorf("ratio at X/L=1 (%v) not above extremes (%v, %v)", econ025, first, last)
	}
}

func TestFig4Shape(t *testing.T) {
	tables := runOne(t, "fig4")
	tg := tables[0]
	// Analytic N=10 burst at sigma=0.25 should be around the paper's ~85.
	var v025 float64
	for r := range tg.Rows {
		if tg.Rows[r][0] == "0.25" {
			v025 = cell(t, tg, r, 2)
		}
	}
	if v025 < 20 || v025 > 500 {
		t.Errorf("N=10 sigma=0.25 analytic burst %v, paper ~85", v025)
	}
	// Anyput burst at sigma=0.25 is e^4 ~ 54.6 regardless of N.
	ta := tables[1]
	for r := range ta.Rows {
		if ta.Rows[r][0] == "0.25" {
			if v := cell(t, ta, r, 1); v < 54 || v > 55 {
				t.Errorf("anyput burst %v, want e^4", v)
			}
			if n5, n10 := cell(t, ta, r, 2), cell(t, ta, r, 3); n5 != n10 {
				t.Errorf("anyput burst depends on N: %v vs %v", n5, n10)
			}
		}
	}
}

func TestFig5Runs(t *testing.T) {
	tables := runOne(t, "fig5")
	tg := tables[0]
	if !strings.Contains(tg.Notes, "125") {
		t.Errorf("Searchlight note missing 125 s anchor: %q", tg.Notes)
	}
	for r := range tg.Rows {
		if samples := cell(t, tg, r, 4); samples <= 0 {
			t.Errorf("row %d: no latency samples", r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tables := runOne(t, "fig6")
	tb := tables[0]
	for r := range tb.Rows {
		lower := cell(t, tb, r, 1)
		upper := cell(t, tb, r, 2)
		if upper < lower-1e-9 {
			t.Errorf("row %d: upper %v < lower %v", r, upper, lower)
		}
		sim025 := cell(t, tb, r, 3)
		if sim025 <= 0 || sim025 > upper {
			t.Errorf("row %d: sim %v outside (0, %v]", r, sim025, upper)
		}
	}
}

func TestFig7AndTables(t *testing.T) {
	tables := runOne(t, "fig7")
	tb := tables[0]
	for r := range tb.Rows {
		ideal := cell(t, tb, r, 3)
		relaxed := cell(t, tb, r, 4)
		if ideal <= 5 || ideal > 110 {
			t.Errorf("row %d: Ideal %v%% implausible", r, ideal)
		}
		// Relaxed divides by T^sigma at the (higher) actual consumption, so
		// it cannot exceed Ideal under our convention.
		if relaxed > ideal+1e-9 {
			t.Errorf("row %d: Relaxed %v%% above Ideal %v%%", r, relaxed, ideal)
		}
		mean := cell(t, tb, r, 5)
		if mean < 0.9 || mean > 1.3 {
			t.Errorf("row %d: power/rho %v implausible", r, mean)
		}
	}

	t3 := runOne(t, "table3")[0]
	for r := range t3.Rows {
		improvement := cell(t, t3, r, 3)
		if improvement < 1 {
			t.Errorf("Table III row %d: EconCast did not beat Panda (%vx)", r, improvement)
		}
	}

	t4 := runOne(t, "table4")[0]
	// rho=1mW row: zero pings dominate; rho=5mW row: fewer zeros.
	z1 := cell(t, t4, 0, 1)
	z5 := cell(t, t4, 1, 1)
	if z1 < 50 {
		t.Errorf("rho=1mW zero-ping fraction %v%%, paper 89%%", z1)
	}
	if z5 >= z1 {
		t.Errorf("zero-ping fraction did not drop with budget: %v vs %v", z5, z1)
	}
}

func TestClaims(t *testing.T) {
	tables := runOne(t, "text-homog")
	cf := tables[0]
	// Closed form == LP.
	if cell(t, cf, 0, 1) != cell(t, cf, 0, 2) {
		t.Errorf("groupput closed form %v != LP %v", cf.Rows[0][1], cf.Rows[0][2])
	}
	claim := tables[1]
	// Improvements should be in the neighborhood of the paper's 6x / 17x.
	imp05 := cell(t, claim, 0, 3)
	imp025 := cell(t, claim, 1, 3)
	if imp05 < 3 || imp05 > 12 {
		t.Errorf("sigma=0.5 improvement %vx, paper 6x", imp05)
	}
	if imp025 < 9 || imp025 > 30 {
		t.Errorf("sigma=0.25 improvement %vx, paper 17x", imp025)
	}
	if imp025 <= imp05 {
		t.Errorf("improvement ordering wrong: %v <= %v", imp025, imp05)
	}
}

func TestAblations(t *testing.T) {
	tables := runOne(t, "ablations")
	if len(tables) != 4 {
		t.Fatalf("%d ablation tables", len(tables))
	}
	// Ping noise: throughput decreases (weakly) as loss grows.
	noise := tables[0]
	clean := cell(t, noise, 0, 1)
	worst := cell(t, noise, len(noise.Rows)-1, 1)
	if worst > clean*1.15 {
		t.Errorf("throughput grew under ping loss: %v -> %v", clean, worst)
	}
	// C vs NC: same-order throughput, NC hold length exactly 1.
	cvn := tables[2]
	gC := cell(t, cvn, 0, 1)
	gNC := cell(t, cvn, 1, 1)
	if gNC < gC*0.7 || gNC > gC*1.3 {
		t.Errorf("C vs NC throughput differ too much: %v vs %v", gC, gNC)
	}
	if hold := cell(t, cvn, 1, 2); hold != 1 {
		t.Errorf("NC hold length %v, want 1", hold)
	}
	if holdC := cell(t, cvn, 0, 2); holdC <= 2 {
		t.Errorf("C hold length %v, want > 2", holdC)
	}
	// Storage: throughput non-decreasing in store size (allow noise).
	store := tables[3]
	small := cell(t, store, 0, 1)
	large := cell(t, store, len(store.Rows)-1, 1)
	if large < small*0.8 {
		t.Errorf("throughput fell with more storage: %v -> %v", small, large)
	}
}

func TestDiscoveryExperiment(t *testing.T) {
	tables := runOne(t, "discovery")
	disc := tables[0]
	for r := range disc.Rows {
		if mean := cell(t, disc, r, 2); mean <= 0 {
			t.Errorf("row %d: mean pairwise %v", r, mean)
		}
	}
	goss := tables[1]
	for r := range goss.Rows {
		if half := cell(t, goss, r, 3); half < 0 {
			t.Errorf("row %d: half-spread %v", r, half)
		}
	}
}

func TestTopologiesExperiment(t *testing.T) {
	tb := runOne(t, "topologies")[0]
	for r := range tb.Rows {
		lower := cell(t, tb, r, 1)
		exact := cell(t, tb, r, 2)
		upper := cell(t, tb, r, 3)
		if !(lower-1e-9 <= exact && exact <= upper+1e-9) {
			t.Errorf("%s: exact %v outside [%v, %v]", tb.Rows[r][0], exact, lower, upper)
		}
		if sim := cell(t, tb, r, 4); sim <= 0 || sim > exact+1e-9 {
			t.Errorf("%s: sim %v outside (0, exact]", tb.Rows[r][0], sim)
		}
	}
}

func TestScaleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-node sims in -short mode")
	}
	if raceEnabled {
		t.Skip("multi-thousand-node sims under -race (the CI large-N smoke step covers the engine at scale under race)")
	}
	tb := runOne(t, "scale")[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("%d scale rows in quick mode, want 4", len(tb.Rows))
	}
	for r := range tb.Rows {
		if events := cell(t, tb, r, 2); events <= 0 {
			t.Errorf("row %d: no events dispatched", r)
		}
		// Aggregate groupput: spatial reuse lets concurrent deliveries sum
		// far past 1, but it cannot exceed one delivery per node-second.
		if g, n := cell(t, tb, r, 4), cell(t, tb, r, 1); g <= 0 || g > n {
			t.Errorf("row %d: aggregate groupput %v outside (0, N=%v]", r, g, n)
		}
	}
	// Event counts must grow with N within each family (rows are ordered
	// small-to-large per family and horizons shrink only 10x while N grows
	// 10x at matched density).
	if e1, e2 := cell(t, tb, 0, 2), cell(t, tb, 1, 2); e2 <= e1 {
		t.Errorf("grid events did not grow with N: %v -> %v", e1, e2)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Head: []string{"a", "b"},
		Rows: [][]string{{"1", "x,y"}, {"2", `quote"inside`}},
	}
	got := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"quote\"\"inside\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestConvergenceExperiment(t *testing.T) {
	tb := runOne(t, "convergence")[0]
	for r := range tb.Rows {
		g := cell(t, tb, r, 3)
		if g <= 0 {
			t.Errorf("row %d: groupput %v", r, g)
		}
	}
}

func TestHarvestingExperiment(t *testing.T) {
	tb := runOne(t, "harvesting")[0]
	// Slow deep swings approach the Jensen average of the endpoint
	// throughputs, which exceeds the constant-budget value because
	// T^sigma is convex in rho.
	deepSim := cell(t, tb, len(tb.Rows)-1, 1)
	deepJensen := cell(t, tb, len(tb.Rows)-1, 3)
	if deepSim < 0.5*deepJensen || deepSim > 1.3*deepJensen {
		t.Errorf("deep-swing sim %v vs Jensen prediction %v", deepSim, deepJensen)
	}
	constSim := cell(t, tb, 0, 1)
	if deepSim <= constSim {
		t.Errorf("slow deep swing (%v) should beat constant (%v) at fixed sigma", deepSim, constSim)
	}
	for r := range tb.Rows {
		if p := cell(t, tb, r, 4); p < 8 || p > 12 {
			t.Errorf("row %d: mean power %v uW, want ~10", r, p)
		}
	}
}

func TestChurnExperiment(t *testing.T) {
	tb := runOne(t, "churn")[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("%d epochs", len(tb.Rows))
	}
	before := cell(t, tb, 0, 3)
	absent := cell(t, tb, 1, 3)
	after := cell(t, tb, 2, 3)
	if absent >= before {
		t.Errorf("absent epoch %v not below before %v", absent, before)
	}
	if after <= absent {
		t.Errorf("after epoch %v did not recover above absent %v", after, absent)
	}
}

func TestFaultsExperiment(t *testing.T) {
	tables := runOne(t, "faults")
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2", len(tables))
	}
	sweepTb, killTb := tables[0], tables[1]
	clean := cell(t, sweepTb, 0, 1)
	if clean <= 0 {
		t.Fatalf("clean groupput %v", clean)
	}
	for r := 1; r < len(sweepTb.Rows); r++ {
		g := cell(t, sweepTb, r, 1)
		if g <= 0 {
			t.Errorf("scenario %q delivered nothing", sweepTb.Rows[r][0])
		}
		if ratio := cell(t, sweepTb, r, 2); ratio > 1.15 {
			t.Errorf("scenario %q beat the clean run by %vx", sweepTb.Rows[r][0], ratio)
		}
	}
	// Loss p=0.3 must degrade below p=0.1.
	if p1, p3 := cell(t, sweepTb, 1, 1), cell(t, sweepTb, 2, 1); p3 >= p1 {
		t.Errorf("30%% loss groupput %v not below 10%% loss %v", p3, p1)
	}
	if len(killTb.Rows) != 2 {
		t.Fatalf("%d kill-half epochs", len(killTb.Rows))
	}
	before := cell(t, killTb, 0, 3)
	after := cell(t, killTb, 1, 3)
	if before <= 0 || after <= 0 {
		t.Fatalf("kill-half epochs before=%v after=%v", before, after)
	}
	if after >= before {
		t.Errorf("4 survivors (%v) should deliver less than the full clique (%v)", after, before)
	}
}

// Figure tables must carry renderable charts.
func TestFigureChartsRender(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig6"} {
		tables := runOne(t, id)
		found := false
		for _, tb := range tables {
			if tb.Chart == nil {
				continue
			}
			found = true
			svg, err := tb.Chart.SVG()
			if err != nil {
				t.Errorf("%s: chart render: %v", id, err)
				continue
			}
			if !strings.Contains(svg, "</svg>") {
				t.Errorf("%s: truncated SVG", id)
			}
		}
		if !found {
			t.Errorf("%s: no chart attached", id)
		}
	}
}
