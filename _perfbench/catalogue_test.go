package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("BENCHMARK.json is stale; regenerate it from the repository root with `(cd _perfbench && go run . -catalogue) > BENCHMARK.json`")
	}
}

// TestCatalogueWithinContract checks BENCHMARK.json's limits: names,
// units, one-line reasons, bounds, and a set-up metric with the largest
// bound.
func TestCatalogueWithinContract(t *testing.T) {
	b, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(b) > 64<<10 {
		t.Fatalf("BENCHMARK.json has %d keys and %d bytes", len(keys), len(b))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if n := len(workloadCatalogue); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadCatalogue {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of contract", m)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist with the largest bound (%g < %g)", setupBound, maxBound)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of contract", m)
		}
	}
}
