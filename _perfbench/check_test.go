package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"econcast/internal/experiments"
	"econcast/internal/oracle"
	"econcast/internal/rng"
	"econcast/internal/serve"
)

func TestCheckAnswerAcceptsOracleAnswer(t *testing.T) {
	req := missRequest(rng.New(1))
	sol, err := oracle.GroupputCtx(context.Background(), network(req.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	resp := &serve.Response{
		Result:     serve.Result{Throughput: sol.Throughput, Alpha: sol.Alpha, Beta: sol.Beta},
		Provenance: serve.ProvExact,
	}
	if err := checkAnswer(req, resp); err != nil {
		t.Fatalf("oracle's own answer rejected: %v", err)
	}
}

func TestCheckAnswerRejectsInfeasibleAnswers(t *testing.T) {
	// Two nodes, 10 uW budget, 500 uW to listen or transmit: a node can
	// be awake at most 2% of the time.
	nodes := []serve.NodeSpec{{Budget: 10e-6, Listen: 500e-6, Transmit: 500e-6}, {Budget: 10e-6, Listen: 500e-6, Transmit: 500e-6}}
	clique := &serve.Request{Objective: serve.ObjGroupput, Nodes: nodes}
	bounds := &serve.Request{Objective: serve.ObjBounds, Nodes: nodes, Topology: &serve.TopoSpec{Kind: "ring"}}
	ok := serve.Result{Throughput: 0.02, Alpha: []float64{0.01, 0.01}, Beta: []float64{0.01, 0.01}}
	if err := checkAnswer(clique, &serve.Response{Result: ok, Provenance: serve.ProvExact}); err != nil {
		t.Fatalf("feasible answer rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		req  *serve.Request
		resp serve.Response
		want string
	}{
		{"over power budget", clique, serve.Response{Result: serve.Result{Alpha: []float64{0.03, 0.01}, Beta: []float64{0, 0.01}}}, "over budget"},
		{"negative fraction", clique, serve.Response{Result: serve.Result{Alpha: []float64{-0.01, 0.01}, Beta: []float64{0.01, 0.01}}}, "negative"},
		{"wrong length", clique, serve.Response{Result: serve.Result{Alpha: []float64{0.01}, Beta: []float64{0.01}}}, "fractions"},
		{"degraded", clique, serve.Response{Result: ok, Provenance: serve.ProvDegraded}, "degraded"},
		{"no upper bound", bounds, serve.Response{Result: ok}, "without an upper"},
		{"lower above upper", bounds, serve.Response{Result: ok, Upper: &serve.Result{Throughput: 0.01, Alpha: ok.Alpha, Beta: ok.Beta}}, "above upper"},
	} {
		if err := checkAnswer(tc.req, &tc.resp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// Time and single-transmitter budgets need budgets large enough not
	// to bind first.
	rich := []serve.NodeSpec{{Budget: 1, Listen: 1e-3, Transmit: 1e-3}, {Budget: 1, Listen: 1e-3, Transmit: 1e-3}}
	if err := feasible(rich, &serve.Result{Alpha: []float64{0.6, 0}, Beta: []float64{0.6, 0}}, true); err == nil || !strings.Contains(err.Error(), "alpha+beta") {
		t.Errorf("alpha+beta > 1 not rejected: %v", err)
	}
	if err := feasible(rich, &serve.Result{Alpha: []float64{0, 0}, Beta: []float64{0.6, 0.6}}, true); err == nil || !strings.Contains(err.Error(), "sum of beta") {
		t.Errorf("sum of beta > 1 not rejected: %v", err)
	}
	if err := feasible(rich, &serve.Result{Alpha: []float64{0, 0}, Beta: []float64{0.6, 0.6}}, false); err != nil {
		t.Errorf("upper bound may exceed the single-transmitter constraint: %v", err)
	}
}

func TestCheckOracledRequiresCachedEqualsExact(t *testing.T) {
	req := missRequest(rng.New(2))
	sol, err := oracle.GroupputCtx(context.Background(), network(req.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	exact := &serve.Response{Result: serve.Result{Throughput: sol.Throughput, Alpha: sol.Alpha, Beta: sol.Beta}, Provenance: serve.ProvExact}
	cached := &serve.Response{Result: serve.Result{Throughput: sol.Throughput, Alpha: append([]float64(nil), sol.Alpha...), Beta: sol.Beta}, Provenance: serve.ProvCached}
	all := []mixReq{{classHit, req}, {classHit, req}}
	if fails := checkOracled(all, []*serve.Response{exact, cached}, make([]error, 2)); len(fails) != 0 {
		t.Fatalf("bitwise-equal cached answer rejected: %v", fails)
	}
	cached.Throughput = math.Nextafter(cached.Throughput, 0) // still feasible, no longer bitwise equal
	if fails := checkOracled(all, []*serve.Response{exact, cached}, make([]error, 2)); len(fails) != 1 {
		t.Fatalf("cached answer differing from its exact fill accepted: %v", fails)
	}
	if fails := checkOracled(all[1:], []*serve.Response{cached}, make([]error, 1)); len(fails) != 1 {
		t.Fatalf("cached answer without an exact fill accepted: %v", fails)
	}
}

func TestCheckRatios(t *testing.T) {
	fig2 := []*experiments.Table{{Name: "fig2", Rows: [][]string{{"10", "0.950", "0.010", "1.000", "0.000"}}}}
	if err := checkRatios("fig2", fig2); err != nil {
		t.Fatalf("ratios within 1 rejected: %v", err)
	}
	fig2[0].Rows = append(fig2[0].Rows, []string{"50", "1.020", "0.010"})
	if err := checkRatios("fig2", fig2); err == nil {
		t.Fatal("fig2 ratio above 1 accepted")
	}
	fig6 := []*experiments.Table{{Name: "fig6", Rows: [][]string{{"9", "0.0800", "0.1000", "0.0500", "0.0600", "0.0700", "0.625"}}}}
	if err := checkRatios("fig6", fig6); err != nil {
		t.Fatalf("simulation below the upper bound rejected: %v", err)
	}
	fig6[0].Rows[0][4] = "0.1200"
	if err := checkRatios("fig6", fig6); err == nil {
		t.Fatal("simulation above the upper bound accepted")
	}
}
