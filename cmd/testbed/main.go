// Command testbed runs the emulated §VIII hardware experiment (TI
// eZ430-RF2500-SEH nodes running EconCast-C) and prints the Fig. 7 /
// Table III / Table IV quantities for one configuration.
//
// Example:
//
//	testbed -n 5 -rho 1e-3 -sigma 0.25 -duration 20000
package main

import (
	"flag"
	"fmt"
	"os"

	"econcast"
)

func main() {
	var (
		n        = flag.Int("n", 5, "number of nodes")
		rho      = flag.Float64("rho", 1e-3, "power budget (W); the paper uses 1e-3 and 5e-3")
		sigma    = flag.Float64("sigma", 0.25, "temperature")
		duration = flag.Float64("duration", 20000, "emulated seconds")
		warmup   = flag.Float64("warmup", 4000, "seconds discarded before measuring")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	res, err := econcast.SimulateTestbed(econcast.TestbedConfig{
		N: *n, Budget: *rho, Sigma: *sigma,
		Duration: *duration, Warmup: *warmup, Seed: *seed,
	})
	fatal(err)

	// Analytical references at the target budget ("Ideal") and at the mean
	// actual consumption ("Relaxed").
	node := econcast.Node{
		Budget:        *rho,
		ListenPower:   67.08 * econcast.MilliWatt,
		TransmitPower: 56.29 * econcast.MilliWatt,
	}
	nw := make(econcast.Network, *n)
	for i := range nw {
		nw[i] = node
	}
	ideal, err := econcast.Achievable(nw, *sigma, econcast.Groupput)
	fatal(err)
	meanP := 0.0
	for _, p := range res.Power {
		meanP += p
	}
	meanP /= float64(len(res.Power))
	relaxedNode := node
	relaxedNode.Budget = meanP
	nwRelaxed := make(econcast.Network, *n)
	for i := range nwRelaxed {
		nwRelaxed[i] = relaxedNode
	}
	relaxed, err := econcast.Achievable(nwRelaxed, *sigma, econcast.Groupput)
	fatal(err)

	fmt.Printf("emulated %v s, N=%d, rho=%.3g W, sigma=%.2f\n", *duration, *n, *rho, *sigma)
	fmt.Printf("experimental groupput  %.6f over %d packets\n", res.Groupput, res.PacketsSent)
	fmt.Printf("Ideal ratio   T~/T^sigma(rho) = %.1f%%   (paper band 57-77%%)\n",
		100*res.Groupput/ideal.Throughput)
	fmt.Printf("Relaxed ratio T~/T^sigma(P)   = %.1f%%   (paper band 67-81%%)\n",
		100*res.Groupput/relaxed.Throughput)
	fmt.Printf("mean actual power %.4g W (%.1f%% of budget)\n", meanP, 100*meanP/(*rho))
	fmt.Printf("ping-count distribution (Table IV):")
	for k, f := range res.PingHistogram {
		fmt.Printf("  %d:%.1f%%", k, 100*f)
	}
	fmt.Println()
}

// fatal exits on err. Every error reaching it already names the package
// it came from ("testbed: ...", "statespace: ..."), so it is printed as
// is.
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
