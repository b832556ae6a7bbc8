package statespace

import (
	"fmt"
	"testing"

	"econcast/internal/model"
)

// State-space benchmarks for the perf trajectory (BENCH_PR4.json): the
// Gibbs hot loop (allocation-free in steady state thanks to the Dist pool
// and the Enumerate-time caches), the exact dual solve, and the aggregated
// solve and evaluation at T = 1.

func BenchmarkGibbs(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		sp, err := Enumerate(homogNetwork(n))
		if err != nil {
			b.Fatal(err)
		}
		eta := uniform(0.7, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := sp.Gibbs(eta, 0.5, model.Groupput)
				d.Release()
			}
		})
	}
}

func BenchmarkSolveP4Exact(b *testing.B) {
	nw := homogNetwork(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveP4(nw, 0.25, model.Groupput, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveP4Typed(b *testing.B) {
	node := model.Node{Budget: 0.4, ListenPower: 0.8, TransmitPower: 1.0}
	for _, n := range []int{10, 50, 500} {
		b.Run(fmt.Sprintf("T=1/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveP4Typed([]int{n}, []model.Node{node}, 0.25, model.Groupput, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTypedEval(b *testing.B) {
	node := model.Node{Budget: 0.4, ListenPower: 0.8, TransmitPower: 1.0}
	ev := newTypedEval([]int{500}, []model.Node{node}, 0.5, model.Groupput)
	eta := []float64{1.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.eval(eta)
	}
}
