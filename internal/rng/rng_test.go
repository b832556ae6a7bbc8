package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

// Seed resets a Source held by value to the stream New returns, whatever
// it held before.
func TestSeedMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		var s Source
		s.Seed(7)
		s.Uint64()
		s.Seed(seed)
		ref := New(seed)
		if s != *ref {
			t.Fatalf("seed %d: Seed state %v, New state %v", seed, s.s, ref.s)
		}
		for i := 0; i < 1000; i++ {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d: streams diverged at step %d: %d != %d", seed, i, a, b)
			}
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestZeroSeedNotAllZeroState(t *testing.T) {
	s := New(0)
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		t.Fatal("all-zero internal state")
	}
	// The generator must still produce varied output.
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct outputs from 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/7-1000 || c > n/7+1000 {
			t.Fatalf("Intn(7) value %d count %d, want ~%d", v, c, n/7)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(6)
	const n = 200000
	for _, rate := range []float64{0.5, 1, 4, 1000} {
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Exp(rate)
			if v < 0 {
				t.Fatalf("Exp(%v) negative: %v", rate, v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want) > 0.02*want {
			t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpInfiniteRate(t *testing.T) {
	if v := New(1).Exp(math.Inf(1)); v != 0 {
		t.Fatalf("Exp(+Inf) = %v, want 0", v)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestGeometricMean(t *testing.T) {
	s := New(8)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9, 1.0} {
		sum := 0
		for i := 0; i < n; i++ {
			v := s.Geometric(p)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", p, v)
			}
			sum += v
		}
		mean := float64(sum) / n
		want := 1 / p
		if math.Abs(mean-want) > 0.03*want+0.01 {
			t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(10)
	for n := 0; n <= 20; n++ {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", xs)
	}
}

// Property: Uniform(lo, hi) always lands in [lo, hi) for lo < hi.
func TestUniformRangeProperty(t *testing.T) {
	s := New(12)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) ||
			math.IsInf(hi-lo, 0) {
			return true // skip degenerate or overflowing inputs
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi || v == lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bernoulli(p) frequency tracks p.
func TestBernoulliFrequency(t *testing.T) {
	s := New(13)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		freq := float64(hits) / n
		if math.Abs(freq-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) frequency %v", p, freq)
		}
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not a pure function of its inputs")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Fatal("distinct bases collided")
	}
}

func TestDeriveSeedOrderAndArity(t *testing.T) {
	cases := [][]uint64{
		{},
		{0},
		{1},
		{2},
		{1, 2},
		{2, 1},
		{1, 2, 3},
		{3, 2, 1},
		{math.Float64bits(0.25)},
		{math.Float64bits(0.5)},
	}
	seen := map[uint64][]uint64{}
	for _, parts := range cases {
		s := DeriveSeed(42, parts...)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(42, %v) == DeriveSeed(42, %v) = %#x", parts, prev, s)
		}
		seen[s] = parts
	}
}

// TestDeriveSeedNoAdditiveCollisions pins the reason DeriveSeed exists:
// the old `base + uint64(sigma*1000)`-style arithmetic collides whenever
// two cells' offsets sum to the same value (e.g. (n=5, rep=1) and
// (n=4, rep=2) under base+n+rep). Mixed derivation keeps a dense grid of
// part tuples collision-free.
func TestDeriveSeedNoAdditiveCollisions(t *testing.T) {
	seen := map[uint64]bool{}
	count := 0
	for n := uint64(0); n < 30; n++ {
		for rep := uint64(0); rep < 30; rep++ {
			for k := uint64(0); k < 4; k++ {
				s := DeriveSeed(7, n, rep, k)
				if seen[s] {
					t.Fatalf("collision at (n=%d, rep=%d, k=%d)", n, rep, k)
				}
				seen[s] = true
				count++
			}
		}
	}
	if len(seen) != count {
		t.Fatalf("%d distinct seeds from %d tuples", len(seen), count)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Exp(3)
	}
	_ = sink
}
