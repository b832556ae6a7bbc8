package topology

import (
	"fmt"
	"reflect"
	"testing"

	"econcast/internal/rng"
)

// checkPartitionInvariants verifies the structural contract every
// partition must satisfy: every node sits in a shard in [0, Shards()),
// and no shard is empty after compaction.
func checkPartitionInvariants(t *testing.T, topo *Topology, p *Partition) {
	t.Helper()
	size := make([]int, p.Shards())
	for i := 0; i < topo.N(); i++ {
		s := p.ShardOf(i)
		if s < 0 || s >= p.Shards() {
			t.Fatalf("node %d in shard %d, want [0, %d)", i, s, p.Shards())
		}
		size[s]++
	}
	for s, k := range size {
		if k == 0 {
			t.Fatalf("shard %d is empty after compaction", s)
		}
	}
}

// span returns how many distinct shards node i's closed neighborhood
// {i} ∪ N(i) touches: 1 for a node whose events stay shard-local.
func span(topo *Topology, p *Partition, i int) int {
	seen := map[int]bool{p.ShardOf(i): true}
	for _, j := range topo.Neighbors(i) {
		seen[p.ShardOf(j)] = true
	}
	return len(seen)
}

func TestPartitionFamilies(t *testing.T) {
	cases := []struct {
		name   string
		topo   *Topology
		target int
	}{
		{"grid-4", Grid(6, 6), 4},
		{"grid-9", Grid(9, 7), 9},
		{"grid-1node-shards", Grid(4, 4), 16},
		{"ring-arcs", Ring(17), 5},
		{"ring-all-singleton", Ring(9), 9},
		{"rgg", RandomGeometric(60, 0.25, rng.New(3)), 8},
		{"star-fallback", Star(12), 3},
		{"line-fallback", Line(11), 4},
		{"custom-fallback", func() *Topology { c := New(10); c.AddEdge(0, 9); c.AddEdge(3, 4); return c }(), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPartition(tc.topo, tc.target)
			if p.N() != tc.topo.N() {
				t.Fatalf("N = %d, want %d", p.N(), tc.topo.N())
			}
			if p.Shards() < 1 || p.Shards() > tc.topo.N() {
				t.Fatalf("shard count %d out of range", p.Shards())
			}
			checkPartitionInvariants(t, tc.topo, p)
		})
	}
}

func TestPartitionCliqueSingleShard(t *testing.T) {
	p := NewPartition(Clique(12), 6)
	if p.Shards() != 1 {
		t.Fatalf("clique partitioned into %d shards, want 1", p.Shards())
	}
	for i := 0; i < 12; i++ {
		if p.ShardOf(i) != 0 {
			t.Fatalf("clique node %d in shard %d, want 0", i, p.ShardOf(i))
		}
	}
}

// TestPartitionRingArcsContiguous pins the ring rule: shards are
// contiguous arcs, so every node's closed neighborhood spans at most
// three shards and singleton shards span exactly three.
func TestPartitionRingArcsContiguous(t *testing.T) {
	ring := Ring(12)
	p := NewPartition(ring, 4)
	for i := 1; i < ring.N(); i++ {
		// Arcs are contiguous index ranges in ascending shard order, so
		// walking the ring either stays in a shard or steps to the next.
		if d := p.ShardOf(i) - p.ShardOf(i-1); d != 0 && d != 1 {
			t.Fatalf("nodes %d and %d in shards %d and %d: not contiguous arcs",
				i-1, i, p.ShardOf(i-1), p.ShardOf(i))
		}
	}
	all := NewPartition(ring, 12)
	if all.Shards() != 12 {
		t.Fatalf("singleton partition has %d shards", all.Shards())
	}
	for i := 0; i < 12; i++ {
		if got := span(ring, all, i); got != 3 {
			t.Fatalf("singleton ring node %d spans %d shards, want 3", i, got)
		}
	}
}

// TestPartitionGridInteriorMajority checks the point of spatial tiling:
// at moderate shard sizes most nodes' closed neighborhoods stay inside
// their own shard.
func TestPartitionGridInteriorMajority(t *testing.T) {
	g := Grid(32, 32)
	p := NewPartition(g, 16) // 8x8 blocks
	interior := 0
	for i := 0; i < g.N(); i++ {
		if span(g, p, i) == 1 {
			interior++
		}
	}
	if frac := float64(interior) / float64(g.N()); frac < 0.5 {
		t.Fatalf("only %.0f%% of grid nodes interior, want a majority", 100*frac)
	}
}

// TestPartitionDeterministic pins that the partition is a pure function
// of (topology, target): two constructions agree exactly.
func TestPartitionDeterministic(t *testing.T) {
	a := NewPartition(Grid(10, 13), 7)
	b := NewPartition(Grid(10, 13), 7)
	if a.Shards() != b.Shards() || !reflect.DeepEqual(a.shardOf, b.shardOf) {
		t.Fatal("partition not deterministic")
	}
}

// TestPartitionAutoShardBoundary exercises the exact node counts around
// the sim engine's auto-shard threshold (autoShardMinN = 4096 nodes at
// about 1024 per shard): the shard targets the engine computes there —
// 4095/1024 = 3, 4096/1024 = 4, 4097/1024 = 4 — must partition rings,
// grids, and random-geometric graphs cleanly, including the
// non-divisible remainders either side of the power of two.
func TestPartitionAutoShardBoundary(t *testing.T) {
	dims := map[int][2]int{4095: {63, 65}, 4096: {64, 64}, 4097: {17, 241}}
	for _, n := range []int{4095, 4096, 4097} {
		target := n / 1024 // what sim's auto-selection would request
		d := dims[n]
		for _, tc := range []struct {
			name string
			topo *Topology
		}{
			{"ring", Ring(n)},
			{"grid", Grid(d[0], d[1])},
			{"rgg", RandomGeometric(n, 0.03, rng.New(uint64(n)))},
		} {
			t.Run(fmt.Sprintf("%s-%d", tc.name, n), func(t *testing.T) {
				p := NewPartition(tc.topo, target)
				if p.Shards() < 1 || p.Shards() > target {
					t.Fatalf("shards = %d, want 1..%d", p.Shards(), target)
				}
				checkPartitionInvariants(t, tc.topo, p)
			})
		}
	}
}

// TestPartitionDegenerateRGG collapses every point of a random-geometric
// topology onto a single coordinate — the corner (1, 1), which also
// exercises the cell clamp at the unit-square edge. Every node lands in
// the same spatial bucket, so whatever the target, compaction must
// leave exactly one full shard.
func TestPartitionDegenerateRGG(t *testing.T) {
	topo := RandomGeometric(40, 0.2, rng.New(11))
	for i := range topo.px {
		topo.px[i], topo.py[i] = 1.0, 1.0
	}
	p := NewPartition(topo, 8)
	if p.Shards() != 1 {
		t.Fatalf("one-bucket RGG partitioned into %d shards, want 1", p.Shards())
	}
	checkPartitionInvariants(t, topo, p)
}

// TestPartitionGridTilesExceedNodes asks for more tiles than the grid
// has nodes, on square, wide, single-row, and single-column shapes: the
// target clamps to one node per shard and the tiling must still cover
// every node exactly once, as singletons.
func TestPartitionGridTilesExceedNodes(t *testing.T) {
	for _, tc := range []struct{ rows, cols, target int }{
		{3, 3, 50},
		{2, 9, 1000},
		{1, 7, 20},
		{5, 1, 12},
	} {
		g := Grid(tc.rows, tc.cols)
		p := NewPartition(g, tc.target)
		if p.Shards() != g.N() {
			t.Fatalf("%dx%d target %d: shards = %d, want %d singletons",
				tc.rows, tc.cols, tc.target, p.Shards(), g.N())
		}
		checkPartitionInvariants(t, g, p)
	}
}

// TestPartitionTargetClamp pins the low end: non-positive targets mean
// one shard, and a clique stays one shard no matter the target.
func TestPartitionTargetClamp(t *testing.T) {
	for _, target := range []int{0, -3} {
		p := NewPartition(Grid(4, 4), target)
		if p.Shards() != 1 {
			t.Fatalf("target %d: shards = %d, want 1", target, p.Shards())
		}
	}
	if p := NewPartition(Ring(9), 100); p.Shards() != 9 {
		t.Fatalf("over-asked ring: shards = %d, want 9", p.Shards())
	}
}

// TestPartitionNeighborhoodSpansManyShards pins the 3+-shard frontier
// case the sharded engine's cross-shard pushes must cover: with 1x1
// grid blocks an interior grid node's closed neighborhood touches 5
// shards.
func TestPartitionNeighborhoodSpansManyShards(t *testing.T) {
	g := Grid(5, 5)
	p := NewPartition(g, 25)
	if p.Shards() != 25 {
		t.Fatalf("got %d shards, want 25", p.Shards())
	}
	center := 2*5 + 2
	if got := span(g, p, center); got != 5 {
		t.Fatalf("center node spans %d shards, want 5", got)
	}
}
