// Spatial interference sharding: a Partition splits a topology's nodes
// into shards such that most interference is shard-local, so a sharded
// simulation engine can keep per-shard event queues and touch a
// neighboring shard only at the frontier.
//
// The partitioning rule follows the constructor's spatial structure:
// grids are tiled into rectangular blocks, random-geometric graphs into
// unit-square cells, rings into contiguous arcs; cliques (one
// interference domain by definition) stay a single shard, and custom
// topologies fall back to contiguous index ranges. The partition is a
// pure function of (topology, target) — worker counts and scheduling
// never influence it — so everything downstream stays deterministic.
package topology

import "math"

// Partition assigns every node of a topology to one of Shards() spatial
// interference shards.
type Partition struct {
	topo    *Topology
	shards  int
	shardOf []int32 // node -> shard
}

// NewPartition partitions t into at least 1 and at most target shards
// (and never more than one shard per node): the sharded engine sizes
// per-shard runtimes from the result, so the request is a ceiling, not
// a hint. Cliques are always a single shard: every node interferes with
// every other, so there is no spatial structure to exploit. The result
// depends only on (t, target).
func NewPartition(t *Topology, target int) *Partition {
	n := t.N()
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	if target > 1 && t.IsClique() {
		target = 1
	}
	p := &Partition{topo: t, shardOf: make([]int32, n)}
	p.assign(target)
	p.compact()
	return p
}

// assign writes raw (possibly sparse) shard ids into shardOf according to
// the topology's layout.
func (p *Partition) assign(target int) {
	t := p.topo
	n := t.N()
	if target == 1 {
		return // all zeros
	}
	switch t.layout {
	case layoutGrid:
		// Tile the rows x cols grid into br x bc blocks with br*bc <=
		// target, keeping blocks roughly square so frontiers stay short.
		// br is capped by target before bc divides it, so a very tall
		// thin grid cannot push br (and with it br*bc) past the ceiling.
		br := int(math.Round(math.Sqrt(float64(target) * float64(t.rows) / float64(t.cols))))
		br = clamp(br, 1, min(t.rows, target))
		bc := clamp(target/br, 1, t.cols)
		for i := 0; i < n; i++ {
			r, c := i/t.cols, i%t.cols
			p.shardOf[i] = int32((r*br/t.rows)*bc + c*bc/t.cols)
		}
	case layoutSpatial:
		// Tile the unit square into ky x kx cells with ky*kx <= target
		// (ky = floor(sqrt(target)) rows, kx = target/ky columns, so a
		// non-square target like 3 tiles into 1x3 strips instead of
		// rounding up to a 2x2 overshoot); empty cells are compacted
		// away afterwards.
		ky := clamp(int(math.Sqrt(float64(target))), 1, target)
		kx := target / ky
		cellOf := func(v float64, k int) int {
			c := int(v * float64(k))
			return clamp(c, 0, k-1)
		}
		for i := 0; i < n; i++ {
			p.shardOf[i] = int32(cellOf(t.py[i], ky)*kx + cellOf(t.px[i], kx))
		}
	default:
		// Rings and arbitrary topologies: contiguous index ranges (for a
		// ring these are exactly the contiguous arcs of the cycle).
		for i := 0; i < n; i++ {
			p.shardOf[i] = int32(i * target / n)
		}
	}
}

// compact renumbers raw shard ids densely in ascending raw order and
// drops empty shards.
func (p *Partition) compact() {
	maxRaw := int32(0)
	for _, s := range p.shardOf {
		if s > maxRaw {
			maxRaw = s
		}
	}
	remap := make([]int32, maxRaw+1)
	for i := range remap {
		remap[i] = -1
	}
	for _, s := range p.shardOf {
		remap[s] = 0
	}
	next := int32(0)
	for raw, seen := range remap {
		if seen == 0 {
			remap[raw] = next
			next++
		}
	}
	p.shards = int(next)
	for i, s := range p.shardOf {
		p.shardOf[i] = remap[s]
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// N returns the number of nodes partitioned.
func (p *Partition) N() int { return p.topo.N() }

// Shards returns the number of (non-empty) shards.
func (p *Partition) Shards() int { return p.shards }

// ShardOf returns the shard owning node i.
func (p *Partition) ShardOf(i int) int { return int(p.shardOf[i]) }
