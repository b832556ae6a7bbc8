// Package sim is the shardflow fixture: a miniature sharded engine
// where each method violates exactly one rule of the detach/eager-fix
// discipline.
package sim

type event struct {
	node int
	at   float64
	seq  uint64
}

type eventQueue []event

func (q *eventQueue) push(ev event) { *q = append(*q, ev) }

func (q *eventQueue) pop() event {
	ev := (*q)[0]
	*q = (*q)[1:]
	return ev
}

// transKey and transHeap mirror the per-shard heap of pending
// transitions, at most one per node, keyed inline.
type transKey struct {
	at  float64
	seq uint64
}

type transHeap struct{ keys []transKey }

func (h *transHeap) set(node int, at float64, seq uint64) {
	_ = node
	h.keys = append(h.keys, transKey{at: at, seq: seq})
}

func (h *transHeap) remove(node int) (k transKey, ok bool) {
	_ = node
	if len(h.keys) == 0 {
		return transKey{}, false
	}
	return h.keys[0], true
}

type shardRuntime struct {
	id    int32
	queue eventQueue
	trans transHeap
	owner *coordinator
	cache []float64
}

type coordinator struct {
	order       []int32
	pos         []int32
	headAt      []float64
	headSeq     []uint64
	listeningTo []int32
	shards      []shardRuntime
	shardOf     []int32
	current     int32
	crossed     bool
	done        bool
	seq         uint64
	resid       []float64
}

func (c *coordinator) fix(s int32)  { _ = s }
func (c *coordinator) siftDown(int) {}

func (s *shardRuntime) run(c *coordinator, boundAt float64, boundSeq uint64) {
	_, _, _ = c, boundAt, boundSeq
}

// drainNoDetach drains a shard that is still attached to the heap: the
// eager fixes issued during the batch would repair positions against a
// heap whose root is stale.
func (c *coordinator) drainNoDetach(s int32) {
	c.shards[s].run(c, 0, 0) // want shardflow
	c.fix(s)
}

// drainDetachInBranch detaches only on one path; the drain is not
// dominated by the detach.
func (c *coordinator) drainDetachInBranch(s int32, big bool) {
	if big {
		c.pos[s] = -1
	}
	c.shards[s].run(c, 0, 0) // want shardflow
	c.fix(s)
}

// drainNoFix detaches correctly but never re-attaches: the shard stays
// out of the heap after the batch.
func (c *coordinator) drainNoFix(s int32) {
	c.pos[s] = -1
	c.shards[s].run(c, 0, 0) // want shardflow
}

// pushNoFix enqueues into an arbitrary shard without repairing its heap
// position on any path.
func (c *coordinator) pushNoFix(ev event) {
	s := c.shardOf[ev.node]
	c.shards[s].queue.push(ev) // want shardflow
}

// pushPartialFix repairs only when urgent; the other path leaves a
// stale position, and `urgent` proves nothing about the draining shard.
func (c *coordinator) pushPartialFix(ev event, urgent bool) {
	s := c.shardOf[ev.node]
	c.shards[s].queue.push(ev) // want shardflow
	if urgent {
		c.fix(s)
	}
}

// scheduleNoFix sets a node's transition into its shard's heap
// without repairing that shard's heap position.
func (c *coordinator) scheduleNoFix(node int, at float64) {
	s := c.shardOf[node]
	c.shards[s].trans.set(node, at, c.seq) // want shardflow
}

// cancelNoFix deletes a node's pending transition in place but leaves a
// foreign shard's heap position stale: a cancel can raise its head.
func (c *coordinator) cancelNoFix(node int) {
	s := c.shardOf[node]
	if _, ok := c.shards[s].trans.remove(node); ok { // want shardflow
		c.crossed = true
	}
}

// freezeEarlyReturn suspends a node's transition out of a possibly
// foreign shard's heap, but returns before the repair when nothing was
// pending. The rule asks for the repair on every path after the call,
// so it holds without reasoning about which paths left the heap alone.
func (c *coordinator) freezeEarlyReturn(node int, now float64) {
	s := c.shardOf[node]
	k, ok := c.shards[s].trans.remove(node) // want shardflow
	if !ok {
		return
	}
	c.resid[node] = k.at - now
	if s != c.current {
		c.fix(s)
	}
}

// freezeNoFix suspends a node's transition and never repairs the shard.
func (c *coordinator) freezeNoFix(node int, now float64) {
	s := c.shardOf[node]
	if k, ok := c.shards[s].trans.remove(node); ok { // want shardflow
		c.resid[node] = k.at - now
	}
}

// unfreezeNoFix re-arms a suspended transition in a possibly foreign
// shard and flags the crossing, but leaves that shard's heap position
// stale.
func (c *coordinator) unfreezeNoFix(node int, now float64) {
	s := c.shardOf[node]
	c.shards[s].trans.set(node, now+c.resid[node], c.seq) // want shardflow
	c.crossed = true
}

// cancelFixesWrongShard repairs some other shard after the cancel.
func (c *coordinator) cancelFixesWrongShard(node int, o int32) {
	s := c.shardOf[node]
	c.shards[s].trans.remove(node) // want shardflow
	if s != c.current {
		c.fix(o)
	}
}

// peekForeign indexes a coordinator-owned SoA cache by a foreign shard
// id from a shard method.
func (s *shardRuntime) peekForeign(c *coordinator, o int32) float64 {
	return c.headAt[o] // want shardflow
}

// stop writes a batch-control scalar without a //lint:handoff license.
func (s *shardRuntime) stop(c *coordinator) {
	c.done = true // want shardflow
}

// wire aliases the coordinator into every shard.
func (c *coordinator) wire() {
	for i := range c.shards {
		c.shards[i].owner = c // want shardflow
	}
}

// mirror aliases an owned SoA slice into a shard literal.
func (c *coordinator) mirror() shardRuntime {
	return shardRuntime{cache: c.headAt} // want shardflow
}
