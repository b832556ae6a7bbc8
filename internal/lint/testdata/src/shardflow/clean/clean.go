// Package sim is the clean shardflow fixture: the same miniature engine
// following the detach/eager-fix discipline exactly, mirroring the real
// coordinator. Loaded under the sim path it must stay silent.
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
	horizon     float64
}

func (c *coordinator) fix(s int32)  { _ = s }
func (c *coordinator) siftDown(int) {}

func (c *coordinator) dispatch(ev event) { _ = ev }

// run mirrors the real drain boundary: it executes on the coordinator's
// event-loop goroutine and writes the batch-control scalars back.
//
//lint:handoff sim-engine the drain boundary writes current/crossed/done back into the coordinator
func (s *shardRuntime) run(c *coordinator, boundAt float64, boundSeq uint64) {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.at > boundAt || (head.at == boundAt && head.seq > boundSeq) { //lint:allow floateq fixture mirrors the exact tie detection
			return
		}
		if head.at > c.horizon {
			c.done = true
			return
		}
		ev := s.queue.pop()
		c.crossed = false
		c.current = s.id
		c.dispatch(ev)
		if c.crossed {
			return
		}
	}
}

// step follows the discipline: detach unconditionally (through a
// branch that does not bypass it), drain, re-attach.
func (c *coordinator) step() bool {
	if c.done || len(c.order) == 0 {
		return false
	}
	s := c.order[0]
	last := len(c.order) - 1
	c.order = c.order[:last]
	c.pos[s] = -1
	if last > 0 {
		c.siftDown(0)
	}
	c.shards[s].run(c, 0, 0)
	c.fix(s)
	return !c.done
}

// push eagerly fixes cross-shard pushes; the equality branch proves the
// push landed in the detached draining shard.
func (c *coordinator) push(ev event) {
	ev.seq = c.seq
	c.seq++
	s := c.shardOf[ev.node]
	c.shards[s].queue.push(ev)
	if s != c.current {
		c.crossed = true
		c.fix(s)
	}
}

// pushEq is the same license written with == and an early return.
func (c *coordinator) pushEq(ev event) {
	s := c.shardOf[ev.node]
	c.shards[s].queue.push(ev)
	if s == c.current {
		return
	}
	c.fix(s)
}

// cancel mirrors coordinator.cancel: delete the node's pending
// transition in place, then repair its shard unless it is draining.
func (c *coordinator) cancel(node int) {
	s := c.shardOf[node]
	c.shards[s].trans.remove(node)
	if s != c.current {
		c.fix(s)
	}
}

// schedule mirrors coordinator.scheduleTransition: set (or replace in
// place) the node's transition, then repair a foreign shard; a node that
// gets no timer is cancelled instead.
func (c *coordinator) schedule(node int, at float64) {
	if at < 0 {
		c.cancel(node)
		return
	}
	s := c.shardOf[node]
	c.shards[s].trans.set(node, at, c.seq)
	if s != c.current {
		c.crossed = true
		c.fix(s)
	}
}

// freeze mirrors coordinator.freeze: move a node's pending transition
// out of its shard's heap into its residual, then repair a foreign
// shard on every path, including the one with nothing pending.
func (c *coordinator) freeze(node int, now float64) {
	s := c.shardOf[node]
	if k, ok := c.shards[s].trans.remove(node); ok {
		c.resid[node] = k.at - now
	}
	if s != c.current {
		c.fix(s)
	}
}

// unfreeze mirrors coordinator.unfreeze through arm: re-arm the
// residual in place, flag the crossing and repair a foreign shard.
func (c *coordinator) unfreeze(node int, now float64) {
	s := c.shardOf[node]
	c.shards[s].trans.set(node, now+c.resid[node], c.seq)
	if s == c.current {
		return
	}
	c.crossed = true
	c.fix(s)
}

// drainPanic: a panicking path carries no repair obligation.
func (c *coordinator) drainPanic(s int32) {
	c.pos[s] = -1
	c.shards[s].run(c, 0, 0)
	if len(c.order) == 0 {
		panic("drained the last shard")
	}
	c.fix(s)
}

// head reads an owned SoA cache at the shard's own id, which is always
// legal from a shard method.
func (s *shardRuntime) head(c *coordinator) float64 {
	return c.headAt[s.id]
}
