// shardRuntime is one spatial shard of the sharded engine: the event
// heap for the nodes the shard owns. All mutation happens on the
// coordinator's event-loop goroutine.
package sim

//lint:owner sim-engine the coordinator's event-loop goroutine owns all shard state
type shardRuntime struct {
	id    int32
	queue eventQueue
}

// headKey returns the shard's earliest event key.
func (s *shardRuntime) headKey() (at float64, seq uint64, ok bool) {
	if len(s.queue) == 0 {
		return 0, 0, false
	}
	return s.queue[0].at, s.queue[0].seq, true
}

// keyLess is the canonical event order: (at, seq) lexicographic. Keys
// are unique (the seq low bits carry the node id), so exact float
// comparison is the tie detector, not an equality test.
func keyLess(aAt float64, aSeq uint64, bAt float64, bSeq uint64) bool {
	if aAt != bAt { //lint:allow floateq exact tie detection so equal-time events fall through to the seq tiebreak
		return aAt < bAt
	}
	return aSeq < bSeq
}

// run drains this shard's heap while the head event stays strictly
// earlier (in the global (at, seq) order) than the earliest event of any
// other shard — the conservative lookahead bound computed by the
// coordinator. The first event is dispatched unconditionally: the
// coordinator only calls run on the shard holding the global minimum.
// The drain stops early when a dispatched event pushes into a foreign
// shard (the bound may no longer be conservative), when the batch limit
// is reached, or at the horizon.
//
//lint:handoff sim-engine run is the drain boundary: it executes on the coordinator's event-loop goroutine and writes the batch-control scalars (current, crossed, done) back into the coordinator
func (s *shardRuntime) run(c *coordinator, boundAt float64, boundSeq uint64) {
	c.current = s.id
	c.crossed = false
	dispatched := 0
	for len(s.queue) > 0 {
		h := &s.queue[0]
		if dispatched > 0 && !keyLess(h.at, h.seq, boundAt, boundSeq) {
			return
		}
		if h.at > c.horizon {
			c.done = true
			return
		}
		c.dispatch(s.queue.pop())
		dispatched++
		if c.crossed {
			return
		}
		if c.batchLimit > 0 && dispatched >= c.batchLimit {
			return
		}
	}
}
