// shardRuntime is one spatial shard of the sharded engine: the event
// heaps for the nodes the shard owns. In the serial engine all events
// live in queue and all mutation happens on the coordinator's
// event-loop goroutine; the parallel engine (par.go) additionally
// routes interior-node events into iq, which the shard's window worker
// drains concurrently between barriers.
package sim

//lint:owner sim-engine outside parallel windows the event-loop goroutine owns all shard state; during a window the shard's worker exclusively owns iq and the shard's interior SoA rows (handoff at the window barrier)
type shardRuntime struct {
	id    int32
	queue eventQueue // boundary events (all events when the run is serial)
	iq    eventQueue // interior events (parallel runs only)
}

// headKey returns the shard's earliest event key across both heaps.
func (s *shardRuntime) headKey() (at float64, seq uint64, ok bool) {
	switch {
	case len(s.queue) == 0 && len(s.iq) == 0:
		return 0, 0, false
	case len(s.iq) == 0:
		return s.queue[0].at, s.queue[0].seq, true
	case len(s.queue) == 0:
		return s.iq[0].at, s.iq[0].seq, true
	}
	if keyLess(s.iq[0].at, s.iq[0].seq, s.queue[0].at, s.queue[0].seq) {
		return s.iq[0].at, s.iq[0].seq, true
	}
	return s.queue[0].at, s.queue[0].seq, true
}

// popMin pops the earlier of the two heads. Callers guarantee at least
// one heap is non-empty.
func (s *shardRuntime) popMin() event {
	if len(s.queue) == 0 {
		return s.iq.pop()
	}
	if len(s.iq) > 0 && keyLess(s.iq[0].at, s.iq[0].seq, s.queue[0].at, s.queue[0].seq) {
		return s.iq.pop()
	}
	return s.queue.pop()
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

// run drains this shard's heaps while the head event stays strictly
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
	for {
		var ev event
		if len(s.iq) == 0 {
			// Serial runs never fill iq: pop the one heap directly.
			if len(s.queue) == 0 {
				return
			}
			h := &s.queue[0]
			if dispatched > 0 && !keyLess(h.at, h.seq, boundAt, boundSeq) {
				return
			}
			if h.at > c.horizon {
				c.done = true
				return
			}
			ev = s.queue.pop()
		} else {
			at, seq, _ := s.headKey()
			if dispatched > 0 && !keyLess(at, seq, boundAt, boundSeq) {
				return
			}
			if at > c.horizon {
				c.done = true
				return
			}
			ev = s.popMin()
		}
		c.ctx.dispatch(ev)
		dispatched++
		if c.crossed {
			return
		}
		if c.batchLimit > 0 && dispatched >= c.batchLimit {
			return
		}
	}
}

// window drains this shard's interior heap while its head stays
// strictly below both the global boundary minimum (boundAt, boundSeq)
// and the shard's own boundary head — the exact point at which the
// serial engine would next dispatch a boundary event — and below the
// horizon. Runs on the shard's window worker with x as the shard's
// private dispatch context; every touched SoA row and every push target
// is owned by this shard (see DESIGN.md §9), so no synchronization
// happens inside the loop.
func (s *shardRuntime) window(c *coordinator, x *dispCtx, boundAt float64, boundSeq uint64) {
	for len(s.iq) > 0 {
		h := &s.iq[0]
		if h.at > c.horizon {
			return
		}
		ba, bs := boundAt, boundSeq
		if len(s.queue) > 0 && keyLess(s.queue[0].at, s.queue[0].seq, ba, bs) {
			ba, bs = s.queue[0].at, s.queue[0].seq
		}
		if !keyLess(h.at, h.seq, ba, bs) {
			return
		}
		ev := s.iq.pop()
		x.dispatch(ev)
	}
}
