// shardRuntime is one spatial shard of the sharded engine: the event
// heaps for the nodes the shard owns. All mutation happens on the
// coordinator's event-loop goroutine.
package sim

//lint:owner sim-engine the coordinator's event-loop goroutine owns all shard state
type shardRuntime struct {
	id int32
	// queue holds packet ends, multiplier ticks, fault boundaries and
	// (occupancy-tracking runs only) evStale markers; trans holds each
	// owned node's pending transition, at most one per node.
	queue eventQueue
	trans transHeap
}

// head returns the shard's earliest event key and whether that event is
// the pending transition at the root of trans rather than the queue
// head. Keys are unique, so the two heads never tie.
func (s *shardRuntime) head() (at float64, seq uint64, fromTrans, ok bool) {
	if len(s.trans.ids) > 0 {
		sl := &s.trans.slots[s.trans.ids[0]]
		at, seq, fromTrans, ok = sl.at, sl.seq, true, true
	}
	if len(s.queue) > 0 && (!ok || keyLess(s.queue[0].at, s.queue[0].seq, at, seq)) {
		return s.queue[0].at, s.queue[0].seq, false, true
	}
	return at, seq, fromTrans, ok
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
		at, seq, fromTrans, ok := s.head()
		if !ok {
			return
		}
		if dispatched > 0 && !keyLess(at, seq, boundAt, boundSeq) {
			return
		}
		if at > c.horizon {
			c.done = true
			return
		}
		if fromTrans {
			node := int(s.trans.ids[0])
			s.trans.remove(node)
			c.dispatch(event{at: at, seq: seq, kind: evTransition, node: node})
		} else {
			c.dispatch(s.queue.pop())
		}
		dispatched++
		if c.crossed {
			return
		}
		if c.batchLimit > 0 && dispatched >= c.batchLimit {
			return
		}
	}
}

// transSlot is one node's pending transition: its key and its position
// in the owning shard's transition heap, -1 when none is pending.
type transSlot struct {
	at  float64
	seq uint64
	pos int32
}

// transHeap is an indexed binary min-heap of node ids ordered by each
// node's transition slot. A node has at most one pending transition: a
// resample replaces it in place (set) and a cancel deletes it (remove),
// so the heap never holds more entries than the shard owns nodes. slots is
// indexed by node id and shared by every shard's heap; each node belongs
// to exactly one shard, so the shards touch disjoint entries.
type transHeap struct {
	ids   []int32
	slots []transSlot
}

func (h *transHeap) less(i, j int) bool {
	a, b := &h.slots[h.ids[i]], &h.slots[h.ids[j]]
	return keyLess(a.at, a.seq, b.at, b.seq)
}

func (h *transHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.slots[h.ids[i]].pos = int32(i)
	h.slots[h.ids[j]].pos = int32(j)
}

// set makes (at, seq) node's pending transition. A transition it
// already had is replaced in place, and its key returned with had set.
func (h *transHeap) set(node int, at float64, seq uint64) (oldAt float64, oldSeq uint64, had bool) {
	sl := &h.slots[node]
	if i := int(sl.pos); i >= 0 {
		oldAt, oldSeq = sl.at, sl.seq
		sl.at, sl.seq = at, seq
		if !h.up(i) {
			h.down(i)
		}
		return oldAt, oldSeq, true
	}
	*sl = transSlot{at: at, seq: seq, pos: int32(len(h.ids))}
	h.ids = append(h.ids, int32(node)) //lint:allow hotalloc pre-sized to the shard's node count, which bounds the heap
	h.up(len(h.ids) - 1)
	return 0, 0, false
}

// remove deletes node's pending transition and returns its key; ok is
// false when the node has none.
func (h *transHeap) remove(node int) (at float64, seq uint64, ok bool) {
	sl := &h.slots[node]
	i := int(sl.pos)
	if i < 0 {
		return 0, 0, false
	}
	at, seq = sl.at, sl.seq
	sl.pos = -1
	last := len(h.ids) - 1
	moved := h.ids[last]
	h.ids = h.ids[:last]
	if i < last {
		h.ids[i] = moved
		h.slots[moved].pos = int32(i)
		if !h.up(i) {
			h.down(i)
		}
	}
	return at, seq, true
}

// up sifts the entry at position i toward the root and reports whether
// it moved.
func (h *transHeap) up(i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	return i != start
}

func (h *transHeap) down(i int) {
	n := len(h.ids)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h.swap(i, child)
		i = child
	}
}
