// shardRuntime is one spatial shard of the sharded engine: the event
// heaps for the nodes the shard owns. All mutation happens on the
// coordinator's event-loop goroutine.
package sim

//lint:owner sim-engine the coordinator's event-loop goroutine owns all shard state
type shardRuntime struct {
	id int32
	// queue holds packet ends, multiplier ticks and fault boundaries;
	// trans holds each owned node's pending transition, at most one per
	// node.
	queue eventQueue
	trans transHeap
}

// head returns the shard's earliest event key and whether that event is
// the pending transition at the root of trans rather than the queue
// head. Keys are unique, so the two heads never tie.
func (s *shardRuntime) head() (at float64, seq uint64, fromTrans, ok bool) {
	if len(s.trans.keys) > 0 {
		k := &s.trans.keys[0]
		at, seq, fromTrans, ok = k.at, k.seq, true, true
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
			node := int(seq & s.trans.mask)
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

// transKey is one pending transition's event key. The node id is the
// low bits of seq (see coordinator.nextSeq), so the heap stores keys
// inline and needs no per-entry node field.
type transKey struct {
	at  float64
	seq uint64
}

// transHeap is an indexed binary min-heap of pending transitions, at
// most one per node: a resample replaces a node's key in place (set) and
// a cancel deletes it (remove), so the heap never holds more entries
// than the shard owns nodes. pos[node] is the node's position in keys,
// -1 when none is pending; pos is indexed by node id and shared by every
// shard's heap, and each node belongs to exactly one shard, so the
// shards touch disjoint entries. mask extracts the node id from a key.
type transHeap struct {
	keys []transKey
	pos  []int32
	mask uint64
}

func (h *transHeap) less(i, j int) bool {
	a, b := &h.keys[i], &h.keys[j]
	return keyLess(a.at, a.seq, b.at, b.seq)
}

func (h *transHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i].seq&h.mask] = int32(i)
	h.pos[h.keys[j].seq&h.mask] = int32(j)
}

// set makes (at, seq) node's pending transition, replacing in place any
// transition it already had.
func (h *transHeap) set(node int, at float64, seq uint64) {
	if i := int(h.pos[node]); i >= 0 {
		h.keys[i] = transKey{at: at, seq: seq}
		if !h.up(i) {
			h.down(i)
		}
		return
	}
	h.pos[node] = int32(len(h.keys))
	h.keys = append(h.keys, transKey{at: at, seq: seq}) //lint:allow hotalloc pre-sized to the shard's node count, which bounds the heap
	h.up(len(h.keys) - 1)
}

// remove deletes node's pending transition and returns its key; ok is
// false when the node has none.
func (h *transHeap) remove(node int) (k transKey, ok bool) {
	i := int(h.pos[node])
	if i < 0 {
		return transKey{}, false
	}
	k = h.keys[i]
	h.pos[node] = -1
	last := len(h.keys) - 1
	moved := h.keys[last]
	h.keys = h.keys[:last]
	if i < last {
		h.keys[i] = moved
		h.pos[moved.seq&h.mask] = int32(i)
		if !h.up(i) {
			h.down(i)
		}
	}
	return k, true
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
	n := len(h.keys)
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
