package sim

// keyLess is the canonical event order: (at, seq) lexicographic. Keys
// are unique (the seq low bits carry the node id), so exact float
// comparison is the tie detector, not an equality test.
func keyLess(aAt float64, aSeq uint64, bAt float64, bSeq uint64) bool {
	if aAt != bAt { //lint:allow floateq exact tie detection so equal-time events fall through to the seq tiebreak
		return aAt < bAt
	}
	return aSeq < bSeq
}

// eventQueue is a binary min-heap over event values ordered by (at, seq)
// — the heap for packet ends and fault boundaries (transitions have
// transHeap, ticks the coordinator's tick cursor), with sift-up/sift-down
// written directly against the slice. It deliberately does not use
// container/heap: heap.Push and heap.Pop box every event through
// interface{}, which allocates on each of the millions of events a run
// processes; the direct heap keeps the steady-state event loop
// allocation-free.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	return keyLess(q[i].at, q[i].seq, q[j].at, q[j].seq)
}

// push inserts e and restores the heap property by sifting it up.
func (q *eventQueue) push(e event) {
	*q = append(*q, e) //lint:allow hotalloc amortized queue growth; capacity is stable in steady state
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
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
// than there are nodes. pos[node] is the node's position in keys, -1
// when none is pending. mask extracts the node id from a key.
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
	h.keys = append(h.keys, transKey{at: at, seq: seq}) //lint:allow hotalloc pre-sized to the node count, which bounds the heap
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
