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

// eventKey is one pending event's key. The node id is the low bits of
// seq (see coordinator.nextSeq), so the event sources store keys inline
// and need no per-entry node field.
type eventKey struct {
	at  float64
	seq uint64
}

// pktFIFO is the packet-end queue: a ring buffer of keys in arrival
// order. Every packet end is scheduled at now + packetTime under a fresh,
// larger seq, with one run-wide packetTime and a nondecreasing now; IEEE
// addition is monotone, so keys arrive already (at, seq)-sorted and the
// FIFO pops them in the order a heap would. len(keys) is zero or a power
// of two.
type pktFIFO struct {
	keys    []eventKey
	head, n int
}

// push appends k, doubling the ring when it is full.
func (q *pktFIFO) push(k eventKey) {
	if q.n == len(q.keys) {
		keys := make([]eventKey, max(16, 2*q.n)) //lint:allow hotalloc amortized doubling; the ring stops at its high-water mark, at most two packet ends per node
		copy(keys[copy(keys, q.keys[q.head:]):], q.keys[:q.head])
		q.keys, q.head = keys, 0
	}
	q.keys[(q.head+q.n)&(len(q.keys)-1)] = k
	q.n++
}

// pop drops the front key.
func (q *pktFIFO) pop() {
	q.head = (q.head + 1) & (len(q.keys) - 1)
	q.n--
}

// transHeap is an indexed binary min-heap of pending transitions, at
// most one per node: a resample replaces a node's key in place (set) and
// a cancel deletes it (remove), so the heap never holds more entries
// than there are nodes. pos[node] is the node's position in keys, -1
// when none is pending. mask extracts the node id from a key.
type transHeap struct {
	keys []eventKey
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
		h.keys[i] = eventKey{at: at, seq: seq}
		if !h.up(i) {
			h.down(i)
		}
		return
	}
	h.pos[node] = int32(len(h.keys))
	h.keys = append(h.keys, eventKey{at: at, seq: seq}) //lint:allow hotalloc pre-sized to the node count, which bounds the heap
	h.up(len(h.keys) - 1)
}

// remove deletes node's pending transition and returns its key; ok is
// false when the node has none.
func (h *transHeap) remove(node int) (k eventKey, ok bool) {
	i := int(h.pos[node])
	if i < 0 {
		return eventKey{}, false
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
