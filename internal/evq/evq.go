// Package evq holds the event order and the pending-event heap shared by
// the two discrete-event engines, internal/sim and internal/testbed.
//
// An event's key is (at, seq), ordered by Less. seq = k<<Shift(n) | node,
// where k is the engine's run-wide key counter and node is the id of the
// node the event belongs to, so keys are unique, an event scheduled later
// sorts after an earlier one at the same instant, and an event source can
// store bare keys: the node rides in the low bits.
package evq

import (
	"cmp"
	"math/bits"
	"slices"
)

// Less is the canonical event order: (at, seq) lexicographic. Keys are
// unique, so exact float comparison is the tie detector, not an
// equality test.
func Less(aAt float64, aSeq uint64, bAt float64, bSeq uint64) bool {
	if aAt != bAt { //lint:allow floateq exact tie detection so equal-time events fall through to the seq tiebreak
		return aAt < bAt
	}
	return aSeq < bSeq
}

// Key is one pending event's key.
type Key struct {
	At  float64
	Seq uint64
}

// Sort sorts keys into Less order.
func Sort(keys []Key) {
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
}

// Shift returns the bit width reserved for the node id in the keys of an
// n-node run. At 100k nodes that leaves 47 bits of counter, ~1.4e14
// keys, far beyond any feasible run.
func Shift(n int) uint {
	return uint(bits.Len(uint(n)))
}

// Heap is an indexed binary min-heap of pending events, at most one per
// node: Set replaces a node's key in place and Remove deletes it, so the
// heap never holds more keys than there are nodes and a superseded event
// never lingers in it. pos[node] is the node's position in keys, -1 when
// none is pending; mask extracts the node id from a key.
type Heap struct {
	keys []Key
	pos  []int32
	mask uint64
}

// NewHeap returns an empty heap for an n-node run, pre-sized to its
// bound.
func NewHeap(n int) Heap {
	h := Heap{keys: make([]Key, 0, n), pos: make([]int32, n), mask: 1<<Shift(n) - 1}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of pending events.
func (h *Heap) Len() int { return len(h.keys) }

// Min returns the least pending key. The heap must not be empty.
func (h *Heap) Min() Key { return h.keys[0] }

// Node returns the node id carried by seq.
func (h *Heap) Node(seq uint64) int { return int(seq & h.mask) }

// Pending returns node's pending key; ok is false when it has none.
func (h *Heap) Pending(node int) (k Key, ok bool) {
	if i := h.pos[node]; i >= 0 {
		return h.keys[i], true
	}
	return Key{}, false
}

func (h *Heap) less(i, j int) bool {
	a, b := &h.keys[i], &h.keys[j]
	return Less(a.At, a.Seq, b.At, b.Seq)
}

func (h *Heap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i].Seq&h.mask] = int32(i)
	h.pos[h.keys[j].Seq&h.mask] = int32(j)
}

// Set makes (at, seq) node's pending event, replacing in place any event
// it already had. seq must carry node in its low bits.
func (h *Heap) Set(node int, at float64, seq uint64) {
	if i := int(h.pos[node]); i >= 0 {
		h.keys[i] = Key{At: at, Seq: seq}
		if !h.up(i) {
			h.down(i)
		}
		return
	}
	h.pos[node] = int32(len(h.keys))
	h.keys = append(h.keys, Key{At: at, Seq: seq}) //lint:allow hotalloc pre-sized to the node count, which bounds the heap
	h.up(len(h.keys) - 1)
}

// Remove deletes node's pending event and returns its key; ok is false
// when the node has none.
func (h *Heap) Remove(node int) (k Key, ok bool) {
	i := int(h.pos[node])
	if i < 0 {
		return Key{}, false
	}
	k = h.keys[i]
	h.pos[node] = -1
	last := len(h.keys) - 1
	moved := h.keys[last]
	h.keys = h.keys[:last]
	if i < last {
		h.keys[i] = moved
		h.pos[moved.Seq&h.mask] = int32(i)
		if !h.up(i) {
			h.down(i)
		}
	}
	return k, true
}

// up sifts the entry at position i toward the root and reports whether
// it moved.
func (h *Heap) up(i int) bool {
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

func (h *Heap) down(i int) {
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
