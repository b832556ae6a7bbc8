package sim

import (
	"math/rand/v2"
	"testing"
)

// checkTransHeap verifies the heap order and the pos index of h against
// want, the pending key of every node (ok false: none).
func checkTransHeap(t *testing.T, h *transHeap, want map[int]eventKey) {
	t.Helper()
	if len(h.keys) != len(want) {
		t.Fatalf("%d keys, want %d", len(h.keys), len(want))
	}
	for i, k := range h.keys {
		if i > 0 {
			p := h.keys[(i-1)/2]
			if keyLess(k.at, k.seq, p.at, p.seq) {
				t.Fatalf("key %d sorts before its parent", i)
			}
		}
		node := int(k.seq & h.mask)
		if h.pos[node] != int32(i) || want[node] != k {
			t.Fatalf("node %d: pos %d key %v, want pos %d key %v", node, h.pos[node], k, i, want[node])
		}
	}
	for node, p := range h.pos {
		if _, ok := want[node]; !ok && p != -1 {
			t.Fatalf("node %d has pos %d with nothing pending", node, p)
		}
	}
}

// The transition heap keeps its order and index through random sets,
// removes and root replacements, with coarse times so ties fall through
// to the seq.
func TestTransHeapRandomOps(t *testing.T) {
	const n = 37
	rnd := rand.New(rand.NewPCG(1, 2))
	h := transHeap{pos: make([]int32, n), mask: 1<<seqShift(n) - 1}
	for i := range h.pos {
		h.pos[i] = -1
	}
	want := map[int]eventKey{}
	lam := uint64(0)
	key := func(node int) eventKey {
		lam++
		return eventKey{at: float64(rnd.IntN(8)), seq: lam<<seqShift(n) | uint64(node)}
	}
	for step := 0; step < 20000; step++ {
		switch node := rnd.IntN(n); rnd.IntN(4) {
		case 0, 1:
			k := key(node)
			h.set(node, k.at, k.seq)
			want[node] = k
		case 2:
			k, ok := h.remove(node)
			if w, had := want[node]; ok != had || (ok && k != w) {
				t.Fatalf("remove(%d) = %v %t, want %v %t", node, k, ok, w, had)
			}
			delete(want, node)
		case 3:
			if len(h.keys) > 0 { // replace the root, as a fired transition's re-arm does
				root := int(h.keys[0].seq & h.mask)
				k := key(root)
				h.set(root, k.at, k.seq)
				want[root] = k
			}
		}
		checkTransHeap(t, &h, want)
	}
}
