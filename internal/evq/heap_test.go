package evq

import (
	"math/rand/v2"
	"testing"
)

// checkHeap verifies the heap order and the pos index of h against want,
// the pending key of every node.
func checkHeap(t *testing.T, h *Heap, want map[int]Key) {
	t.Helper()
	if h.Len() != len(want) {
		t.Fatalf("%d keys, want %d", h.Len(), len(want))
	}
	for i, k := range h.keys {
		if i > 0 {
			p := h.keys[(i-1)/2]
			if Less(k.At, k.Seq, p.At, p.Seq) {
				t.Fatalf("key %d sorts before its parent", i)
			}
		}
		node := h.Node(k.Seq)
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

// The heap keeps its order and index through random sets, removes and
// root replacements, with coarse times so ties fall through to the seq.
func TestHeapRandomOps(t *testing.T) {
	const n = 37
	rnd := rand.New(rand.NewPCG(1, 2))
	h := NewHeap(n)
	want := map[int]Key{}
	lam := uint64(0)
	key := func(node int) Key {
		lam++
		return Key{At: float64(rnd.IntN(8)), Seq: lam<<Shift(n) | uint64(node)}
	}
	for step := 0; step < 20000; step++ {
		switch node := rnd.IntN(n); rnd.IntN(4) {
		case 0, 1:
			k := key(node)
			h.Set(node, k.At, k.Seq)
			want[node] = k
		case 2:
			k, ok := h.Remove(node)
			if w, had := want[node]; ok != had || (ok && k != w) {
				t.Fatalf("Remove(%d) = %v %t, want %v %t", node, k, ok, w, had)
			}
			delete(want, node)
		case 3:
			if h.Len() > 0 { // replace the root, as a fired transition's re-arm does
				root := h.Node(h.Min().Seq)
				k := key(root)
				h.Set(root, k.At, k.Seq)
				want[root] = k
			}
		}
		checkHeap(t, &h, want)
		for node := 0; node < n; node++ {
			k, ok := h.Pending(node)
			if w, had := want[node]; ok != had || k != w {
				t.Fatalf("Pending(%d) = %v %t, want %v %t", node, k, ok, w, had)
			}
		}
	}
}
