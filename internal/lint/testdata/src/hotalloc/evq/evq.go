// Package fixture exercises the hotalloc roots of the shared event heap:
// loaded as econcast/internal/evq, everything statically reachable from
// Heap.Set and Heap.Remove runs once per event of both engines and may
// not allocate; building the heap is cold.
package fixture

type Heap struct {
	keys []float64
	pos  []int32
}

// Set is a hot entry point; its append is pre-sized and audited.
func (h *Heap) Set(node int, at float64) {
	h.pos[node] = int32(len(h.keys))
	h.keys = append(h.keys, at) //lint:allow hotalloc pre-sized to the node count
	h.up(len(h.keys) - 1)
}

// Remove is a hot entry point.
func (h *Heap) Remove(node int) {
	moved := make([]float64, 1) // want hotalloc
	_ = moved
	h.up(int(h.pos[node]))
}

// up is hot transitively through both entries.
func (h *Heap) up(i int) {
	seen := map[int]bool{i: true} // want hotalloc
	_ = seen
}

// NewHeap is cold: not reachable from the entries.
func NewHeap(n int) Heap {
	return Heap{keys: make([]float64, 0, n), pos: make([]int32, n)}
}
