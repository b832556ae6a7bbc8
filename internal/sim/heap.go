package sim

import "econcast/internal/evq"

// pktFIFO is the packet-end queue: a ring buffer of evq keys in arrival
// order, the one event source that needs no heap (the transition heap
// is evq.Heap). Every packet end is scheduled at now + packetTime under a fresh,
// larger seq, with one run-wide packetTime and a nondecreasing now; IEEE
// addition is monotone, so keys arrive already (at, seq)-sorted and the
// FIFO pops them in the order a heap would. len(keys) is zero or a power
// of two.
type pktFIFO struct {
	keys    []evq.Key
	head, n int
}

// push appends k, doubling the ring when it is full.
func (q *pktFIFO) push(k evq.Key) {
	if q.n == len(q.keys) {
		keys := make([]evq.Key, max(16, 2*q.n)) //lint:allow hotalloc amortized doubling; the ring stops at its high-water mark, at most two packet ends per node
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
