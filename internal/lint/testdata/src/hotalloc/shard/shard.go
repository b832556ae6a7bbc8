// Package fixture exercises the hotalloc analyzer's event-loop root:
// loaded as econcast/internal/sim, everything statically reachable from
// (*coordinator).step is the per-event path and may not allocate, while
// run, which only drives step, and start, which seeds the sources, are
// cold; loaded under a package with no hot entries
// (econcast/internal/viz) nothing may be reported.
package fixture

type event struct{ at float64 }

type coordinator struct {
	queue []event
	trans []int32
	seen  map[int32]bool
}

// run drives the loop. It is not a hot entry, so its setup may
// allocate.
func (c *coordinator) run() {
	c.start()
	for c.step() {
	}
}

// start seeds the event sources: cold, reachable only from run.
func (c *coordinator) start() {
	c.queue = make([]event, 0, 8)
	c.trans = append(c.trans, 0)
}

// step is the hot entry: one event per call.
func (c *coordinator) step() bool {
	heads := make([]float64, 3) // want hotalloc
	_ = heads
	if len(c.queue) > 0 {
		c.queue = c.queue[1:]
	}
	c.dispatch()
	c.arm(0)
	return len(c.queue) > 0
}

// dispatch is hot only transitively: step -> dispatch.
func (c *coordinator) dispatch() {
	c.seen = map[int32]bool{} // want hotalloc
}

// arm shows the escape hatch for audited bounded growth of the
// transition heap.
func (c *coordinator) arm(node int32) {
	c.trans = append(c.trans, node) //lint:allow hotalloc pre-sized to the node count, which bounds the heap
}

// newCoordinator is cold construction, unreachable from step.
func newCoordinator(n int) *coordinator {
	return &coordinator{
		trans: make([]int32, 0, n),
		seen:  map[int32]bool{},
	}
}
