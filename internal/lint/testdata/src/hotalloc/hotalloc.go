// Package fixture exercises the hotalloc analyzer: loaded as
// econcast/internal/sim, everything statically reachable from
// (*coordinator).step is the event loop and may not allocate; loaded
// under a package with no hot entries (econcast/internal/viz) nothing
// may be reported, and cold construction, setup reachable only from
// run, and teardown are never constrained.
package fixture

type event struct{ at float64 }

type coordinator struct {
	queue   []event
	scratch []int
	occ     map[int]float64
}

// run drives the loop; it allocates nothing itself.
func (e *coordinator) run() {
	e.start()
	for e.step() {
	}
}

// start seeds the event sources: cold, reachable only from run.
func (e *coordinator) start() {
	e.queue = make([]event, 0, 8)
	e.scratch = append(e.scratch, 0)
}

// step is the hot entry point; its whole call tree is the event loop.
func (e *coordinator) step() bool {
	buf := make([]int, 8) // want hotalloc
	_ = buf
	e.scratch = append(e.scratch, 1) // want hotalloc
	e.scratch = expand(e.scratch)
	e.handleTick()
	return len(e.queue) > 0
}

// handleTick is hot only transitively: step -> handleTick.
func (e *coordinator) handleTick() {
	m := map[int]float64{0: 1} // want hotalloc
	_ = m
	e.occ = map[int]float64{} // want hotalloc
	e.grow()
}

// expand is a hot free function: plain calls are followed, not just
// method calls.
func expand(xs []int) []int {
	return append(xs, 0) // want hotalloc
}

// grow shows the escape hatch for an audited amortized growth.
func (e *coordinator) grow() {
	e.queue = append(e.queue, event{}) //lint:allow hotalloc amortized high-water growth, audited
}

// newCoordinator is cold: it is not reachable from step, so
// construction-time allocation is unconstrained.
func newCoordinator(n int) *coordinator {
	return &coordinator{
		queue:   make([]event, 0, n),
		scratch: make([]int, 0, n),
		occ:     map[int]float64{},
	}
}

// finish is cold teardown, also unreachable from step.
func (e *coordinator) finish() []float64 {
	out := make([]float64, len(e.queue))
	for _, ev := range e.queue {
		out = append(out, ev.at)
	}
	return out
}
