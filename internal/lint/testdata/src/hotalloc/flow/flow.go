// Package fixture exercises hotalloc's finer shapes: a make inside a
// loop is flagged whether or not its arguments are loop-invariant or
// its result escapes the iteration; capturing closures and values boxed
// into empty interfaces are flagged; non-capturing literals, spread
// calls and panic arguments are not.
package fixture

type coordinator struct {
	queue []int
	sink  [][]byte
	cap   int
}

func sprintf(format string, args ...any) string { _ = args; return format }

func consume(bs []byte) int { return len(bs) }

// step is the hot entry point; every method below is reachable from it.
func (e *coordinator) step() {
	e.hoist(4)
	e.variant(4)
	e.escapes(4)
	e.closures(4)
	e.boxing(4, nil)
}

// hoist's make has loop-invariant arguments and a result that never
// leaves its iteration (it is only self-appended, ranged, and indexed);
// it is flagged like any other make.
func (e *coordinator) hoist(n int) {
	for i := 0; i < n; i++ {
		scratch := make([]byte, 0, 64)     // want hotalloc
		scratch = append(scratch, byte(i)) // want hotalloc
		for j := range scratch {
			e.queue[0] += int(scratch[j])
		}
	}
}

// variant's make argument is redefined inside the loop.
func (e *coordinator) variant(n int) {
	size := 8
	for i := 0; i < n; i++ {
		size = i
		buf := make([]byte, 0, size) // want hotalloc
		_ = consume(buf)
	}
}

// escapes appends the buffer into an accumulator that outlives the
// iteration.
func (e *coordinator) escapes(n int) {
	for i := 0; i < n; i++ {
		buf := make([]byte, 0, 8)    // want hotalloc
		buf = append(buf, byte(i))   // want hotalloc
		e.sink = append(e.sink, buf) // want hotalloc
	}
}

// closures: a literal capturing locals allocates per event; one that
// touches nothing outside itself compiles to a static function.
func (e *coordinator) closures(n int) {
	f := func() int { return n } // want hotalloc
	g := func() int { return 1 }
	_ = f() + g()
}

// boxing: concrete values bound to empty-interface parameters allocate.
// Spread calls pass an existing slice, and panic arguments are not a
// steady-state cost.
func (e *coordinator) boxing(n int, args []any) {
	_ = sprintf("node %d of %d", n, e.cap) // want hotalloc,hotalloc
	_ = sprintf("preboxed", args...)
	if n < 0 {
		panic(sprintf("impossible fan-in %d", n))
	}
	var a any = any(n) // want hotalloc
	_ = a
}
