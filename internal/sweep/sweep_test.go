package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"econcast/internal/rng"
)

// TestResultsInIndexOrder: results land at their cell's index for every
// worker count, including counts far above the cell count.
func TestResultsInIndexOrder(t *testing.T) {
	const n = 100
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = func() (int, error) { return i * i, nil }
	}
	for _, workers := range []int{0, 1, 2, 4, 16, 300} {
		got, err := Run(workers, cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestDeterministicAcrossWorkerCounts: a sweep whose cells each consume
// their own derived rng stream produces bit-identical output at any
// worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func() []Cell[uint64] {
		cells := make([]Cell[uint64], 64)
		for i := range cells {
			i := i
			cells[i] = func() (uint64, error) {
				src := rng.New(rng.DeriveSeed(99, uint64(i)))
				var acc uint64
				for k := 0; k < 1000; k++ {
					acc ^= src.Uint64()
				}
				return acc, nil
			}
		}
		return cells
	}
	base, err := Run(1, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		got, err := Run(workers, mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: result[%d] = %#x, serial %#x", workers, i, got[i], base[i])
			}
		}
	}
}

// TestFirstErrorWins: the lowest-index failing cell's error is reported
// at every worker count, even when a higher-index cell fails first in
// wall-clock time.
func TestFirstErrorWins(t *testing.T) {
	errLow := errors.New("low fails slowly")
	errHigh := errors.New("high fails fast")
	mk := func() []Cell[int] {
		cells := make([]Cell[int], 32)
		for i := range cells {
			i := i
			cells[i] = func() (int, error) {
				switch i {
				case 3:
					time.Sleep(20 * time.Millisecond)
					return 0, errLow
				case 25:
					return 0, errHigh
				default:
					return i, nil
				}
			}
		}
		return cells
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Run(workers, mk())
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want the cell-3 error", workers, err)
		}
		if want := "cell 3"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q does not name %s", workers, err, want)
		}
	}
}

// TestErrorStopsDispatch: after a failure, undispatched cells are
// skipped (the pool does not grind through the whole grid), while every
// dispatched cell drains. A serial pool stops right after the failing
// cell. A wider pool stops once the failing worker records its error;
// until then the other workers keep claiming cells, so the cells past
// the failure take 100 µs each: with no-op cells, three workers can
// exhaust the grid in the microseconds that recording takes.
func TestErrorStopsDispatch(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		cells := make([]Cell[int], n)
		for i := range cells {
			i := i
			cells[i] = func() (int, error) {
				ran.Add(1)
				switch {
				case i == 5:
					return 0, errors.New("boom")
				case i > 5:
					time.Sleep(100 * time.Microsecond)
				}
				return i, nil
			}
		}
		if _, err := Run(workers, cells); err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		got := ran.Load()
		if workers == 1 && got != 6 {
			t.Fatalf("serial pool ran %d cells, want 6 (cells 0..5)", got)
		}
		if got >= n {
			t.Fatalf("workers=%d: all %d cells ran despite an early failure", workers, got)
		}
	}
}

// TestPanickingCell: a panic becomes an error naming the cell; the pool
// drains cleanly and stays usable.
func TestPanickingCell(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		cells := make([]Cell[string], 16)
		for i := range cells {
			i := i
			cells[i] = func() (string, error) {
				if i == 7 {
					panic("cell exploded")
				}
				return fmt.Sprintf("ok %d", i), nil
			}
		}
		_, err := Run(workers, cells)
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		if !strings.Contains(err.Error(), "cell 7 panicked") ||
			!strings.Contains(err.Error(), "cell exploded") {
			t.Fatalf("workers=%d: error %q does not describe the panic", workers, err)
		}
	}
	// The pool is per-call; a fresh Run after a panic behaves normally.
	got, err := Run(4, []Cell[int]{func() (int, error) { return 41, nil }})
	if err != nil || got[0] != 41 {
		t.Fatalf("pool unusable after panic: %v %v", got, err)
	}
}

// TestPanicBeforeError: a panicking cell at a lower index beats a plain
// error at a higher index — panics participate in first-error ordering.
func TestPanicBeforeError(t *testing.T) {
	cells := []Cell[int]{
		func() (int, error) { return 0, nil },
		func() (int, error) { time.Sleep(10 * time.Millisecond); panic("early panic") },
		func() (int, error) { return 0, errors.New("late error") },
	}
	_, err := Run(3, cells)
	if err == nil || !strings.Contains(err.Error(), "cell 1 panicked") {
		t.Fatalf("got %v, want the cell-1 panic", err)
	}
}

func TestNilCell(t *testing.T) {
	_, err := Run(2, []Cell[int]{
		func() (int, error) { return 1, nil },
		nil,
	})
	if err == nil || !strings.Contains(err.Error(), "cell 1 is nil") {
		t.Fatalf("got %v, want a nil-cell error", err)
	}
}

func TestEmptySweep(t *testing.T) {
	got, err := Run[int](8, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd"}
	got, err := Map(3, items, func(i int, s string) (int, error) {
		return i * len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 6, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Map result %v, want %v", got, want)
		}
	}
}

// TestStressDrainUnderRace hammers the pool with mixed failing and
// panicking cells; run under -race this exercises the claim that workers
// never touch a result slot out of index or leak past Run's return.
func TestStressDrainUnderRace(t *testing.T) {
	for round := 0; round < 30; round++ {
		round := round
		const n = 64
		cells := make([]Cell[int], n)
		for i := range cells {
			i := i
			cells[i] = func() (int, error) {
				switch {
				case i%17 == round%17:
					return 0, fmt.Errorf("fail %d", i)
				case i%23 == round%23:
					panic(i)
				default:
					return i, nil
				}
			}
		}
		_, err := Run(16, cells)
		if err == nil {
			t.Fatalf("round %d: expected an error", round)
		}
	}
}
