package main

import (
	"testing"
	"time"
)

// A stalled operation must make the operations due behind it late, and
// both the lateness and their latency from the due time must show it.
func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	const stall = 40 * time.Millisecond
	shots := openLoop(30, time.Millisecond, 1, func(_, i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range shots {
		if s.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("shot %d due at %v, want %v", i, s.due, time.Duration(i)*time.Millisecond)
		}
		if s.start < s.due || s.end < s.start {
			t.Fatalf("shot %d out of order: due %v start %v end %v", i, s.due, s.start, s.end)
		}
	}
	// Operation 6 was due 1 ms after the stalled one began, so it waited
	// for nearly the whole stall; 25 was due 20 ms in and still waited.
	if late := shots[6].late(); late < stall-5*time.Millisecond {
		t.Errorf("operation 6 ran %v late, want about %v", late, stall)
	}
	if lat := shots[25].latency(); lat < stall-25*time.Millisecond {
		t.Errorf("operation 25 latency %v does not include its wait behind the stall", lat)
	}
	late := make([]float64, len(shots))
	for i, s := range shots {
		late[i] = float64(s.late())
	}
	if p99 := time.Duration(percentile(late, 0.99)); p99 < stall-5*time.Millisecond {
		t.Errorf("late p99 = %v, want the stall (%v) counted", p99, stall)
	}
}

func TestClosedLoopRunsEveryOperationOnce(t *testing.T) {
	seen := make([]int, 200)
	shots, wall := closedLoop(len(seen), 3, func(_, i int) error {
		seen[i]++ // each index is handed to exactly one worker
		return nil
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("operation %d ran %d times", i, n)
		}
	}
	if len(shots) != len(seen) || wall <= 0 {
		t.Fatalf("got %d shots over %v", len(shots), wall)
	}
}
