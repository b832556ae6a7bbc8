package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// shot is one operation issued by the load generator. Offsets are from
// the start of its loop. In an open loop due is when the schedule meant
// to send it; start is when a connection actually took it.
type shot struct {
	due, start, end time.Duration
	err             error
}

// latency is the operation's time from when it was due, so a stall
// charges its wait to every operation queued behind it.
func (s shot) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the operation was sent.
func (s shot) late() time.Duration { return s.start - s.due }

// openLoop issues n operations, one due every interval regardless of
// how earlier ones fare, over at most workers concurrent callers of do
// (do learns which worker calls it, so each can own a connection).
// When every worker is busy the due operation waits for one; that wait
// shows up both as lateness and in its latency.
func openLoop(n int, interval time.Duration, workers int, do func(worker, i int) error) []shot {
	shots := make([]shot, n)
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				s := &shots[i]
				s.start = time.Since(t0)
				s.err = do(w, i)
				s.end = time.Since(t0)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		shots[i].due = due
		sleepUntil(t0, due)
		next <- i
	}
	close(next)
	wg.Wait()
	return shots
}

// closedLoop runs n operations on workers callers, each sending its
// next operation as soon as its previous one returns, and reports the
// per-operation outcomes plus the wall time of the whole batch.
func closedLoop(n, workers int, do func(worker, i int) error) ([]shot, time.Duration) {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &shots[i]
				s.start = time.Since(t0)
				s.due = s.start
				s.err = do(w, i)
				s.end = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	return shots, time.Since(t0)
}

// sleepUntil blocks until offset due past t0. It sleeps in the kernel
// rather than on a runtime timer: an idle Go scheduler rounds timer
// waits under a millisecond up to a whole one, which at this generator's
// 1 ms spacing would make it run late by about its own interval.
func sleepUntil(t0 time.Time, due time.Duration) {
	for {
		wait := due - time.Since(t0)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
