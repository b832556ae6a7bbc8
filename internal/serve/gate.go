package serve

import (
	"context"
	"sync/atomic"
)

// gate is the admission controller: a bounded wait queue in front of a
// concurrency semaphore. An arrival that finds the queue full is
// refused at once; every other arrival waits (up to its context) for a
// slot.
//
// The semaphore is one channel viewed through two direction-typed
// fields: admit sends a token (acq), release receives it back (rel).
// admit is a hotalloc root — it runs for every arrival even at 100%
// overload, so it must not allocate.
type gate struct {
	maxInflight int
	maxQueue    int64

	acq chan<- struct{}
	rel <-chan struct{}

	queued  atomic.Int64  // arrivals blocked on the semaphore
	rejects atomic.Uint64 // queue-full rejections
}

// admitVerdict is the outcome of one admission attempt.
type admitVerdict uint8

const (
	admitOK   admitVerdict = iota // slot acquired; caller must release
	admitBusy                     // queue full; retry later
	admitGone                     // caller's context died while queued
)

func newGate(maxInflight, maxQueue int) *gate {
	if maxInflight <= 0 {
		maxInflight = 16
	}
	if maxQueue <= 0 {
		maxQueue = 4 * maxInflight
	}
	sem := make(chan struct{}, maxInflight)
	return &gate{
		maxInflight: maxInflight,
		maxQueue:    int64(maxQueue),
		acq:         sem,
		rel:         sem,
	}
}

// admit decides the fate of one arrival: reject it if the queue is
// full, else block (up to ctx) for a concurrency slot. On admitOK the
// caller owns a slot and must call release exactly once.
func (g *gate) admit(ctx context.Context) admitVerdict {
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.rejects.Add(1)
		return admitBusy
	}
	v := g.acquire(ctx)
	g.queued.Add(-1)
	return v
}

// acquire blocks until a semaphore slot frees or ctx dies. It is the
// gate's one licensed select: a two-way race between the slot send and
// cancellation, with no scheduling-order consequences beyond which
// waiter wins a freed slot.
func (g *gate) acquire(ctx context.Context) admitVerdict {
	select {
	case g.acq <- struct{}{}:
		return admitOK
	case <-ctx.Done():
		return admitGone
	}
}

// release returns an admitOK caller's slot.
func (g *gate) release() {
	<-g.rel
}

// retryAfterSeconds advises a rejected client how long to back off:
// proportional to queue pressure, at least one second, deliberately
// coarse (it is a hint, not a schedule).
func (g *gate) retryAfterSeconds() int {
	q := g.queued.Load()
	s := 1 + int(q)/g.maxInflight
	if s > 30 {
		s = 30
	}
	return s
}
