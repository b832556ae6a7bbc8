package testbed

import (
	"testing"

	"econcast/internal/evq"
	"econcast/internal/faults"
	"econcast/internal/model"
)

// TestPendingEventsBounded pins the event sources' invariants after every
// step. The pending heap holds at most one key per node, and its index
// finds each key under the node the key carries. A node is in Transmit
// exactly when it is the transmitter, and the transmitter holds a pending
// key, its packet or ping end; a node that is down holds none, so a
// crash cancels the event it had. The fault boundaries not yet read stay
// sorted. The crash run kills and revives nodes throughout, transmitters
// mid-hold among them.
func TestPendingEventsBounded(t *testing.T) {
	crash := baseCfg()
	crash.Faults = &faults.Config{Crash: &faults.Crash{MeanUp: 60, MeanDown: 20}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fault-free", baseCfg()},
		{"crash", crash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := newEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			txCrashes := 0
			check := func() {
				t.Helper()
				if n := e.pending.Len(); n > len(e.nodes) {
					t.Fatalf("%d pending events for %d nodes", n, len(e.nodes))
				}
				held := 0
				for i := range e.nodes {
					k, ok := e.pending.Pending(i)
					if ok {
						held++
						if e.pending.Node(k.Seq) != i {
							t.Fatalf("node %d's index finds node %d's key", i, e.pending.Node(k.Seq))
						}
					}
					if tx := e.nodes[i].state == model.Transmit; tx != (i == e.transmitter) {
						t.Fatalf("node %d: in Transmit %t, transmitter %d", i, tx, e.transmitter)
					} else if tx && !ok {
						t.Fatalf("transmitter %d holds no pending event", i)
					}
					if ok && !e.flt.Alive(i, e.now) {
						t.Fatalf("node %d is down at %v but holds a pending event", i, e.now)
					}
				}
				if held != e.pending.Len() {
					t.Fatalf("%d nodes hold pending events, the heap has %d", held, e.pending.Len())
				}
				for i := e.faultNext + 1; i < len(e.faults); i++ {
					if a, b := e.faults[i-1], e.faults[i]; !evq.Less(a.At, a.Seq, b.At, b.Seq) {
						t.Fatal("unread fault boundaries out of (at, seq) order")
					}
				}
			}
			e.start()
			check()
			steps := 0
			for {
				tx := e.transmitter
				if !e.step() {
					break
				}
				if tx >= 0 && e.transmitter < 0 && !e.flt.Alive(tx, e.now) {
					txCrashes++
				}
				check()
				steps++
			}
			if steps < 10_000 {
				t.Fatalf("only %d steps; the check is too weak", steps)
			}
			if tc.cfg.Faults != nil && txCrashes == 0 {
				t.Fatal("no transmitter crashed mid-hold; the check is too weak")
			}
			t.Logf("%d steps, %d transmitters crashed mid-hold, %d fault boundaries", steps, txCrashes, len(e.faults))
		})
	}
}
