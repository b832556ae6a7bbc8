package testbed

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRaceStressLargeClique runs a 16-node emulated testbed so that
// `go test -race` covers this package at the same clique scale as the
// asim broker stress test. The emulator itself is one event loop on one
// goroutine (econlint's rawgoroutine forbids goroutines here), so beyond
// race coverage this pins the seed-determinism invariant at scale, byte
// for byte.
func TestRaceStressLargeClique(t *testing.T) {
	cfg := Config{
		N:        16,
		Sigma:    0.25,
		Duration: 400,
		Warmup:   100,
		Seed:     11,
	}
	marshal := func() []byte {
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.PacketsSent <= 0 {
			t.Fatal("16-node testbed made no progress")
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different testbed metrics:\n run1: %s\n run2: %s", a, b)
	}
}
