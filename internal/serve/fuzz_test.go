package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzDiskCacheRecover feeds arbitrary bytes to the cache log's recovery.
// It must never panic, and it must never believe a record the log does
// not hold: every surviving entry is a whole, valid record of the input.
// Every survivor also re-encodes and recovers bit-equal, which is what
// the compacting rewrite after a damaged open relies on. The seeds are a
// valid multi-record log and the corruption shapes of diskcache_test.go.
func FuzzDiskCacheRecover(f *testing.F) {
	var log []byte
	for _, kv := range [][2]string{{"a", "AAAA"}, {"b", "BBBB"}, {"c", "CCCC"}} {
		log = append(log, encodeRecord(kv[0], []byte(kv[1]))...)
	}
	recLen := len(encodeRecord("a", []byte("AAAA")))
	flipped := slices.Clone(log)
	flipped[2*recLen-3] ^= 0xff // a CRC byte of record "b"
	doomed := encodeRecord("doomed", []byte("DOOMED"))
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:2*recLen+recLen/2]) // truncated tail
	f.Add(flipped)
	f.Add(append(encodeRecord("solid", []byte("SOLID")), doomed[:len(doomed)/2]...)) // killed mid-write
	f.Add(append([]byte("not a record at all "), encodeRecord("k", []byte("V"))...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := &diskCache{m: make(map[string][]byte)}
		c.recover(raw)
		if c.loaded < len(c.keys) || len(c.keys) != len(c.m) {
			t.Fatalf("loaded %d records into %d keys and %d entries", c.loaded, len(c.keys), len(c.m))
		}
		var again []byte
		for _, k := range c.keys {
			rec := encodeRecord(k, c.m[k])
			if !bytes.Contains(raw, rec) {
				t.Fatalf("recovered %q -> %q, which is no record of the input", k, c.m[k])
			}
			again = append(again, rec...)
		}
		d := &diskCache{m: make(map[string][]byte)}
		d.recover(again)
		if d.skipped != 0 || d.loaded != len(c.keys) || !slices.Equal(d.keys, c.keys) {
			t.Fatalf("re-encoded log recovered %d records (%d skipped) as %q, want %q",
				d.loaded, d.skipped, d.keys, c.keys)
		}
		for _, k := range c.keys {
			if !bytes.Equal(d.m[k], c.m[k]) {
				t.Fatalf("%q re-recovered as %q, want %q", k, d.m[k], c.m[k])
			}
		}
	})
}

// FuzzRequestCompile feeds arbitrary request bodies through the JSON
// decoding and validation a /v1/solve arrival goes through. compile must
// never panic, and every request it refuses must be refused as
// ErrBadRequest, the error the server maps to 400. The grid seed once
// passed the size check through a wrapped Rows*Cols and panicked in
// topology.Grid.
func FuzzRequestCompile(f *testing.F) {
	f.Add([]byte(`{"objective":"bounds","n":4,"rho":1e-5,"listen":5e-4,"transmit":5e-4,"topology":{"kind":"grid","rows":4611686018427387905,"cols":4}}`))
	f.Add([]byte(`{"objective":"bounds","n":9,"rho":1e-5,"listen":5e-4,"transmit":5e-4,"topology":{"kind":"grid","rows":3,"cols":3}}`))
	f.Add([]byte(`{"objective":"exact","n":5,"rho":1e-5,"listen":5e-4,"transmit":5e-4,"topology":{"kind":"ring"}}`))
	f.Add([]byte(`{"objective":"anyput","nodes":[{"budget":1e-5,"listen":5e-4,"transmit":5e-4},{"budget":2e-5,"listen":4e-4,"transmit":6e-4}]}`))
	f.Add([]byte(`{"objective":"groupput","n":4,"rho":-1,"listen":5e-4,"transmit":5e-4}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if _, err := req.compile(); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("compile refused %s with %v, not ErrBadRequest", body, err)
		}
	})
}

// FuzzDecodeResponse feeds arbitrary bytes to the cache's value decoder.
// It must never panic, and any value it accepts must re-encode to the
// same bytes: the cache promises bitwise identity. The last seed holds
// a hasUpper byte of 2, which once decoded as "no upper bound".
func FuzzDecodeResponse(f *testing.F) {
	res := Result{Throughput: math.Pi, Alpha: []float64{0.1, 0.2}, Beta: []float64{0.3, math.NaN()}}
	withUpper := encodeResponse(&Response{Result: res, Upper: &Result{Throughput: math.E, Alpha: []float64{1, 1}, Beta: []float64{0, 0}}})
	noUpper := encodeResponse(&Response{Result: res})
	badFlag := slices.Clone(noUpper)
	badFlag[len(badFlag)-1] = 2
	f.Add([]byte{})
	f.Add(withUpper)
	f.Add(noUpper)
	f.Add(badFlag)
	f.Fuzz(func(t *testing.T, raw []byte) {
		resp, err := decodeResponse(raw)
		if err != nil {
			return
		}
		if again := encodeResponse(resp); !bytes.Equal(again, raw) {
			t.Fatalf("decoded %x re-encodes as %x", raw, again)
		}
	})
}
