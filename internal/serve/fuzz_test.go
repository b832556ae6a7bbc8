package serve

import (
	"bytes"
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
