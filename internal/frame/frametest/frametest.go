// Package frametest is the check every fuzz target over a frame-based
// format shares: hostile input must be rejected or decode canonically,
// within an allocation budget proportional to its size.
package frametest

import (
	"bytes"
	"runtime"
	"testing"
)

// MaxAlloc is the allocation budget for decoding and re-encoding n input
// bytes: a small multiple of the input plus fixed slack. A decoder that
// sizes anything by an unchecked length field blows far past it.
func MaxAlloc(n int) uint64 { return 1<<20 + 16*uint64(n) }

// Check runs decode on data. decode returns the re-encoding of what it
// accepted, or an error. Check fails when the decode (with its
// re-encoding) allocates more than MaxAlloc(len(data)), or when an
// accepted input does not re-encode to exactly the same bytes. Panics
// surface through the fuzz engine.
func Check(t *testing.T, data []byte, decode func([]byte) ([]byte, error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := decode(data)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > MaxAlloc(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d, over the %d byte budget", len(data), got, MaxAlloc(len(data)))
	}
	if err == nil && !bytes.Equal(out, data) {
		t.Fatalf("accepted input does not re-encode to itself:\n in % x\nout % x", data, out)
	}
}
