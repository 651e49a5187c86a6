package ilt

import (
	"bytes"
	"runtime"
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/frame/frametest"
	"mosaic/internal/grid"
)

func codecResult() *Result {
	g := grid.New(4, 4)
	for i := range g.Data {
		g.Data[i] = float64(i%5) / 5
	}
	return &Result{MaskGray: g, Objective: 3.25, Iterations: 9, RuntimeSec: 7, Seeded: true}
}

func encodeResult(t testing.TB, res *Result) []byte {
	var b bytes.Buffer
	if err := WriteResult(frame.NewEnc(&b), res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestResultCodecRoundTrip(t *testing.T) {
	in := codecResult()
	d := frame.NewDec(encodeResult(t, in))
	out := ReadResult(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Objective != in.Objective || out.Iterations != in.Iterations || !out.MaskGray.Equal(in.MaskGray, 0) {
		t.Fatalf("result did not round trip: %+v", out)
	}
	if !out.Mask.Equal(in.MaskGray.Threshold(0.5), 0) {
		t.Fatal("binary mask is not the thresholded gray mask")
	}
	if out.RuntimeSec != 0 || out.Seeded {
		t.Fatal("runtime fields leaked into the runtime-free payload")
	}
	for _, bad := range []*Result{nil, {}, {MaskGray: grid.New(4, 2)}} {
		if err := WriteResult(frame.NewEnc(&bytes.Buffer{}), bad); err == nil {
			t.Fatalf("WriteResult accepted %+v", bad)
		}
	}
}

// TestSnapshotHostileHistoryCount is the allocation bound: a tiny,
// CRC-valid snapshot claiming 2^24 history entries must be rejected
// before the history is allocated.
func TestSnapshotHostileHistoryCount(t *testing.T) {
	blob, err := frame.Marshal(snapMagic, func(e *frame.Enc) error {
		e.I64(snapVersion)
		for range 5 {
			e.I64(0) // iter, step, jumps, best objective, best surrogate
		}
		for range 3 {
			e.Field(nil) // P, velocity, best mask
		}
		e.I64(1 << 24) // history entries, none of them present
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Snapshot
	err = s.UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot with an overlong history accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding a %d byte snapshot allocated %d bytes", len(blob), got)
	}
}

func FuzzReadResult(f *testing.F) {
	f.Add(encodeResult(f, codecResult()))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			d := frame.NewDec(data)
			res := ReadResult(d)
			if err := d.Done(); err != nil {
				return nil, err
			}
			return encodeResult(t, res), nil
		})
	})
}

func FuzzSnapshotUnmarshal(f *testing.F) {
	res := codecResult()
	seed := &Snapshot{
		Iter: 2, P: res.MaskGray, BestGray: res.MaskGray, Step: 0.5, Jumps: 1,
		History: []IterStats{{Iter: 1, Objective: 2, ProxyEPE: 3, Score: 4}},
	}
	blob, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			var s Snapshot
			if err := s.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return s.MarshalBinary()
		})
	})
}
