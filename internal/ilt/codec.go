package ilt

import (
	"fmt"

	"mosaic/internal/frame"
)

// resultVersion versions the result payload layout.
const resultVersion = 1

// WriteResult writes res's canonical payload: version, window size,
// objective, iterations, then the continuous mask's bit patterns. It is
// the one encoding of a Result. The payload is deliberately runtime-free
// — it covers the result's bits and nothing about where or when they
// were computed — so it doubles as the artifact blob, whose digest must
// match across cold, cached and remote runs. Callers that carry more
// (RuntimeSec, Seeded, a tile index) write it beside this payload.
func WriteResult(e *frame.Enc, res *Result) error {
	if res == nil || res.MaskGray == nil || res.MaskGray.W != res.MaskGray.H || res.MaskGray.W <= 0 {
		return fmt.Errorf("ilt: result has no square gray mask")
	}
	e.I64(resultVersion)
	e.I64(int64(res.MaskGray.W))
	e.F64(res.Objective)
	e.I64(int64(res.Iterations))
	e.F64s(res.MaskGray.Data)
	return nil
}

// ReadResult reads a payload written by WriteResult; errors latch in d.
// The binary mask is re-derived by thresholding the gray mask, exactly
// as the optimizer produced it, so a decoded result is indistinguishable
// from a fresh one apart from the fields the payload omits.
func ReadResult(d *frame.Dec) *Result {
	d.Version(resultVersion)
	w := d.I64()
	res := &Result{Objective: d.F64(), Iterations: int(d.I64())}
	res.MaskGray = d.Grid(w, w)
	if d.Err() != nil {
		return nil
	}
	res.Mask = res.MaskGray.Threshold(0.5)
	return res
}
