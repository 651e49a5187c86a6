package warmstart

import (
	"testing"

	"mosaic/internal/frame/frametest"
	"mosaic/internal/grid"
)

func FuzzDecodeLibEntry(f *testing.F) {
	ws, cfg := goldenFamily()
	sig, offX, offY := Compute(testLayout(8, 16), testWindowPx, testPixelNM)
	e := &entry{fam: FamilyKey(ws, testWindowPx, testPixelNM, cfg), sig: *sig, offX: offX, offY: offY}
	mask := grid.New(testWindowPx, testWindowPx)
	mask.Data[9] = 0.5
	f.Add(encodeLibEntry(e, testPixelNM, mask))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			e, pixelNM, mask, err := decodeLibEntry(data)
			if err != nil {
				return nil, err
			}
			return encodeLibEntry(e, pixelNM, mask), nil
		})
	})
}
