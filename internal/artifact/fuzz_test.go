package artifact

import (
	"testing"

	"mosaic/internal/frame/frametest"
	"mosaic/internal/grid"
)

func FuzzDecodeFieldFrame(f *testing.F) {
	g := grid.New(3, 2)
	g.Data[4] = 0.25
	f.Add(EncodeFieldFrame(g))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			g, err := DecodeFieldFrame(data)
			if err != nil {
				return nil, err
			}
			return EncodeFieldFrame(g), nil
		})
	})
}
