package cluster

import (
	"testing"
	"time"

	"mosaic/internal/frame/frametest"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// fuzzJobRequest is a small, fully spelled-out work order; no simulator
// is built, since the codec reads only configuration.
func fuzzJobRequest(seeded bool) *tile.Request {
	oc := optics.Default()
	oc.GridSize, oc.PixelNM = 8, 8
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	if seeded {
		cfg.SeedMask = grid.New(8, 8)
		cfg.SeedMask.Data[3] = 0.5
	}
	return &tile.Request{
		Plan: &tile.Plan{WindowPx: 8, PixelNM: 8},
		Tile: &tile.Tile{Index: 2, Layout: &geom.Layout{
			Name: "t2", SizeNM: 64,
			Polys: []geom.Polygon{geom.Rect{X: 8, Y: 8, W: 24, H: 16}.Polygon()},
		}},
		Sim:     &sim.Simulator{Cfg: oc, Resist: resist.Default()},
		Cfg:     cfg,
		Samples: []geom.Sample{{Pt: geom.Point{X: 8, Y: 12}, InwardX: 1}},
	}
}

func FuzzDecodeTileJob(f *testing.F) {
	f.Add(encodeTileJob(fuzzJobRequest(false)))
	f.Add(encodeTileJob(fuzzJobRequest(true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			req, err := decodeTileJob(data)
			if err != nil {
				return nil, err
			}
			return encodeTileJob(req), nil
		})
	})
}

func FuzzDecodeTileResult(f *testing.F) {
	g := grid.New(4, 4)
	g.Data[1] = 0.75
	spans := []obs.SpanEvent{{
		Name: "worker.tile", TraceID: "aa", SpanID: "bb", Start: time.UnixMicro(1700000000000000),
		Dur: time.Millisecond, Attrs: []obs.Attr{obs.String("proc", "w"), obs.Int("tile", 1), obs.Float("x", 0.5)},
	}}
	for _, s := range [][]obs.SpanEvent{nil, spans} {
		payload, err := encodeTileResult(1, &ilt.Result{MaskGray: g, Objective: 2, Iterations: 3, RuntimeSec: 0.5, Seeded: true}, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			idx, res, spans, err := decodeTileResult(data)
			if err != nil {
				return nil, err
			}
			return encodeTileResult(idx, res, spans)
		})
	})
}
