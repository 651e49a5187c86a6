package cache

import (
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/sraf"
	"mosaic/internal/tile"
)

// goldenReq is a fixed tile request with every keyed field spelled out,
// so the pinned digests below move only when the key encoding does —
// never when a package default changes.
func goldenReq(seeded bool) *tile.Request {
	cfg := ilt.Config{
		Mode: ilt.ModeFast, Alpha: 1, Beta: 0.5, Gamma: 4, SmoothWeight: 0.25,
		ThetaM: 4, ThetaEPE: 5, StepSize: 0.5, StepDecay: 0.98, Momentum: 0.1,
		MaxIter: 20, GradTol: 1e-4, Jumps: 2, JumpFactor: 3, SRAFInit: true,
		SRAFRules:   sraf.Rules{BiasNM: 2, SRAFDistNM: 70, SRAFWidthNM: 20, SRAFMinLenNM: 40},
		GradKernels: 4, EPEThresholdNM: 15, EPESampleNM: 40, DefocusNM: 25, DoseDelta: 0.02,
		ObjTol: 1e-6,
	}
	if seeded {
		cfg.SeedMask = grid.New(4, 4)
		for i := range cfg.SeedMask.Data {
			cfg.SeedMask.Data[i] = float64(i) / 16
		}
	}
	oc := optics.Config{WavelengthNM: 193, NA: 1.35, SigmaIn: 0.6, SigmaOut: 0.9, PixelNM: 8, GridSize: 64, Kernels: 6}
	return &tile.Request{
		Plan: &tile.Plan{WindowPx: 64, PixelNM: 8},
		Tile: &tile.Tile{Layout: &geom.Layout{
			Name:   "golden",
			SizeNM: 512,
			Polys: []geom.Polygon{
				geom.Rect{X: 100, Y: 100, W: 160, H: 90}.Polygon(),
				geom.Rect{X: 312, Y: 144, W: 56, H: 224}.Polygon(),
			},
		}},
		Sim: &sim.Simulator{Cfg: oc, Resist: resist.Model{Threshold: 0.25, ThetaZ: 50}},
		Cfg: cfg,
		Samples: []geom.Sample{
			{Pt: geom.Point{X: 100, Y: 145}, Horizontal: false, InwardX: 1},
			{Pt: geom.Point{X: 180, Y: 100}, Horizontal: true, InwardY: 1},
		},
	}
}

// TestRequestKeyGolden pins the key encoding across builds: durable cache
// entries are named by these digests, so any change to them silently
// orphans every existing cache directory. A change here needs a
// DigestVersion bump, never a quiet re-pin.
func TestRequestKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seeded bool
		want   string
	}{
		{"cold", false, "15ed040d2d52e4f8887652dedc4bd3d627869c430f7ad37b90b3c71a3227a8f1"},
		{"seeded", true, "a700360d0009e96fdd6e289df488e5f6afa8b55d9479da9997188935d17b69c3"},
	} {
		if got := RequestKey(goldenReq(tc.seeded)).String(); got != tc.want {
			t.Errorf("%s RequestKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
