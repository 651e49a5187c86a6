package ilt

import (
	"fmt"
	"math"
	"testing"

	"mosaic/internal/fft"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

func testOptimizer(t *testing.T, mode Mode) (*Optimizer, *geom.Layout) {
	t.Helper()
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 6
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr

	cfg := DefaultConfig(mode)
	cfg.SRAFInit = false
	cfg.MaxIter = 8
	o, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := &geom.Layout{
		Name:   "grad-test",
		SizeNM: 512,
		Polys: []geom.Polygon{
			geom.Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
			geom.Rect{X: 304, Y: 144, W: 48, H: 224}.Polygon(),
		},
	}
	if err := layout.Validate(); err != nil {
		t.Fatal(err)
	}
	return o, layout
}

// objectiveAt evaluates the configured objective for the mask derived from
// parameter field p.
func objectiveAt(o *Optimizer, p *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample) float64 {
	mask := maskFromParams(p, o.Cfg.ThetaM)
	return o.evalState(mask, models, target, samples).objective
}

// checkGradient compares the analytic dF/dP against central finite
// differences at a spread of probe pixels.
func checkGradient(t *testing.T, o *Optimizer, layout *geom.Layout) {
	t.Helper()
	n := o.Sim.Cfg.GridSize
	target := layout.Rasterize(n, o.Sim.Cfg.PixelNM)
	samples := layout.SamplePoints(o.Cfg.EPESampleNM)

	models, err := o.buildModels()
	if err != nil {
		t.Fatal(err)
	}

	p := paramsFromMask(target, o.Cfg.ThetaM)
	mask := maskFromParams(p, o.Cfg.ThetaM)
	st := o.evalState(mask, models, target, samples)
	grad := o.gradient(st, mask, target)
	for i, g := range grad.Data {
		mv := mask.Data[i]
		grad.Data[i] = g * o.Cfg.ThetaM * mv * (1 - mv)
	}

	// Probe pixels in and around the features where the gradient is live.
	probes := [][2]int{
		{24, 32}, {20, 32}, {26, 20}, {30, 32}, {38, 30}, {40, 18}, {44, 40}, {10, 10},
	}
	const eps = 1e-4
	checked := 0
	gLo, gHi := grad.MinMax()
	gScale := math.Max(math.Abs(gLo), math.Abs(gHi))
	if gScale == 0 {
		t.Fatal("gradient identically zero")
	}
	for _, pr := range probes {
		idx := pr[1]*n + pr[0]
		orig := p.Data[idx]
		p.Data[idx] = orig + eps
		fPlus := objectiveAt(o, p, models, target, samples)
		p.Data[idx] = orig - eps
		fMinus := objectiveAt(o, p, models, target, samples)
		p.Data[idx] = orig
		numeric := (fPlus - fMinus) / (2 * eps)
		analytic := grad.Data[idx]
		// Skip numerically dead probes.
		if math.Abs(numeric) < 1e-9*gScale && math.Abs(analytic) < 1e-9*gScale {
			continue
		}
		diff := math.Abs(numeric - analytic)
		if diff > 2e-3*(math.Abs(numeric)+math.Abs(analytic))+1e-9*gScale {
			t.Errorf("pixel (%d,%d): analytic %.6e vs numeric %.6e", pr[0], pr[1], analytic, numeric)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d live probes; test too weak", checked)
	}
}

func TestGradientFiniteDifferenceFast(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceExact(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact)
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceFullSOCS(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact) // full kernel stack
	o.Cfg.Mode = ModeFast
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceCombinedKernel(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 0 // Eq. 21 combined kernel
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferencePVBOnly(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.Alpha = 0
	o.Cfg.Beta = 1
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceSmooth(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.SmoothWeight = 0.5
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceTruncatedKernels(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 3 // truncated, renormalized stack
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceExactWithSmooth(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact)
	o.Cfg.SmoothWeight = 0.25
	checkGradient(t, o, layout)
}

func TestTruncatedStackOpenFrameUnit(t *testing.T) {
	// The renormalized truncated stack must image a clear mask to
	// intensity 1 so the resist threshold keeps its calibration.
	o, _ := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 3
	models, err := o.buildModels()
	if err != nil {
		t.Fatal(err)
	}
	m := models[0]
	dc := 0.0
	for i, f := range m.freqs {
		v := f.At(m.k, m.k)
		dc += m.weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if diff := dc - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("truncated open-frame intensity %g, want 1", dc)
	}
}

// cornerGradient is the per-corner reference for gradient: every corner
// runs its own adjoint pass on its own W_c, instead of one pass per focus
// on the summed W_f. The two agree up to floating-point summation order.
func cornerGradient(o *Optimizer, st *iterState, mask, target *grid.Field) *grid.Field {
	cfg := o.Cfg
	thetaZ := o.Sim.Resist.ThetaZ
	grad := grid.New(mask.W, mask.H)
	for fi := range st.foci {
		fs := &st.foci[fi]
		for j, c := range fs.model.corners {
			ci := fs.model.index[j]
			if (ci == 0 && cfg.Alpha == 0) || (ci > 0 && cfg.Beta == 0) {
				continue
			}
			z := st.z[ci]
			w := grid.New(mask.W, mask.H)
			for i, v := range z.Data {
				d := v - target.Data[i]
				var dFdZ float64
				switch {
				case ci > 0:
					dFdZ = cfg.Beta * 2 * d
				case cfg.Mode == ModeFast:
					dFdZ = cfg.Alpha * cfg.Gamma * ipow(d, int(cfg.Gamma)-1)
				default:
					dFdZ = cfg.Alpha * st.epeW.Data[i] * 2 * d
				}
				w.Data[i] = dFdZ * (thetaZ * v * (1 - v) * c.Dose)
			}
			adjoint(grad, fs, w)
		}
	}
	if cfg.SmoothWeight > 0 {
		smoothGradient(grad, mask, cfg.SmoothWeight)
	}
	return grad
}

// fullGridAdjoint is the mask-grid reference for adjoint: it rebuilds
// every field A_k on the full n x n grid and runs the per-kernel products
// and forward transforms there, as the optimizer did before the image
// grid. The two agree up to transform rounding.
func fullGridAdjoint(grad *grid.Field, st *iterState, fs *focusState, w *grid.Field) {
	m := fs.model
	bw := 2*m.k + 1
	n := grad.W
	focusBlk := grid.NewC(bw, bw)
	for ki, kf := range m.freqs {
		fblk := grid.NewC(bw, bw)
		for i, v := range st.specBand.Data {
			fblk.Data[i] = v * kf.Data[i]
		}
		term := grid.NewC(n, n)
		fft.InverseBandLimited(fblk, n, n, term)
		for i, av := range term.Data {
			term.Data[i] = av * complex(w.Data[i], 0)
		}
		blk := grid.NewC(bw, bw)
		fft.ForwardBandLimited(term, m.k, blk)
		scale := complex(2*m.weights[ki], 0)
		for i, kv := range kf.Data {
			focusBlk.Data[i] += blk.Data[i] * complex(real(kv), -imag(kv)) * scale
		}
	}
	field := grid.NewC(n, n)
	fft.InverseBandLimited(focusBlk, n, n, field)
	for i, v := range field.Data {
		grad.Data[i] += real(v)
	}
}

// referenceGradient is gradient with fullGridAdjoint in place of adjoint.
func referenceGradient(o *Optimizer, st *iterState, mask, target *grid.Field) *grid.Field {
	grad := grid.New(mask.W, mask.H)
	for fi := range st.foci {
		fs := &st.foci[fi]
		if w := o.focusWeight(st, fs.model, target); w != nil {
			fullGridAdjoint(grad, st, fs, w)
		}
	}
	if o.Cfg.SmoothWeight > 0 {
		smoothGradient(grad, mask, o.Cfg.SmoothWeight)
	}
	return grad
}

// gradientCases are the objective configurations the gradient reference
// tests cover: both modes, and each of the target and PV-band terms alone.
var gradientCases = []struct {
	name string
	mode Mode
	edit func(*Config)
}{
	{"fast", ModeFast, func(*Config) {}},
	{"exact", ModeExact, func(*Config) {}},
	{"alpha0", ModeFast, func(c *Config) { c.Alpha, c.Beta = 0, 1 }},
	{"beta0", ModeExact, func(c *Config) { c.Beta = 0 }},
}

// compareGradient evaluates the optimizer's gradient on a mid-descent mask
// (so every corner's sigmoid is live) and requires the reference ref to
// reproduce it to 1e-12 relative per pixel, with a floor of 1e-14 of the
// gradient's scale: where the gradient crosses zero, transform rounding
// (relative to the whole field) dominates the pixel.
func compareGradient(t *testing.T, o *Optimizer, layout *geom.Layout,
	ref func(o *Optimizer, st *iterState, mask, target *grid.Field) *grid.Field) {
	t.Helper()
	n := o.Sim.Cfg.GridSize
	target := layout.Rasterize(n, o.Sim.Cfg.PixelNM)
	samples := layout.SamplePoints(o.Cfg.EPESampleNM)
	models, err := o.buildModels()
	if err != nil {
		t.Fatal(err)
	}
	mask := maskFromParams(paramsFromMask(o.InitialMask(target), o.Cfg.ThetaM), o.Cfg.ThetaM)
	st := o.evalState(mask, models, target, samples)
	defer st.release()
	got := o.gradient(st, mask, target)
	want := ref(o, st, mask, target)
	lo, hi := want.MinMax()
	if lo == 0 && hi == 0 {
		t.Fatal("reference gradient identically zero")
	}
	scale := math.Max(-lo, hi)
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Abs(g-w) > 1e-12*math.Max(math.Abs(g), math.Abs(w))+1e-14*scale {
			t.Fatalf("pixel %d: gradient %.17g vs reference %.17g", i, g, w)
		}
	}
}

// TestGradientMatchesPerCornerReference: merging the corners of one focus
// into a single adjoint pass reproduces the per-corner gradient.
func TestGradientMatchesPerCornerReference(t *testing.T) {
	for _, tc := range gradientCases {
		t.Run(tc.name, func(t *testing.T) {
			o, layout := testOptimizer(t, tc.mode)
			tc.edit(&o.Cfg)
			compareGradient(t, o, layout, cornerGradient)
		})
	}
}

// TestAdjointMatchesFullGridReference: running the adjoint on the image
// grid (W_f low-passed and decimated, per-kernel products and forward
// transforms at m x m) reproduces the full mask-grid adjoint. At the test
// optimizer's 8 nm pixels the 64 px grid images on m = 32; at 16 nm the
// window is 1024 nm, m = n = 64 and the resampling is skipped.
func TestAdjointMatchesFullGridReference(t *testing.T) {
	for _, g := range []struct {
		pixelNM float64
		m       int
	}{{8, 32}, {16, 64}} {
		for _, tc := range gradientCases {
			t.Run(fmt.Sprintf("%gnm/%s", g.pixelNM, tc.name), func(t *testing.T) {
				o, layout := testOptimizer(t, tc.mode)
				tc.edit(&o.Cfg)
				o.Sim.Cfg.PixelNM = g.pixelNM
				if m := o.Sim.ImageGrid(o.Sim.Cfg.BandLimitK(), o.Cfg.GradKernels); m != g.m {
					t.Fatalf("image grid %d, want %d", m, g.m)
				}
				compareGradient(t, o, layout, referenceGradient)
			})
		}
	}
}

// TestIterationTransformCount pins the pruned-FFT budget of one ModeFast
// iteration with 8 gradient kernels at two foci, on a 64 px mask grid
// (n) whose image grid is 32 px (m):
//
//	forward: mask spectrum (1, n); per focus the intensity's band-2k
//	         block (1, m), W_f's band-2k block (1, n) and one adjoint
//	         product per kernel (8, m) -> 1 + 2*(1+1+8) = 21
//	inverse: per focus one field per kernel (8, m), the intensity
//	         interpolated to the mask grid (1, n), W_f decimated to the
//	         image grid (1, m) and the adjoint's one inverse (1, n)
//	         -> 2*(8+1+1+1) = 22
//
// Before the image grid it was 17 / 18, every transform at n.
func TestIterationTransformCount(t *testing.T) {
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 10
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 1
	o, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, layout := testOptimizer(t, ModeFast)
	if _, err := s.Kernels(cfg.DefocusNM); err != nil { // warm the kernel cache
		t.Fatal(err)
	}
	fwd := obs.NewCounter("fft_pruned_forward_total")
	inv := obs.NewCounter("fft_pruned_inverse_total")
	f0, i0 := fwd.Value(), inv.Value()
	res, err := o.Run(layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("ran %d iterations, want 1", res.Iterations)
	}
	if df, di := fwd.Value()-f0, inv.Value()-i0; df != 21 || di != 22 {
		t.Fatalf("one iteration ran %d forward / %d inverse pruned FFTs, want 21 / 22", df, di)
	}
}
