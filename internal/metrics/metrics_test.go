package metrics

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// syntheticAerial builds an aerial image whose threshold crossing along x
// sits exactly at edgeNM: a linear ramp around the edge.
func syntheticAerial(n int, pixelNM, edgeNM, thr float64) *grid.Field {
	f := grid.New(n, n)
	slope := 0.01 // intensity per nm
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			cx := (float64(x) + 0.5) * pixelNM
			v := thr + (cx-edgeNM)*slope
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			f.Set(x, y, v)
		}
	}
	return f
}

func TestMeasureEPEExactEdge(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	// Target edge at x=100 nm; aerial crossing also at 100 nm: EPE = 0.
	aerial := syntheticAerial(128, 2, 100, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, thr, 2, samples, p)
	if res[0].Violation {
		t.Fatalf("zero-EPE sample flagged: %+v", res[0])
	}
	if res[0].EPENM > 1.5 {
		t.Fatalf("EPE %g nm, want ~0", res[0].EPENM)
	}
}

func TestMeasureEPEDisplacedEdge(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	// Printed edge at 110 nm, target at 100 nm: EPE = 10 nm, no violation
	// at th_epe = 15 nm. The printed feature is to the right (+x), so the
	// area left of the crossing is dark: inward normal +x means the
	// under-printed region extends 10 nm inside -> signed EPE +10.
	aerial := syntheticAerial(128, 2, 110, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, thr, 2, samples, p)
	if math.Abs(res[0].EPENM-10) > 1.5 {
		t.Fatalf("EPE %g, want ~10", res[0].EPENM)
	}
	if res[0].SignedNM < 0 {
		t.Fatalf("signed EPE %g, want positive (under-print)", res[0].SignedNM)
	}
	if res[0].Violation {
		t.Fatal("10 nm EPE flagged at 15 nm threshold")
	}
	// Push the edge to 120 nm: EPE = 20 -> violation.
	res = MeasureEPE(syntheticAerial(128, 2, 120, thr), 1, thr, 2, samples, p)
	if !res[0].Violation {
		t.Fatalf("20 nm EPE not flagged: %+v", res[0])
	}
}

func TestMeasureEPENoEdge(t *testing.T) {
	p := DefaultParams()
	aerial := grid.New(64, 64) // completely dark: feature never prints
	samples := []geom.Sample{{
		Pt: geom.Point{X: 64, Y: 64}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, 0.3, 2, samples, p)
	if !res[0].Violation || !math.IsInf(res[0].EPENM, 1) {
		t.Fatalf("missing edge not flagged: %+v", res[0])
	}
}

func TestMeasureEPEDose(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	aerial := syntheticAerial(128, 2, 100, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	// Overdose shifts the crossing outward (feature grows): signed EPE
	// goes negative.
	res := MeasureEPE(aerial, 1.2, thr, 2, samples, p)
	if res[0].SignedNM >= 0 {
		t.Fatalf("overdose should over-print: signed %g", res[0].SignedNM)
	}
}

func TestCountViolations(t *testing.T) {
	rs := []EPEResult{{Violation: true}, {}, {Violation: true}}
	if CountViolations(rs) != 2 {
		t.Fatal("count wrong")
	}
}

func TestPVBand(t *testing.T) {
	a := grid.New(8, 8)
	b := grid.New(8, 8)
	// a prints a 4x4 block, b prints a 2x2 sub-block: band = 12 pixels.
	for y := 2; y < 6; y++ {
		for x := 2; x < 6; x++ {
			a.Set(x, y, 1)
		}
	}
	for y := 3; y < 5; y++ {
		for x := 3; x < 5; x++ {
			b.Set(x, y, 1)
		}
	}
	band, area := PVBand([]*grid.Field{a, b}, 2)
	if area != 12*4 {
		t.Fatalf("area %g, want 48", area)
	}
	if band.At(2, 2) != 1 || band.At(3, 3) != 0 {
		t.Fatal("band pixels wrong")
	}
}

func TestPVBandIdenticalCorners(t *testing.T) {
	a := grid.New(8, 8).Fill(1)
	_, area := PVBand([]*grid.Field{a, a.Clone(), a.Clone()}, 1)
	if area != 0 {
		t.Fatalf("identical prints produced band %g", area)
	}
}

func TestScore(t *testing.T) {
	got := Score(10, 100, 2, 1)
	want := 10.0 + 4*100 + 5000*2 + 10000*1
	if got != want {
		t.Fatalf("score %g, want %g", got, want)
	}
}

func TestShapeViolations(t *testing.T) {
	f := grid.New(32, 32)
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			f.Set(x, y, 1)
		}
	}
	if ShapeViolations(f) != 0 {
		t.Fatal("solid block has holes")
	}
	for y := 14; y < 18; y++ {
		for x := 14; x < 18; x++ {
			f.Set(x, y, 0)
		}
	}
	if ShapeViolations(f) != 1 {
		t.Fatal("hole not counted")
	}
}

// evalFixture is a calibrated 64 px simulator with one printing feature.
func evalFixture(t *testing.T) (*sim.Simulator, *geom.Layout, *grid.Field) {
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
	layout := &geom.Layout{
		Name:   "eval",
		SizeNM: 512,
		Polys:  []geom.Polygon{geom.Rect{X: 192, Y: 128, W: 128, H: 256}.Polygon()},
	}
	return s, layout, layout.Rasterize(64, 8)
}

func TestEvaluateEndToEnd(t *testing.T) {
	s, layout, mask := evalFixture(t)
	rep, err := Evaluate(s, mask, layout, DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Testcase != "eval" {
		t.Fatal("testcase name lost")
	}
	if rep.PVBandNM2 <= 0 {
		t.Fatal("no PV band for a printing feature")
	}
	if rep.RuntimeSec != 3 {
		t.Fatal("runtime not recorded")
	}
	wantScore := Score(3, rep.PVBandNM2, rep.EPEViolations, rep.ShapeViolations)
	if rep.Score != wantScore {
		t.Fatalf("score %g inconsistent with parts %g", rep.Score, wantScore)
	}
	if rep.PrintedNominal == nil || rep.AerialNominal == nil || rep.PVBand == nil {
		t.Fatal("report images missing")
	}
	if len(rep.EPEResults) == 0 {
		t.Fatal("no EPE samples measured")
	}
}

// TestEvaluateImagesEachFocusOnce: the dose-only inner/outer corners share
// one aerial image, so evaluation simulates once per distinct defocus and
// still reproduces a corner-by-corner evaluation bit for bit.
func TestEvaluateImagesEachFocusOnce(t *testing.T) {
	s, layout, mask := evalFixture(t)
	p := DefaultParams()
	var calls []float64
	counting := func(m *grid.Field, c sim.Corner) (*grid.Field, error) {
		calls = append(calls, c.DefocusNM)
		return s.Aerial(m, c)
	}
	rep, err := EvaluateWith(counting, s.Resist, s.Cfg.PixelNM, mask, layout, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(calls, []float64{0, p.DefocusNM}) {
		t.Fatalf("aerial ran at defoci %v, want one run per focus [0 %g]", calls, p.DefocusNM)
	}

	// Reference: image and print every corner independently.
	corners := sim.ProcessCorners(p.DefocusNM, p.DoseDelta)
	printed := make([]*grid.Field, len(corners))
	var nominal *grid.Field
	for i, c := range corners {
		img, err := s.Aerial(mask, c)
		if err != nil {
			t.Fatal(err)
		}
		printed[i] = s.Resist.Print(img, c.Dose)
		if i == 0 {
			nominal = img
		}
	}
	band, area := PVBand(printed, s.Cfg.PixelNM)
	epes := MeasureEPE(nominal, 1, s.Resist.Threshold, s.Cfg.PixelNM, layout.SamplePoints(p.EPESampleNM), p)
	if rep.PVBandNM2 != area || !slices.Equal(rep.PVBand.Data, band.Data) {
		t.Fatalf("PV band %g differs from the corner-by-corner reference %g", rep.PVBandNM2, area)
	}
	if !slices.Equal(rep.EPEResults, epes) {
		t.Fatal("EPE results differ from the corner-by-corner reference")
	}
	if !slices.Equal(rep.PrintedNominal.Data, printed[0].Data) || !slices.Equal(rep.AerialNominal.Data, nominal.Data) {
		t.Fatal("nominal images differ from the corner-by-corner reference")
	}
	if rep.ShapeViolations != ShapeViolations(printed[0]) {
		t.Fatal("shape violations differ from the corner-by-corner reference")
	}
}

// TestEvaluateCancelBetweenSimulations: a context canceled during the
// first simulation stops evaluation before the next one.
func TestEvaluateCancelBetweenSimulations(t *testing.T) {
	s, layout, mask := evalFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	canceling := func(m *grid.Field, c sim.Corner) (*grid.Field, error) {
		calls++
		cancel()
		return s.Aerial(m, c)
	}
	rep, err := EvaluateWithCtx(ctx, canceling, s.Resist, s.Cfg.PixelNM, mask, layout, DefaultParams(), 0)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("got report %v, err %v; want a context.Canceled error", rep, err)
	}
	if calls != 1 {
		t.Fatalf("aerial ran %d times after cancellation, want 1", calls)
	}
}

func TestBilinearInterpolation(t *testing.T) {
	f := grid.FromRows([][]float64{{0, 1}, {2, 3}})
	// Centers: (0.5,0.5)=0, (1.5,0.5)=1, (0.5,1.5)=2, (1.5,1.5)=3 at px=1.
	if got := bilinear(f, 0.5, 0.5, 1); got != 0 {
		t.Fatalf("at center: %g", got)
	}
	if got := bilinear(f, 1.0, 0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("midpoint x: %g", got)
	}
	if got := bilinear(f, 1.0, 1.0, 1); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("center of 4: %g", got)
	}
	// Clamping outside the grid.
	if got := bilinear(f, -5, -5, 1); got != 0 {
		t.Fatalf("clamped corner: %g", got)
	}
}
