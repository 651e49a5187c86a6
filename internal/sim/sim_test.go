package sim

import (
	"math"
	"slices"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

func testSim(t *testing.T) *Simulator {
	t.Helper()
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 8
	s, err := New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lineMask returns a mask with a vertical clear line of widthPx centered.
func lineMask(n, widthPx int) *grid.Field {
	m := grid.New(n, n)
	x0 := (n - widthPx) / 2
	for y := 0; y < n; y++ {
		for x := x0; x < x0+widthPx; x++ {
			m.Set(x, y, 1)
		}
	}
	return m
}

func TestProcessCorners(t *testing.T) {
	cs := ProcessCorners(25, 0.02)
	if len(cs) != 3 {
		t.Fatalf("got %d corners, want 3", len(cs))
	}
	if cs[0].DefocusNM != 0 || cs[0].Dose != 1 {
		t.Fatalf("first corner not nominal: %+v", cs[0])
	}
	if cs[1].Dose >= 1 || cs[2].Dose <= 1 {
		t.Fatalf("dose corners not bracketing: %+v %+v", cs[1], cs[2])
	}
	if cs[1].DefocusNM != 25 || cs[2].DefocusNM != 25 {
		t.Fatal("process corners must be defocused")
	}
}

func TestGroupByFocus(t *testing.T) {
	foci := GroupByFocus(ProcessCorners(25, 0.02))
	if len(foci) != 2 {
		t.Fatalf("got %d foci, want 2: %+v", len(foci), foci)
	}
	if foci[0].DefocusNM != 0 || !slices.Equal(foci[0].Index, []int{0}) {
		t.Fatalf("first focus %+v, want nominal alone", foci[0])
	}
	if foci[1].DefocusNM != 25 || !slices.Equal(foci[1].Index, []int{1, 2}) {
		t.Fatalf("second focus %+v, want the inner/outer pair", foci[1])
	}

	// Interleaved defoci keep first-appearance order and ascending indices.
	cs := []Corner{{DefocusNM: 10}, {DefocusNM: 0}, {DefocusNM: 10}, {DefocusNM: -10}, {DefocusNM: 0}}
	got := GroupByFocus(cs)
	want := []Focus{{10, []int{0, 2}}, {0, []int{1, 4}}, {-10, []int{3}}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].DefocusNM != want[i].DefocusNM || !slices.Equal(got[i].Index, want[i].Index) {
			t.Fatalf("focus %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if GroupByFocus(nil) != nil {
		t.Fatal("no corners must give no foci")
	}
}

func TestClearMaskImagesToUnity(t *testing.T) {
	s := testSim(t)
	mask := grid.New(64, 64).Fill(1)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := img.MinMax()
	if math.Abs(lo-1) > 1e-6 || math.Abs(hi-1) > 1e-6 {
		t.Fatalf("open-frame intensity range [%g, %g], want 1", lo, hi)
	}
}

func TestDarkMaskImagesToZero(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(grid.New(64, 64), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	_, hi := img.MinMax()
	if hi > 1e-12 {
		t.Fatalf("dark mask produced intensity %g", hi)
	}
}

func TestLineImageShape(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	y := 32
	center := img.At(32, y)
	far := img.At(4, y)
	if center < 0.5 {
		t.Fatalf("center of a wide line is dim: %g", center)
	}
	if far > 0.2*center {
		t.Fatalf("far field %g not dark relative to center %g", far, center)
	}
	// Intensity must decay monotonically-ish through the edge region:
	// value just outside the line is below value just inside.
	inside := img.At(26, y)
	outside := img.At(20, y)
	if outside >= inside {
		t.Fatalf("no edge falloff: inside %g outside %g", inside, outside)
	}
}

func TestImageSymmetry(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// A y-uniform mask must give a y-uniform image, symmetric about the
	// line center in x.
	for x := 0; x < 64; x++ {
		if math.Abs(img.At(x, 10)-img.At(x, 50)) > 1e-9 {
			t.Fatalf("image not uniform in y at x=%d", x)
		}
	}
	// Line occupies [24, 40): center of symmetry at x = 31.5, so pixel
	// 24+i mirrors pixel 39-i.
	for i := 0; i < 16; i++ {
		a, b := img.At(24+i, 32), img.At(39-i, 32)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("asymmetric edge response: %g vs %g at offset %d", a, b, i)
		}
	}
}

func TestCombinedApproximatesSOCS(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 16)
	full, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	comb, err := s.AerialCombined(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 21 is an approximation; demand qualitative agreement: bright
	// stays bright, dark stays dark.
	for i := range full.Data {
		f, c := full.Data[i], comb.Data[i]
		if f > 0.7 && c < 0.3 {
			t.Fatalf("combined kernel lost a bright region: full %g combined %g", f, c)
		}
		if f < 0.02 && c > 0.3 {
			t.Fatalf("combined kernel invented light: full %g combined %g", f, c)
		}
	}
}

func TestDefocusReducesContrast(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 8) // narrow line: defocus sensitive
	nom, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	def, err := s.Aerial(mask, Corner{Name: "defocus", DefocusNM: 60, Dose: 1})
	if err != nil {
		t.Fatal(err)
	}
	if def.At(32, 32) >= nom.At(32, 32) {
		t.Fatalf("defocus did not reduce peak intensity: %g vs %g", def.At(32, 32), nom.At(32, 32))
	}
}

func TestDoseShiftsPrintedEdge(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 16)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// The swing is large so the edge moves by at least one 8 nm pixel.
	under := s.PrintHard(img, Corner{Dose: 0.6})
	over := s.PrintHard(img, Corner{Dose: 1.6})
	cu := under.Sum()
	co := over.Sum()
	if co <= cu {
		t.Fatalf("overdose printed area %g not larger than underdose %g", co, cu)
	}
}

func TestPrintSoftMatchesHardAwayFromEdges(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	hard := s.PrintHard(img, Nominal())
	soft := s.PrintSoft(img, Nominal())
	for i := range hard.Data {
		// Where the sigmoid is saturated, the two must agree.
		if soft.Data[i] > 0.99 && hard.Data[i] != 1 {
			t.Fatal("soft=1 but hard=0")
		}
		if soft.Data[i] < 0.01 && hard.Data[i] != 0 {
			t.Fatal("soft=0 but hard=1")
		}
	}
}

func TestCalibrateThreshold(t *testing.T) {
	s := testSim(t)
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if thr < 0.05 || thr > 0.8 {
		t.Fatalf("calibrated threshold %g outside plausible range", thr)
	}
	// Adopting the calibrated threshold makes the calibration line print
	// at size (within a pixel).
	s.Resist.Threshold = thr
	mask := lineMask(64, 16)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	z := s.PrintHard(img, Nominal())
	printed := 0
	for x := 0; x < 64; x++ {
		if z.At(x, 32) > 0 {
			printed++
		}
	}
	if printed < 14 || printed > 18 {
		t.Fatalf("calibrated line prints %d px wide, want ~16", printed)
	}
}

func TestSimulateReturnsBoth(t *testing.T) {
	s := testSim(t)
	aerial, printed, err := s.Simulate(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if aerial == nil || printed == nil {
		t.Fatal("nil outputs")
	}
	for _, v := range printed.Data {
		if v != 0 && v != 1 {
			t.Fatalf("printed image not binary: %g", v)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	c := optics.Default()
	c.GridSize = 100
	if _, err := New(c, resist.Default()); err == nil {
		t.Fatal("bad grid size accepted")
	}
	c = optics.Default()
	if _, err := New(c, resist.Model{Threshold: 0.2, ThetaZ: 0}); err == nil {
		t.Fatal("zero resist steepness accepted")
	}
}

// TestImageGrid pins the image grid for the configurations the system
// runs: every 1024 nm window images a kernel stack on 64 px whatever its
// pixel size, a mask grid too coarse to undercut keeps the mask grid, and
// so does a single-kernel stack.
func TestImageGrid(t *testing.T) {
	for _, tc := range []struct {
		grid    int
		pixelNM float64
		kernels int
		want    int
	}{
		{128, 8, 8, 64},  // benchmark clip or tile window, 1024 nm
		{512, 2, 24, 64}, // the paper's clip grid, 1024 nm
		{64, 8, 2, 32},   // the 512 nm test window
		{16, 64, 8, 16},  // 4k+1 exceeds the grid: no smaller grid exists
		{128, 8, 1, 128}, // Eq. 21 combined kernel
	} {
		c := optics.Default()
		c.GridSize, c.PixelNM = tc.grid, tc.pixelNM
		s, err := New(c, resist.Default())
		if err != nil {
			t.Fatal(err)
		}
		k := c.BandLimitK()
		got := s.ImageGrid(k, tc.kernels)
		if got != tc.want {
			t.Errorf("%d px at %g nm (k=%d), %d kernels: ImageGrid = %d, want %d", tc.grid, tc.pixelNM, k, tc.kernels, got, tc.want)
		}
		if got < tc.grid && got <= 4*k {
			t.Errorf("%d px at %g nm: image grid %d does not exceed 4k = %d", tc.grid, tc.pixelNM, got, 4*k)
		}
	}
}
