// Package sim composes the optical projection model and the photoresist
// model into the forward lithography simulator of Fig. 1: mask M -> aerial
// image I -> printed pattern Z, evaluated at arbitrary process corners
// (defocus and dose). It provides both the full SOCS imaging path of Eq. 2
// and the combined single-kernel fast path of Eq. 21, plus threshold
// calibration so printed features land on target for well-resolved shapes.
package sim

import (
	"fmt"

	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
)

// Corner is one lithography process condition. Dose scales the aerial
// image intensity before resist thresholding; DefocusNM selects the
// defocused optical kernel set.
type Corner struct {
	Name      string
	DefocusNM float64
	Dose      float64
}

// Nominal returns the nominal process condition (best focus, unit dose).
func Nominal() Corner { return Corner{Name: "nominal", DefocusNM: 0, Dose: 1} }

// spanLabel names the per-corner timing span; unnamed ad-hoc corners
// share one label so the metric set stays bounded.
func (c Corner) spanLabel() string {
	if c.Name == "" {
		return "custom"
	}
	return c.Name
}

// ProcessCorners returns the corner set used throughout the paper's
// experiments: nominal plus the two extreme corners of a +/-defocusNM,
// +/-doseDelta process window (defocused under- and over-dose). The paper
// uses defocusNM = 25 and doseDelta = 0.02.
func ProcessCorners(defocusNM, doseDelta float64) []Corner {
	return []Corner{
		Nominal(),
		{Name: "inner", DefocusNM: defocusNM, Dose: 1 - doseDelta},
		{Name: "outer", DefocusNM: defocusNM, Dose: 1 + doseDelta},
	}
}

// Focus is the set of corners that share one defocus. Dose only rescales
// intensity at the resist step, so they share one set of coherent fields
// and one aerial image; a Focus is imaged once and printed per corner.
type Focus struct {
	DefocusNM float64
	Index     []int // positions of the focus's corners in the corner slice, ascending
}

// GroupByFocus groups corners by DefocusNM, in order of first appearance.
// For ProcessCorners that is nominal first, then the inner/outer pair.
func GroupByFocus(corners []Corner) []Focus {
	var foci []Focus
next:
	for i, c := range corners {
		for fi := range foci {
			if foci[fi].DefocusNM == c.DefocusNM {
				foci[fi].Index = append(foci[fi].Index, i)
				continue next
			}
		}
		foci = append(foci, Focus{DefocusNM: c.DefocusNM, Index: []int{i}})
	}
	return foci
}

// Simulator evaluates the forward lithography process for one optical
// configuration and resist model. It caches kernel sets per defocus via the
// optics package and is safe for concurrent use.
type Simulator struct {
	Cfg    optics.Config
	Resist resist.Model
}

// New validates cfg and returns a Simulator.
func New(cfg optics.Config, rm resist.Model) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rm.ThetaZ <= 0 {
		return nil, fmt.Errorf("sim: resist steepness must be positive, got %g", rm.ThetaZ)
	}
	return &Simulator{Cfg: cfg, Resist: rm}, nil
}

// Kernels returns the (cached) SOCS kernel set for the given defocus.
func (s *Simulator) Kernels(defocusNM float64) (*optics.KernelSet, error) {
	return optics.Kernels(s.Cfg, defocusNM)
}

// Spectrum returns the full 2-D FFT of the mask.
func (s *Simulator) Spectrum(mask *grid.Field) *grid.CField {
	if mask.W != s.Cfg.GridSize || mask.H != s.Cfg.GridSize {
		panic(fmt.Sprintf("sim: mask %dx%d does not match grid size %d", mask.W, mask.H, s.Cfg.GridSize))
	}
	spec := grid.ToComplex(mask)
	fft.Forward2D(spec)
	return spec
}

// SpectrumBand returns the central band-limited block (half-width k) of
// the mask's 2-D FFT — the only part of the spectrum the imaging system
// can pass — computed with the pruned real-input forward transform. The
// returned block comes from the workspace pool; release it with grid.PutC
// when done.
func (s *Simulator) SpectrumBand(mask *grid.Field, k int) *grid.CField {
	if mask.W != s.Cfg.GridSize || mask.H != s.Cfg.GridSize {
		panic(fmt.Sprintf("sim: mask %dx%d does not match grid size %d", mask.W, mask.H, s.Cfg.GridSize))
	}
	blk := grid.GetC(2*k+1, 2*k+1)
	fft.ForwardBandLimitedReal(mask, k, blk)
	return blk
}

// FieldFromSpectrum convolves the mask (given by its full spectrum) with
// one kernel (given by its frequency response on the central block of
// half-width K) and returns the complex optical field on the full mask
// grid. This is the test reference; the imaging paths go through
// FieldFromSpectrumBand, which the equivalence tests pin to this one.
func (s *Simulator) FieldFromSpectrum(spec *grid.CField, kf *grid.CField, k int) *grid.CField {
	n := s.Cfg.GridSize
	out := grid.NewC(n, n)
	for dy := -k; dy <= k; dy++ {
		sy := (dy + n) % n
		for dx := -k; dx <= k; dx++ {
			sx := (dx + n) % n
			out.Set(sx, sy, spec.At(sx, sy)*kf.At(dx+k, dy+k))
		}
	}
	fft.Inverse2D(out)
	return out
}

// ImageGrid returns the side m of the grid that a stack of the given
// number of coherent kernels, of frequency half-width k, images on. Each coherent field has
// band k, so the aerial intensity sum_k w_k |A_k|^2 has band 2k and is
// fully determined by its samples on any grid wider than 4k; the
// adjoint's products W.A_k need the same width (see ilt's adjoint). m is
// the smallest power of two above 4k, capped at the mask grid: for a
// 1024 nm window (k = 14) it is 64, whatever the mask's pixel size. A
// single-kernel stack (the Eq. 21 combined kernel) stays on the mask
// grid: moving its intensity and adjoint weight between the grids costs
// more than the one field transform per pass that the image grid
// shrinks. Both rules follow from the optics and the stack; neither is a
// tuning knob.
func (s *Simulator) ImageGrid(k, kernels int) int {
	if kernels < 2 {
		return s.Cfg.GridSize
	}
	return min(s.Cfg.GridSize, fft.NextPow2(4*k+1))
}

// FieldFromSpectrumBand convolves the band-limited mask spectrum (as
// returned by SpectrumBand) with one kernel's frequency response and
// returns the complex optical field on the m x m grid of its stack (m =
// ImageGrid): the field's samples at every (n/m)-th mask pixel, using the
// pruned inverse transform. The returned field comes from the workspace
// pool; release it with grid.PutC when done.
func (s *Simulator) FieldFromSpectrumBand(specBand, kf *grid.CField, k, m int) *grid.CField {
	scale := complex(fft.GridScale(s.Cfg.GridSize, m), 0)
	blk := grid.GetC(2*k+1, 2*k+1)
	for i, v := range specBand.Data {
		blk.Data[i] = v * kf.Data[i] * scale
	}
	out := grid.GetC(m, m)
	fft.InverseBandLimited(blk, m, m, out)
	grid.PutC(blk)
	return out
}

// MaskImage writes the mask-grid (n x n) form of the image-grid intensity
// im into dst. im is a sum of |A|^2 over fields of band half-width k, so
// it has band 2k, which ImageGrid's m > 4k samples without aliasing: the
// Fourier interpolation is exact up to rounding. When the two grids
// coincide im is copied.
func (s *Simulator) MaskImage(dst, im *grid.Field, k int) {
	if im.W == dst.W {
		copy(dst.Data, im.Data)
		return
	}
	fft.Resample(im, 2*k, dst)
}

// Aerial computes the aerial image with the full SOCS stack (Eq. 2):
// I = sum_k w_k |M conv h_k|^2 at the corner's defocus. Dose is NOT applied
// here; it scales intensity at the resist step. The fields and their
// intensity live on the ImageGrid, which is interpolated to the mask grid
// once. Kernel convolutions run in parallel across available cores, each
// worker chunk accumulating into its own pooled partial image; the
// partials merge serially in chunk order, so the floating-point sum — and
// hence the image — is bit-deterministic regardless of how the chunks were
// scheduled.
func (s *Simulator) Aerial(mask *grid.Field, c Corner) (*grid.Field, error) {
	ks, err := s.Kernels(c.DefocusNM)
	if err != nil {
		return nil, err
	}
	defer obs.Span("sim.aerial." + c.spanLabel()).End()
	spec := s.SpectrumBand(mask, ks.K)
	m := s.ImageGrid(ks.K, len(ks.Freqs))
	im := grid.Get(m, m).Zero()
	parts := make([]*grid.Field, len(ks.Freqs)) // indexed by chunk lo
	par.ForChunks(len(ks.Freqs), func(lo, hi int) {
		part := grid.Get(m, m).Zero()
		for i := lo; i < hi; i++ {
			field := s.FieldFromSpectrumBand(spec, ks.Freqs[i], ks.K, m)
			field.AccumAbs2(part, ks.Weights[i])
			grid.PutC(field)
		}
		parts[lo] = part
	})
	for _, part := range parts {
		if part == nil {
			continue
		}
		im.Add(part)
		grid.Put(part)
	}
	grid.PutC(spec)
	img := grid.New(mask.W, mask.H)
	s.MaskImage(img, im, ks.K)
	grid.Put(im)
	return img, nil
}

// AerialCombined computes the aerial image with the combined single kernel
// of Eq. 21: I ~= |M conv H|^2 where H = sum_k w_k h_k. This is the fast
// path used inside gradient descent. One kernel images on the mask grid
// (see ImageGrid).
func (s *Simulator) AerialCombined(mask *grid.Field, c Corner) (*grid.Field, error) {
	ks, err := s.Kernels(c.DefocusNM)
	if err != nil {
		return nil, err
	}
	defer obs.Span("sim.aerial_combined." + c.spanLabel()).End()
	spec := s.SpectrumBand(mask, ks.K)
	field := s.FieldFromSpectrumBand(spec, ks.Combined(), ks.K, s.ImageGrid(ks.K, 1))
	grid.PutC(spec)
	im := grid.Get(field.W, field.H).Zero()
	field.AccumAbs2(im, 1)
	grid.PutC(field)
	img := grid.New(mask.W, mask.H)
	s.MaskImage(img, im, ks.K)
	grid.Put(im)
	return img, nil
}

// PrintHard applies the hard-threshold resist (Eq. 3) at the corner's dose.
func (s *Simulator) PrintHard(aerial *grid.Field, c Corner) *grid.Field {
	return s.Resist.Print(aerial, c.Dose)
}

// PrintSoft applies the sigmoid resist (Eq. 4) at the corner's dose.
func (s *Simulator) PrintSoft(aerial *grid.Field, c Corner) *grid.Field {
	return s.Resist.PrintSigmoid(aerial, c.Dose)
}

// Simulate runs the full forward process at a corner and returns both the
// aerial image and the binary printed pattern.
func (s *Simulator) Simulate(mask *grid.Field, c Corner) (aerial, printed *grid.Field, err error) {
	aerial, err = s.Aerial(mask, c)
	if err != nil {
		return nil, nil, err
	}
	return aerial, s.PrintHard(aerial, c), nil
}

// CalibrateThreshold simulates a wide, well-resolved clear line at best
// focus and returns the aerial intensity at the line's target edge. Setting
// the resist threshold to this value makes large features print on target,
// which is the conventional constant-threshold-resist calibration. The
// returned Simulator convenience wrapper is not modified; assign the result
// to s.Resist.Threshold to adopt it.
func (s *Simulator) CalibrateThreshold() (float64, error) {
	n := s.Cfg.GridSize
	// A vertical clear line of width ~1/4 field, centered; wide enough to be
	// fully resolved at 193 nm / NA 1.35 for any sane grid.
	widthPx := n / 4
	x0 := (n - widthPx) / 2
	mask := grid.New(n, n)
	for y := 0; y < n; y++ {
		row := mask.Row(y)
		for x := x0; x < x0+widthPx; x++ {
			row[x] = 1
		}
	}
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		return 0, err
	}
	// Intensity at the left target edge, mid-height. The physical edge lies
	// at the boundary between pixels x0-1 and x0, i.e. at x0 - 0.5 in pixel
	// centers; average the two adjacent samples.
	y := n / 2
	v := 0.5 * (img.At(x0-1, y) + img.At(x0, y))
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("sim: calibration produced implausible threshold %g", v)
	}
	return v, nil
}
