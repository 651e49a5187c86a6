package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

func randBlock(k int, rng *rand.Rand) *grid.CField {
	blk := grid.NewC(2*k+1, 2*k+1)
	for i := range blk.Data {
		blk.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return blk
}

func maxAbsDiff(a, b *grid.CField) float64 {
	m := 0.0
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// TestInverseBandLimitedMatchesReference pins the pruned inverse to the
// naive EmbedCenter + Inverse2D reference over several K values, square
// and rectangular grids, with a dirty destination buffer.
func TestInverseBandLimitedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ w, h, k int }{
		{16, 16, 1}, {32, 32, 3}, {64, 64, 9}, {128, 128, 14}, {64, 64, 31},
		{32, 64, 5}, {64, 32, 7}, // rectangular fallback path
	}
	for _, tc := range cases {
		blk := randBlock(tc.k, rng)
		want := EmbedCenter(blk, tc.w, tc.h)
		Inverse2D(want)
		dst := grid.NewC(tc.w, tc.h)
		for i := range dst.Data {
			dst.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()) // dirty
		}
		InverseBandLimited(blk, tc.w, tc.h, dst)
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Errorf("%dx%d k=%d: pruned inverse differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
	}
}

// TestForwardBandLimitedMatchesReference pins the pruned forward transform
// to Forward2D + ExtractCenter.
func TestForwardBandLimitedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct{ w, h, k int }{
		{16, 16, 2}, {64, 64, 9}, {128, 128, 14}, {32, 64, 5}, {64, 32, 7},
	}
	for _, tc := range cases {
		src := grid.NewC(tc.w, tc.h)
		for i := range src.Data {
			src.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ref := src.Clone()
		Forward2D(ref)
		want := ExtractCenter(ref, tc.k)
		blk := grid.NewC(2*tc.k+1, 2*tc.k+1)
		ForwardBandLimited(src, tc.k, blk) // destroys src
		if d := maxAbsDiff(blk, want); d > 1e-9 {
			t.Errorf("%dx%d k=%d: pruned forward differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
	}
}

// TestForwardBandLimitedRealMatchesReference pins the packed real-input
// forward transform to the complex reference on random masks, including an
// odd (non-paired) trailing row count via h=1 grids... heights here are
// powers of two, so the pairing always divides evenly; the h=1 case
// exercises the single-row tail.
func TestForwardBandLimitedRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := []struct{ w, h, k int }{
		{16, 16, 2}, {64, 64, 9}, {128, 128, 14}, {32, 64, 5}, {64, 32, 7},
	}
	for _, tc := range cases {
		mask := grid.New(tc.w, tc.h)
		for i := range mask.Data {
			if rng.Float64() < 0.3 {
				mask.Data[i] = 1 // binary, like a real mask
			}
		}
		ref := grid.ToComplex(mask)
		Forward2D(ref)
		want := ExtractCenter(ref, tc.k)
		blk := grid.NewC(2*tc.k+1, 2*tc.k+1)
		ForwardBandLimitedReal(mask, tc.k, blk)
		if d := maxAbsDiff(blk, want); d > 1e-9 {
			t.Errorf("%dx%d k=%d: real packed forward differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
	}
}

// TestBandLimitedRoundTrip: forward band extraction followed by the pruned
// inverse must reproduce a band-limited field exactly.
func TestBandLimitedRoundTrip(t *testing.T) {
	const n, k = 64, 6
	rng := rand.New(rand.NewSource(45))
	blk := randBlock(k, rng)
	field := grid.NewC(n, n)
	InverseBandLimited(blk, n, n, field)
	back := grid.NewC(2*k+1, 2*k+1)
	ForwardBandLimited(field, k, back) // destroys field
	if d := maxAbsDiff(back, blk); d > 1e-12 {
		t.Fatalf("band round trip error %g", d)
	}
}

func TestInverseBandLimitedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"even block":  func() { InverseBandLimited(grid.NewC(4, 4), 16, 16, grid.NewC(16, 16)) },
		"rect block":  func() { InverseBandLimited(grid.NewC(3, 5), 16, 16, grid.NewC(16, 16)) },
		"block>grid":  func() { InverseBandLimited(grid.NewC(9, 9), 8, 8, grid.NewC(8, 8)) },
		"wrong dst":   func() { InverseBandLimited(grid.NewC(3, 3), 16, 16, grid.NewC(8, 8)) },
		"fwd mistfit": func() { ForwardBandLimited(grid.NewC(16, 16), 3, grid.NewC(5, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPrunedCountersVisible: the pruned-transform counters must show up in
// a metrics dump after the pruned paths run.
func TestPrunedCountersVisible(t *testing.T) {
	blk := grid.NewC(3, 3)
	blk.Set(1, 1, 1)
	dst := grid.NewC(16, 16)
	InverseBandLimited(blk, 16, 16, dst)
	ForwardBandLimited(dst, 1, blk)
	txt := obs.MetricsText()
	for _, name := range []string{"fft_pruned_inverse_total", "fft_pruned_forward_total"} {
		if !strings.Contains(txt, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
	if prunedInverse.Value() == 0 || prunedForward.Value() == 0 {
		t.Error("pruned counters did not advance")
	}
}

// TestResampleMatchesReference pins Resample to the full-transform
// reference Forward2D + ExtractCenter + EmbedCenter + Inverse2D, scaled by
// GridScale, onto a coarser grid (low-pass and decimate), a finer one
// (Fourier interpolation) and the same one (low-pass only).
func TestResampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cases := []struct{ src, dst, b int }{
		{128, 64, 28}, {64, 128, 28}, {64, 32, 14}, {32, 64, 14},
		{64, 64, 14}, {128, 128, 28}, {16, 16, 7},
	}
	for _, tc := range cases {
		src := grid.New(tc.src, tc.src)
		for i := range src.Data {
			if rng.Float64() < 0.3 {
				src.Data[i] = 1
			}
		}
		ref := grid.ToComplex(src)
		Forward2D(ref)
		spec := EmbedCenter(ExtractCenter(ref, tc.b), tc.dst, tc.dst)
		Inverse2D(spec)
		scale := GridScale(tc.src, tc.dst)
		dst := grid.New(tc.dst, tc.dst).Fill(7) // dirty
		Resample(src, tc.b, dst)
		maxDiff := 0.0
		for i, v := range dst.Data {
			if d := math.Abs(v - scale*real(spec.Data[i])); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-12 {
			t.Errorf("%d -> %d b=%d: Resample differs from reference by %g", tc.src, tc.dst, tc.b, maxDiff)
		}
	}
}

// TestResampleInterpolatesIntensityExactly is the image-grid argument in
// one test: a field A with band half-width k has an intensity |A|^2 of
// band 2k, so its samples on any grid wider than 4k determine it. |A|^2
// taken on an m x m grid with m > 4k and interpolated to n x n must equal
// |A|^2 taken on the n x n grid directly.
func TestResampleInterpolatesIntensityExactly(t *testing.T) {
	const n, m, k = 128, 64, 14 // 4k+1 = 57 <= m
	rng := rand.New(rand.NewSource(47))
	blk := randBlock(k, rng)
	intensity := func(size int) *grid.Field {
		b := blk.Clone()
		s := complex(GridScale(n, size), 0)
		for i := range b.Data {
			b.Data[i] *= s
		}
		a := grid.NewC(size, size)
		InverseBandLimited(b, size, size, a)
		return a.Abs2()
	}
	want := intensity(n)
	got := grid.New(n, n)
	Resample(intensity(m), 2*k, got)
	lo, hi := want.MinMax()
	tol := 1e-12 * math.Max(-lo, hi)
	for i, v := range got.Data {
		if d := math.Abs(v - want.Data[i]); d > tol {
			t.Fatalf("pixel %d: interpolated %g vs direct %g (diff %g)", i, v, want.Data[i], d)
		}
	}
}

func TestGridScale(t *testing.T) {
	if s := GridScale(128, 64); s != 0.25 {
		t.Errorf("GridScale(128, 64) = %g, want 0.25", s)
	}
	if s := GridScale(64, 512); s != 64 {
		t.Errorf("GridScale(64, 512) = %g, want 64", s)
	}
	if s := GridScale(64, 64); s != 1 {
		t.Errorf("GridScale(64, 64) = %g, want 1", s)
	}
}
