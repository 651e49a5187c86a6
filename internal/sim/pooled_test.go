package sim

import (
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

// randMask returns a random binary mask, the adversarial input for the
// pruned-path equivalence checks.
func randMask(n int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	m := grid.New(n, n)
	for i := range m.Data {
		if rng.Float64() < 0.35 {
			m.Data[i] = 1
		}
	}
	return m
}

// TestBandPipelineMatchesReference pins the pooled band-limited convolution
// (SpectrumBand + FieldFromSpectrumBand, on the m x m image grid) to the
// naive reference (Spectrum + FieldFromSpectrum, i.e. EmbedCenter-
// equivalent multiply + full Inverse2D on the n x n mask grid) sampled at
// every (n/m)-th pixel, at 1e-12 over random masks and every SOCS kernel.
func TestBandPipelineMatchesReference(t *testing.T) {
	s := testSim(t)
	ks, err := s.Kernels(0)
	if err != nil {
		t.Fatal(err)
	}
	n, m := s.Cfg.GridSize, s.ImageGrid(ks.K, len(ks.Freqs))
	if m >= n {
		t.Fatalf("image grid %d does not undercut the %d mask grid; the test would not exercise it", m, n)
	}
	step := n / m
	for seed := int64(0); seed < 3; seed++ {
		mask := randMask(n, seed)
		ref := s.Spectrum(mask)
		band := s.SpectrumBand(mask, ks.K)
		for ki, kf := range ks.Freqs {
			want := s.FieldFromSpectrum(ref, kf, ks.K)
			got := s.FieldFromSpectrumBand(band, kf, ks.K, m)
			if got.W != m || got.H != m {
				t.Fatalf("field is %dx%d, want the %d image grid", got.W, got.H, m)
			}
			maxDiff := 0.0
			for y := 0; y < m; y++ {
				for x := 0; x < m; x++ {
					if d := cmplx.Abs(got.At(x, y) - want.At(x*step, y*step)); d > maxDiff {
						maxDiff = d
					}
				}
			}
			grid.PutC(got)
			if maxDiff > 1e-12 {
				t.Fatalf("seed %d kernel %d: band pipeline differs from reference by %g", seed, ki, maxDiff)
			}
		}
		grid.PutC(band)
	}
}

// TestAerialMatchesReferenceSum pins the worker-local-accumulator Aerial,
// imaged on the image grid and interpolated to the mask grid, against an
// explicit per-kernel reference sum on the mask grid: at 8 nm pixels
// (m = 32 < n = 64) and at 16 nm (a 1024 nm window, m = n = 64).
func TestAerialMatchesReferenceSum(t *testing.T) {
	for _, px := range []float64{8, 16} {
		s := testSim(t)
		s.Cfg.PixelNM = px
		ks, err := s.Kernels(0)
		if err != nil {
			t.Fatal(err)
		}
		mask := randMask(s.Cfg.GridSize, 7)
		got, err := s.Aerial(mask, Nominal())
		if err != nil {
			t.Fatal(err)
		}
		spec := s.Spectrum(mask)
		want := grid.New(mask.W, mask.H)
		for i, kf := range ks.Freqs {
			s.FieldFromSpectrum(spec, kf, ks.K).AccumAbs2(want, ks.Weights[i])
		}
		if !got.Equal(want, 1e-12) {
			t.Fatalf("%g nm: Aerial (image grid %d) differs from the reference SOCS sum", px, s.ImageGrid(ks.K, len(ks.Freqs)))
		}
	}
}

// TestConcurrentAerialSharedPools stress-tests concurrent Aerial and
// AerialCombined calls sharing the FFT plan cache and the workspace pools;
// run under -race by make check. Each goroutine checks its result against
// a serially computed golden image, so cross-goroutine buffer aliasing
// would be caught as data corruption even without the race detector.
func TestConcurrentAerialSharedPools(t *testing.T) {
	s := testSim(t)
	corners := ProcessCorners(25, 0.02)
	masks := make([]*grid.Field, 4)
	goldenFull := make([]*grid.Field, len(masks))
	goldenComb := make([]*grid.Field, len(masks))
	for i := range masks {
		masks[i] = randMask(s.Cfg.GridSize, int64(100+i))
		var err error
		if goldenFull[i], err = s.Aerial(masks[i], corners[i%len(corners)]); err != nil {
			t.Fatal(err)
		}
		if goldenComb[i], err = s.AerialCombined(masks[i], corners[i%len(corners)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(masks)
				c := corners[i%len(corners)]
				full, err := s.Aerial(masks[i], c)
				if err != nil {
					errCh <- err
					return
				}
				comb, err := s.AerialCombined(masks[i], c)
				if err != nil {
					errCh <- err
					return
				}
				if !full.Equal(goldenFull[i], 1e-12) || !comb.Equal(goldenComb[i], 1e-12) {
					t.Errorf("goroutine %d rep %d: concurrent result diverged from golden", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConvolutionCountersVisible: after the band pipeline runs, the pruned
// transform and pool counters must appear in the /metrics dump.
func TestConvolutionCountersVisible(t *testing.T) {
	s := testSim(t)
	if _, err := s.AerialCombined(lineMask(64, 10), Nominal()); err != nil {
		t.Fatal(err)
	}
	txt := obs.MetricsText()
	for _, name := range []string{
		"fft_pruned_inverse_total",
		"fft_pruned_forward_total",
		"grid_pool_cfield_hits_total",
		"grid_pool_field_hits_total",
	} {
		if !strings.Contains(txt, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
}
