package fft

import (
	"fmt"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/par"
)

// Band-limited pruned transforms.
//
// The imaging system passes no energy outside the central (2k+1)^2
// frequency block, so every convolution in the hot loop transforms a
// spectrum that is zero almost everywhere (inverse direction) or whose
// output is discarded almost everywhere (forward direction). A separable
// 2-D FFT lets both directions skip one full pass:
//
//   - Inverse: only 2k+1 spectrum rows are nonzero, so the row pass runs
//     2k+1 length-W FFTs instead of H. The column pass still needs all W
//     transforms because the spatial output is dense. Work drops from
//     (H + W) 1-D FFTs to (2k+1 + W), a bit under half for k << H, and one
//     of the two cache-blocked transposes disappears because the pruned
//     row pass scatters directly into transposed layout.
//   - Forward: the caller only consumes the central block, so after the
//     dense row pass the column pass runs 2k+1 FFTs instead of W, and no
//     transposes are needed at all.
//   - Real input (the mask): two real rows pack into one complex transform
//     (a + i*b), unpacked through conjugate symmetry, halving the dense row
//     pass of the forward transform on top of the column pruning.
//
// EmbedCenter + Inverse2D (and Forward2D + ExtractCenter) remain the
// reference implementations; the equivalence tests pin the pruned paths to
// them at 1e-12.

// Pruned-transform counters: how often the engine skipped work versus fell
// back to a full transform (rectangular grids take the reference path).
var (
	prunedInverse  = obs.NewCounter("fft_pruned_inverse_total")
	prunedForward  = obs.NewCounter("fft_pruned_forward_total")
	prunedFallback = obs.NewCounter("fft_pruned_fallback_total")
)

func checkBlock(blk *grid.CField, w, h int) int {
	if blk.W != blk.H || blk.W%2 != 1 {
		panic(fmt.Sprintf("fft: band block must be an odd square, got %dx%d", blk.W, blk.H))
	}
	k := blk.W / 2
	if 2*k+1 > w || 2*k+1 > h {
		panic(fmt.Sprintf("fft: band block %dx%d exceeds grid %dx%d", blk.W, blk.H, w, h))
	}
	return k
}

// InverseBandLimited computes the normalized inverse 2-D FFT of the w x h
// spectrum whose only nonzero entries are the central band-limited block
// blk (indexed as produced by ExtractCenter, frequencies in [-k, k]),
// writing the spatial-domain field into dst. dst must be w x h; its prior
// contents are ignored and fully overwritten. It is equivalent to
// Inverse2D(EmbedCenter(blk, w, h)) without the embedding allocation and
// with the all-zero row transforms skipped.
func InverseBandLimited(blk *grid.CField, w, h int, dst *grid.CField) {
	k := checkBlock(blk, w, h)
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("fft: InverseBandLimited dst is %dx%d, want %dx%d", dst.W, dst.H, w, h))
	}
	if w != h {
		// Rectangular grids cannot reuse the in-place square transpose;
		// they are rare (masks are square), so take the reference path.
		prunedFallback.Inc()
		dst.Zero()
		embedInto(dst, blk, k)
		Inverse2D(dst)
		return
	}
	prunedInverse.Inc()
	n := w
	p := getPlan(n)
	dst.Zero()
	// Pruned row pass: inverse-transform the 2k+1 nonzero spectrum rows
	// into a small resident workspace, then scatter the workspace into the
	// band columns of dst so that dst holds the intermediate in transposed
	// layout and the second pass streams rows.
	rows := 2*k + 1
	ws := grid.GetC(n, rows)
	if n*n >= parallelElems {
		par.ForChunks(rows, func(lo, hi int) { inverseBandRows(ws, blk, p, lo, hi) })
	} else {
		inverseBandRows(ws, blk, p, 0, rows)
	}
	// Cache-blocked scatter: walking dst row-major (x outer) writes each
	// destination row's 2k+1 band entries as two contiguous runs — band
	// rows dy = -k..-1 to the row's tail n-k..n-1, dy = 0..k to its head
	// 0..k — and the workspace columns it reads span only 2k+1 cache lines
	// that are reused across consecutive x. The previous per-band-row
	// scatter instead made 2k+1 full stride-n passes over dst, touching
	// every cache line of a 512^2/1024^2 grid once per band row.
	for x := 0; x < n; x++ {
		d := dst.Data[x*n : x*n+n]
		for bi := 0; bi < k; bi++ {
			d[n-k+bi] = ws.Data[bi*n+x]
		}
		for bi := k; bi < rows; bi++ {
			d[bi-k] = ws.Data[bi*n+x]
		}
	}
	grid.PutC(ws)
	// Dense column pass (as rows of the transposed intermediate), with the
	// 1/(W*H) normalization folded in.
	inv := complex(1/float64(n*n), 0)
	if n*n >= parallelElems {
		par.ForChunks(n, func(lo, hi int) { inverseRowsScaled(dst, p, inv, lo, hi) })
	} else {
		inverseRowsScaled(dst, p, inv, 0, n)
	}
	transposeSquare(dst)
}

// The row and column passes below are top-level functions rather than
// closures so that a grid below parallelElems, which runs them inline,
// allocates nothing per transform: a closure handed to par.ForChunks
// escapes to the heap even on the path that never forks.

// inverseBandRows inverse-transforms band rows [lo, hi) of blk, embedded
// in zero rows of length ws.W, into the rows of the workspace ws.
func inverseBandRows(ws, blk *grid.CField, p *plan, lo, hi int) {
	n, k := ws.W, blk.W/2
	for bi := lo; bi < hi; bi++ {
		dy := bi - k
		row := ws.Row(bi)
		for i := range row {
			row[i] = 0
		}
		for dx := -k; dx <= k; dx++ {
			row[(dx+n)%n] = blk.At(dx+k, dy+k)
		}
		transform(row, p, true)
	}
}

// inverseRowsScaled inverse-transforms rows [lo, hi) of c in place and
// multiplies them by s.
func inverseRowsScaled(c *grid.CField, p *plan, s complex128, lo, hi int) {
	for y := lo; y < hi; y++ {
		r := c.Row(y)
		transform(r, p, true)
		for i := range r {
			r[i] *= s
		}
	}
}

// forwardRows forward-transforms rows [lo, hi) of c in place.
func forwardRows(c *grid.CField, p *plan, lo, hi int) {
	for y := lo; y < hi; y++ {
		transform(c.Row(y), p, false)
	}
}

// realForwardRows writes the forward transforms of the real rows [lo, hi)
// of f into the rows of ws. ph is nil for a degenerate 1-wide grid.
func realForwardRows(ws *grid.CField, f *grid.Field, pn, ph *plan, lo, hi int) {
	for y := lo; y < hi; y++ {
		if ph == nil {
			// Degenerate 1-wide grid: nothing to transform.
			ws.Row(y)[0] = complex(f.Row(y)[0], 0)
			continue
		}
		realForwardInto(ws.Row(y), f.Row(y), pn, ph)
	}
}

// bandColumnRange column-transforms band columns [lo, hi) of the
// row-transformed field ws (band column bi holds frequency bi-k) and
// writes their band rows into blk.
func bandColumnRange(ws, blk *grid.CField, ph *plan, lo, hi int) {
	w, h, k := ws.W, ws.H, blk.W/2
	scratch := grid.GetC(h, 1)
	col := scratch.Data
	for bi := lo; bi < hi; bi++ {
		dx := bi - k
		sx := (dx + w) % w
		for y := 0; y < h; y++ {
			col[y] = ws.Data[y*w+sx]
		}
		transform(col, ph, false)
		for dy := -k; dy <= k; dy++ {
			blk.Set(dx+k, dy+k, col[(dy+h)%h])
		}
	}
	grid.PutC(scratch)
}

// embedInto writes blk into the centered low-frequency positions of the
// zeroed spectrum dst (the in-place form of EmbedCenter).
func embedInto(dst *grid.CField, blk *grid.CField, k int) {
	for dy := -k; dy <= k; dy++ {
		sy := (dy + dst.H) % dst.H
		for dx := -k; dx <= k; dx++ {
			dst.Set((dx+dst.W)%dst.W, sy, blk.At(dx+k, dy+k))
		}
	}
}

// ForwardBandLimited computes the central band-limited block (half-width
// k) of the forward 2-D FFT of src into blk, which must be (2k+1)^2. Only
// the band columns are transformed in the second pass, cutting the work
// roughly in half for k << W. src is used as scratch for the row pass and
// holds unspecified contents afterwards. It is equivalent to
// ExtractCenter(Forward2D(src), k) without materializing the full spectrum.
func ForwardBandLimited(src *grid.CField, k int, blk *grid.CField) {
	checkBlock(blk, src.W, src.H)
	prunedForward.Inc()
	pw := getPlan(src.W)
	if src.W*src.H >= parallelElems {
		par.ForChunks(src.H, func(lo, hi int) { forwardRows(src, pw, lo, hi) })
	} else {
		forwardRows(src, pw, 0, src.H)
	}
	bandColumns(src, k, blk)
}

// bandColumns runs the forward column transforms for the 2k+1 band columns
// of the row-transformed field ws, extracting the band rows into blk.
func bandColumns(ws *grid.CField, k int, blk *grid.CField) {
	ph := getPlan(ws.H)
	if ws.W*ws.H >= parallelElems {
		par.ForChunks(2*k+1, func(lo, hi int) { bandColumnRange(ws, blk, ph, lo, hi) })
	} else {
		bandColumnRange(ws, blk, ph, 0, 2*k+1)
	}
}

// ForwardBandLimitedReal computes the central band-limited block of the
// forward 2-D FFT of the real field f into blk ((2k+1)^2). The dense row
// pass uses the real-input specialization (realForwardInto: one
// half-length complex transform plus an untangling butterfly per row,
// halving its cost with no cross-row coupling or per-pair scratch), and
// the column pass prunes to the 2k+1 band columns. f is not modified.
func ForwardBandLimitedReal(f *grid.Field, k int, blk *grid.CField) {
	checkBlock(blk, f.W, f.H)
	prunedForward.Inc()
	ws := grid.GetC(f.W, f.H)
	pn := getPlan(f.W)
	var ph *plan
	if f.W >= 2 {
		ph = getPlan(f.W / 2)
	}
	if f.W*f.H >= parallelElems {
		par.ForChunks(f.H, func(lo, hi int) { realForwardRows(ws, f, pn, ph, lo, hi) })
	} else {
		realForwardRows(ws, f, pn, ph, 0, f.H)
	}
	bandColumns(ws, k, blk)
	grid.PutC(ws)
}

// Grid resampling.
//
// A field whose spectrum is confined to half-width b is fully determined
// by its samples on any grid wider than 2b, so band-limited work can run
// on a grid smaller than the mask's and move between grids exactly:
// transform on one grid, keep the central block, re-synthesize on the
// other. The one subtlety is normalization. A forward transform sums over
// the source grid's samples and the inverse divides by the destination
// grid's, so a band block carried between grids must be multiplied by
// GridScale; every change of grid in the imaging path goes through it.

// GridScale returns (to/from)^2: the factor that carries a band-limited
// spectrum block from the transform of a from x from grid to the inverse
// transform of a to x to grid while keeping the field's values. Both
// sizes are powers of two, so the factor is one too and multiplying by it
// is exact.
func GridScale(from, to int) float64 {
	r := float64(to) / float64(from)
	return r * r
}

// Resample band-limits the real square field src to half-width b and
// samples the result on dst's square grid, overwriting dst: the
// trigonometric interpolant of src's central (2b+1)^2 spectrum block
// evaluated at dst's pixel pitch. Onto a finer grid it is exact Fourier
// interpolation of a field band-limited to b; onto a coarser one it is a
// low-pass filter followed by decimation. Both grids must be at least
// 2b+1 wide. Scratch comes from the workspace pool. It is equivalent to
// real(Inverse2D(EmbedCenter(ExtractCenter(Forward2D(src), b), d, d)))
// times GridScale(src.W, d), with d = dst.W.
func Resample(src *grid.Field, b int, dst *grid.Field) {
	if src.W != src.H || dst.W != dst.H {
		panic(fmt.Sprintf("fft: Resample needs square grids, got %dx%d -> %dx%d", src.W, src.H, dst.W, dst.H))
	}
	blk := grid.GetC(2*b+1, 2*b+1)
	ForwardBandLimitedReal(src, b, blk)
	s := complex(GridScale(src.W, dst.W), 0)
	for i := range blk.Data {
		blk.Data[i] *= s
	}
	out := grid.GetC(dst.W, dst.H)
	InverseBandLimited(blk, dst.W, dst.H, out)
	grid.PutC(blk)
	for i, v := range out.Data {
		dst.Data[i] = real(v)
	}
	grid.PutC(out)
}
