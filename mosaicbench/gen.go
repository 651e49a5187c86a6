package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"

	"mosaic"
	"mosaic/internal/cache"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/serve"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// Workload names, as given to --workload.
const (
	wlClips  = "clips"
	wlCold   = "layout-cold"
	wlRepeat = "repeat-service"
)

// Geometry shared by every workload: 8 nm/px, the scale of the repo's
// testing.B suite. Tiled workloads shard into 512 nm cores on a 64 px
// grid, which pads to 128 px windows.
const (
	pixelNM  = 8.0
	clipGrid = 128 // untiled grid of one 1024 nm clip
	coreGrid = 64  // per-tile core grid of the tiled workloads
	tileNM   = coreGrid * pixelNM
)

// Job kinds, recorded per job so checks and shares can be split by kind.
const (
	kindFast   = "fast"   // clips, MOSAIC_fast
	kindExact  = "exact"  // clips, MOSAIC_exact
	kindCold   = "cold"   // layout-cold
	kindRepeat = "repeat" // repeat-service: exact repeat of a library pattern
	kindJitter = "jitter" // repeat-service: pixel-shifted library pattern
	kindNovel  = "novel"  // repeat-service: arrangement never seen before
	kindPrime  = "prime"  // repeat-service priming traffic (untimed)
)

// item is one generated job: the spec the daemon sees plus what the
// benchmark needs to check and account for it.
type item struct {
	Spec    serve.JobSpec
	Kind    string
	Clip    string  // clips: testcase name
	Pattern int     // repeat-service: library pattern index (-1 = none)
	AreaUM2 float64 // layout area
	Block   int     // index of the pass/block the job belongs to
}

// layoutText renders a layout in the text format the daemon parses.
func layoutText(l *geom.Layout) string {
	var b bytes.Buffer
	if err := geom.Write(&b, l); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return b.String()
}

func areaUM2(sizeNM float64) float64 { return sizeNM * sizeNM / 1e6 }

// clipPass returns one pass of the clips workload: every built-in clip in
// MOSAIC_fast and in MOSAIC_exact, untiled on the 128 px grid, in a
// seeded order.
func clipPass(rng *rand.Rand, block int) []item {
	var out []item
	for _, name := range mosaic.BenchmarkNames() {
		l, err := mosaic.Benchmark(name)
		if err != nil {
			panic(err)
		}
		text := layoutText(l)
		for _, mode := range []string{kindFast, kindExact} {
			out = append(out, item{
				Spec:    serve.JobSpec{Layout: text, Mode: mode, Grid: clipGrid},
				Kind:    mode,
				Clip:    name,
				Pattern: -1,
				AreaUM2: areaUM2(l.SizeNM),
				Block:   block,
			})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- cell catalogue ---------------------------------------------------

// A cell is the geometry of one 512 nm core in core-local coordinates.
// Features keep a 48 nm margin to the core edge, so neighbouring cells
// stay at least 96 nm apart even after a jitter, and every coordinate is
// a multiple of the 8 nm pixel.
type cell []geom.Polygon

// catalogueSeed fixes the cell catalogue. The catalogue is the same for
// every run seed, so quality per um2 compares across seeds; run seeds
// only decide how cells are placed.
const catalogueSeed = 20140601

// catalogueSize is the number of distinct cells; layout-cold places all
// of the first 16 in every 4x4 layout.
const catalogueSize = 24

// catalogue returns the fixed cell catalogue.
func catalogue() []cell {
	rng := rand.New(rand.NewPCG(catalogueSeed, 0))
	out := make([]cell, catalogueSize)
	for i := range out {
		out[i] = randomCell(rng, i%5)
	}
	return out
}

// q8 draws a multiple of 8 in [lo, hi].
func q8(rng *rand.Rand, lo, hi int) float64 {
	return float64(8 * (lo/8 + rng.IntN(hi/8-lo/8+1)))
}

func rect(x, y, w, h float64) geom.Polygon { return geom.Rect{X: x, Y: y, W: w, H: h}.Polygon() }

// cellLo and cellHi bound a cell's features in core-local nm.
const cellLo, cellHi = 48, 464

// place draws the origin of a feature group spanning span nm.
func place(rng *rand.Rand, span float64) float64 {
	return q8(rng, cellLo, cellHi-int(span))
}

// randomCell draws one cell of a style: 0 vertical grating, 1 horizontal
// grating, 2 L-shape, 3 contact array, 4 jogged line.
func randomCell(rng *rand.Rand, style int) cell {
	switch style {
	case 0, 1:
		n := 2 + rng.IntN(2)
		w := q8(rng, 64, 80)
		pitch := q8(rng, 160, 192)
		if n == 3 {
			pitch = q8(rng, 160, 168)
		}
		length := q8(rng, 256, 384)
		x0 := place(rng, float64(n-1)*pitch+w)
		y0 := place(rng, length)
		var c cell
		for i := 0; i < n; i++ {
			x := x0 + float64(i)*pitch
			if style == 0 {
				c = append(c, rect(x, y0, w, length))
			} else {
				c = append(c, rect(y0, x, length, w))
			}
		}
		return c
	case 2:
		w := q8(rng, 72, 88)
		a := q8(rng, 224, 352)
		b := q8(rng, 224, 352)
		x0 := place(rng, a)
		y0 := place(rng, b)
		return cell{{
			{X: x0, Y: y0}, {X: x0 + a, Y: y0}, {X: x0 + a, Y: y0 + w},
			{X: x0 + w, Y: y0 + w}, {X: x0 + w, Y: y0 + b}, {X: x0, Y: y0 + b},
		}}
	case 3:
		ny := 2 + rng.IntN(2)
		s, pitch := q8(rng, 72, 96), q8(rng, 176, 208)
		if ny == 3 {
			s, pitch = q8(rng, 64, 80), q8(rng, 160, 168)
		}
		x0 := place(rng, pitch+s)
		y0 := place(rng, float64(ny-1)*pitch+s)
		var c cell
		for i := 0; i < 2; i++ {
			for j := 0; j < ny; j++ {
				c = append(c, rect(x0+float64(i)*pitch, y0+float64(j)*pitch, s, s))
			}
		}
		return c
	default:
		w := q8(rng, 64, 80)
		jog := q8(rng, 96, 160)
		h1 := q8(rng, 128, 176)
		h2 := q8(rng, 128, 176)
		x0 := place(rng, jog+w)
		y0 := place(rng, h1+h2)
		return cell{{
			{X: x0, Y: y0}, {X: x0 + w, Y: y0}, {X: x0 + w, Y: y0 + h1},
			{X: x0 + jog + w, Y: y0 + h1}, {X: x0 + jog + w, Y: y0 + h1 + h2},
			{X: x0 + jog, Y: y0 + h1 + h2}, {X: x0 + jog, Y: y0 + h1 + w},
			{X: x0, Y: y0 + h1 + w},
		}}
	}
}

// arrange places cells on an n x n grid of 512 nm cores (row-major
// indices into cat).
func arrange(name string, cat []cell, idx []int, n int) *geom.Layout {
	l := &geom.Layout{Name: name, SizeNM: float64(n) * tileNM}
	for k, ci := range idx {
		ox := float64(k%n) * tileNM
		oy := float64(k/n) * tileNM
		for _, p := range cat[ci] {
			q := make(geom.Polygon, len(p))
			for i, v := range p {
				q[i] = geom.Point{X: v.X + ox, Y: v.Y + oy}
			}
			l.Polys = append(l.Polys, q)
		}
	}
	return l
}

// --- window keys ------------------------------------------------------

// keyer computes the tile-cache content address of every window of a
// tiled job, with the optimizer configuration the daemon uses. The
// resist model is left at its zero value and EPE samples are omitted:
// both are the same for every window of a run, or derived from the
// geometry, so two windows share a key here whenever they would share
// one in the daemon (the check is conservative).
type keyer struct {
	ws  *sim.Simulator
	cfg ilt.Config
}

func newKeyer() *keyer {
	oc := optics.Default()
	oc.GridSize = 2 * coreGrid
	oc.PixelNM = pixelNM
	return &keyer{ws: &sim.Simulator{Cfg: oc}, cfg: ilt.DefaultConfig(ilt.ModeFast)}
}

// windowKeys returns the key of every non-empty window of layout l.
func (k *keyer) windowKeys(l *geom.Layout) []cache.Key {
	plan, err := tile.NewPlan(l, pixelNM, tileNM, tile.DefaultHaloNM(k.ws.Cfg))
	if err != nil {
		panic(err) // generated layouts are valid by construction
	}
	var keys []cache.Key
	for i := range plan.Tiles {
		t := &plan.Tiles[i]
		if len(t.Layout.Polys) == 0 {
			continue
		}
		keys = append(keys, cache.RequestKey(&tile.Request{Plan: plan, Tile: t, Sim: k.ws, Cfg: k.cfg}))
	}
	return keys
}

// --- generators -------------------------------------------------------

// generator yields a workload's job stream for one seed. It is not safe
// for concurrent use; the clients share it under their own lock.
type generator struct {
	workload string
	rng      *rand.Rand
	cat      []cell
	keys     *keyer
	seen     map[cache.Key]bool
	buf      []item

	// repeat-service state
	library []*geom.Layout // library patterns (2x2 arrangements)
	jitters [][3]int       // unused (pattern, dx, dy) shifts, in seeded order
	novelN  int
}

// blockSeconds is the nominal wall time of one block of each workload
// (clips pass, layout-cold layout, repeat-service mix block) on a 2-core
// 2.1 GHz Xeon. A run executes a fixed number of blocks derived from
// --seconds, so a seed and a length give the same inputs on every
// machine and every commit; only the time they take varies.
var blockSeconds = map[string]float64{wlClips: 12, wlCold: 4.5, wlRepeat: 2.5}

// blocksFor is the number of blocks a run of the given length executes.
func blocksFor(workload string, seconds int) int {
	return max(1, int(math.Round(float64(seconds)/blockSeconds[workload])))
}

// libraryPatterns is the size of repeat-service's pattern library.
const libraryPatterns = 3

func newGenerator(workload string, seed uint64) (*generator, error) {
	g := &generator{
		workload: workload,
		rng:      rand.New(rand.NewPCG(seed, 0x6d6f73616963)),
		cat:      catalogue(),
		keys:     newKeyer(),
		seen:     map[cache.Key]bool{},
	}
	switch workload {
	case wlClips, wlCold:
	case wlRepeat:
		// The library is fixed like the catalogue, so quality per um2
		// compares across seeds; the seed drives the traffic over it.
		lib := rand.New(rand.NewPCG(catalogueSeed, 1))
		for p := 0; p < libraryPatterns; p++ {
			l := g.freshArrangement(lib, fmt.Sprintf("lib%d", p), 2, catalogueSize)
			g.library = append(g.library, l)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, wlClips, wlCold, wlRepeat)
	}
	return g, nil
}

// freshArrangement draws n*n distinct cells out of the first pool
// catalogue entries in an arrangement drawn from rng whose windows all
// have keys never produced before in this run, and marks them seen.
func (g *generator) freshArrangement(rng *rand.Rand, name string, n, pool int) *geom.Layout {
	for {
		idx := rng.Perm(pool)[:n*n]
		l := arrange(name, g.cat, idx, n)
		if g.claim(l) {
			return l
		}
	}
}

// claim marks l's window keys seen; it fails (claiming nothing) when any
// key was produced before.
func (g *generator) claim(l *geom.Layout) bool {
	keys := g.keys.windowKeys(l)
	for _, k := range keys {
		if g.seen[k] {
			return false
		}
	}
	for _, k := range keys {
		g.seen[k] = true
	}
	return true
}

// priming returns repeat-service's untimed priming traffic: every library
// pattern twice. The first run harvests the pattern into the warm-start
// library; the second runs seeded from it and fills the cache under the
// seeded key that every later exact repeat looks up.
func (g *generator) priming() []item {
	var out []item
	for round := 0; round < 2; round++ {
		for p, l := range g.library {
			out = append(out, g.tiledItem(l, kindPrime, p, -1))
		}
	}
	return out
}

func (g *generator) tiledItem(l *geom.Layout, kind string, pattern, block int) item {
	return item{
		Spec:    serve.JobSpec{Layout: layoutText(l), Mode: kindFast, Grid: coreGrid, TileNM: tileNM},
		Kind:    kind,
		Pattern: pattern,
		AreaUM2: areaUM2(l.SizeNM),
		Block:   block,
	}
}

// next returns job i of the timed stream.
func (g *generator) next(i int) item {
	for len(g.buf) <= i {
		g.refill()
	}
	return g.buf[i]
}

// refill appends one block: a clips pass (20 jobs), one layout-cold
// layout, or one repeat-service mix block of four jobs (two exact
// repeats, one jittered repeat, one novel arrangement) in seeded order.
func (g *generator) refill() {
	block := 0
	if n := len(g.buf); n > 0 {
		block = g.buf[n-1].Block + 1
	}
	switch g.workload {
	case wlClips:
		g.buf = append(g.buf, clipPass(g.rng, block)...)
	case wlCold:
		l := g.freshArrangement(g.rng, fmt.Sprintf("cold%d", block), 4, 16)
		g.buf = append(g.buf, g.tiledItem(l, kindCold, -1, block))
	case wlRepeat:
		var blk []item
		for r := 0; r < 2; r++ {
			p := g.rng.IntN(len(g.library))
			blk = append(blk, g.tiledItem(g.library[p], kindRepeat, p, block))
		}
		blk = append(blk, g.jittered(block), g.novel(block))
		g.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		g.buf = append(g.buf, blk...)
	}
}

// maxJitterPx bounds a jittered repeat's shift; the 48 nm cell margin
// keeps shifted features inside their core.
const maxJitterPx = 2

// jittered returns a library pattern shifted by a pixel-aligned offset
// not used before in this run. Offsets come from a seeded permutation of
// every (pattern, dx, dy) with a non-zero shift: 72 jittered repeats,
// more than a 60 s run uses.
func (g *generator) jittered(block int) item {
	if g.jitters == nil {
		for p := range g.library {
			for dx := -maxJitterPx; dx <= maxJitterPx; dx++ {
				for dy := -maxJitterPx; dy <= maxJitterPx; dy++ {
					if dx != 0 || dy != 0 {
						g.jitters = append(g.jitters, [3]int{p, dx, dy})
					}
				}
			}
		}
		g.rng.Shuffle(len(g.jitters), func(i, j int) { g.jitters[i], g.jitters[j] = g.jitters[j], g.jitters[i] })
	}
	for len(g.jitters) > 0 {
		j := g.jitters[0]
		g.jitters = g.jitters[1:]
		p, dx, dy := j[0], j[1], j[2]
		src := g.library[p]
		l := &geom.Layout{Name: fmt.Sprintf("lib%d_j%d_%d", p, dx, dy), SizeNM: src.SizeNM}
		for _, poly := range src.Polys {
			q := make(geom.Polygon, len(poly))
			for i, v := range poly {
				q[i] = geom.Point{X: v.X + float64(dx)*pixelNM, Y: v.Y + float64(dy)*pixelNM}
			}
			l.Polys = append(l.Polys, q)
		}
		if g.claim(l) {
			return g.tiledItem(l, kindJitter, p, block)
		}
	}
	panic("repeat-service: every jittered repeat is used; the run is longer than the generator supports")
}

// novel returns an arrangement none of whose windows was seen before.
func (g *generator) novel(block int) item {
	g.novelN++
	l := g.freshArrangement(g.rng, fmt.Sprintf("novel%d", g.novelN), 2, catalogueSize)
	return g.tiledItem(l, kindNovel, -1, block)
}
