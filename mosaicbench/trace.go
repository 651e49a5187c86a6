package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"mosaic"
	"mosaic/internal/artifact"
	"mosaic/internal/cache"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/render"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// The traced run records spans and counters from the benchmark's own
// code only; the program is unchanged. Its four sources:
//
//   - client spans: submit, the running and terminal state events, the
//     result fetch (jobRecord, stream);
//   - the timing runner below, passed as serve.Config.TileRunner: it
//     calls tile.RunWindow exactly as the default runner does and
//     declares LocalCompute, so core reservations are unchanged; it sits
//     under the cache and so sees only cache misses;
//   - counter deltas of mosaic.MetricsText(), over the whole timed phase
//     and per job: the server's Tune hook, which runs in the job worker
//     as each job starts, snapshots the counters without changing the
//     configuration; with one job worker, consecutive snapshots bracket
//     exactly one job;
//   - the stages no span covers (plan, stitch, tiled evaluate, artifact
//     commit, cache-hit lookup, cache key, warm-start prepare), re-timed
//     after the timed phase by calling their public functions on the
//     run's own inputs, with throwaway stores. The daemon's own exported
//     spans (serve.job, tile.pipeline, tile.optimize, ilt.run) are joined
//     in from GET /v1/jobs/{id}/trace.

// windowRun is one window the timing runner optimized.
type windowRun struct {
	start   time.Time
	dur     time.Duration
	iters   int
	best    int  // index of the best iterate + 1
	hadSeed bool // a warm-start seed was attached
	seeded  bool // the optimizer accepted it
	key     cache.Key
	res     *ilt.Result
}

// tracer is the timing runner plus the traced run's counter snapshots.
type tracer struct {
	mu      sync.Mutex
	windows []windowRun
	starts  []snapshot // one per job start, in server order
}

// snapshot is the counters at one instant.
type snapshot struct {
	at time.Time
	c  counters
}

func newTracer() *tracer { return &tracer{} }

// RunTile runs the window exactly as the scheduler's default runner.
func (t *tracer) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	start := time.Now()
	res, err := tile.RunWindow(ctx, req.Sim, req.Cfg, req.Tile.Layout, req.Plan.WindowPx, req.Plan.PixelNM, req.Samples)
	dur := time.Since(start)
	if err != nil || len(req.Tile.Layout.Polys) == 0 {
		return res, err
	}
	w := windowRun{
		start: start, dur: dur, iters: res.Iterations, best: bestIterate(res.History),
		hadSeed: req.Cfg.SeedMask != nil, seeded: res.Seeded, key: cache.RequestKey(req), res: res,
	}
	t.mu.Lock()
	t.windows = append(t.windows, w)
	t.mu.Unlock()
	return res, nil
}

// LocalCompute keeps the scheduler's per-tile core reservations.
func (t *tracer) LocalCompute() bool { return true }

// tune is the server's Tune hook: it leaves the configuration alone and
// snapshots the counters as a job starts.
func (t *tracer) tune(*mosaic.Config) {
	s := snapshot{at: time.Now(), c: readCounters()}
	t.mu.Lock()
	t.starts = append(t.starts, s)
	t.mu.Unlock()
}

// bestIterate is the 1-based index of the lowest proxy score (the
// iterate Alg. 1 keeps), or 0 without history.
func bestIterate(h []ilt.IterStats) int {
	best := -1
	for i, st := range h {
		if best < 0 || st.ProxyScore < h[best].ProxyScore {
			best = i
		}
	}
	return best + 1
}

// bestOfScores is bestIterate over a stream's iteration scores.
func bestOfScores(s []float64) int {
	best := -1
	for i, v := range s {
		if best < 0 || v < s[best] {
			best = i
		}
	}
	return best + 1
}

// --- re-timed stages ---------------------------------------------------

// stages are one job's re-timed stage costs.
type stages struct {
	plan, stitch, evaluate, commit time.Duration
	keys, hits, prepares           []time.Duration
}

// retimer re-runs the stages no span covers on each job's own inputs.
type retimer struct {
	d      *daemon
	setups map[int]*mosaic.Setup
	wsims  map[int]*sim.Simulator
	art    *artifact.Store
	cache  *cache.Store
	byKey  map[cache.Key]*ilt.Result
}

func newRetimer(d *daemon, dir string, windows []windowRun) (*retimer, error) {
	art, err := artifact.Open(filepath.Join(dir, "retime-artifacts"))
	if err != nil {
		return nil, err
	}
	st, err := cache.Open(cache.Options{})
	if err != nil {
		art.Close()
		return nil, err
	}
	rt := &retimer{d: d, setups: map[int]*mosaic.Setup{}, wsims: map[int]*sim.Simulator{}, art: art, cache: st, byKey: map[cache.Key]*ilt.Result{}}
	for _, w := range windows {
		rt.byKey[w.key] = w.res
	}
	return rt, nil
}

func (rt *retimer) close() error { return rt.art.Close() }

// setup returns a throwaway Setup for a grid at 8 nm/px; kernel stacks
// are shared with the daemon through the process-wide optics cache.
func (rt *retimer) setup(n int) (*mosaic.Setup, error) {
	if s := rt.setups[n]; s != nil {
		return s, nil
	}
	cfg := mosaic.DefaultOptics()
	cfg.GridSize = n
	cfg.PixelNM = pixelNM
	s, err := mosaic.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	rt.setups[n] = s
	return s, nil
}

func placeholder(n int) *ilt.Result {
	return &ilt.Result{Mask: grid.New(n, n), MaskGray: grid.New(n, n)}
}

// hitTiles returns the indices of a job's windows the cache served.
func hitTiles(spans []traceSpan) map[int]bool {
	hits := map[int]bool{}
	for _, sp := range spans {
		if sp.Name != "tile.optimize" {
			continue
		}
		tier, _ := sp.Args["tile.cache"].(string)
		if tier == cache.TierMem || tier == cache.TierDisk || tier == cache.TierFlight {
			if i, ok := sp.Args["tile"].(float64); ok {
				hits[int(i)] = true
			}
		}
	}
	return hits
}

// job re-times one job's uncovered stages.
func (rt *retimer) job(r *jobRecord, spans []traceSpan) (*stages, error) {
	layout, err := parseLayout(r.Item.Spec.Layout)
	if err != nil {
		return nil, err
	}
	mask, err := render.ReadPGM(bytes.NewReader(r.MaskPGM))
	if err != nil {
		return nil, err
	}
	mode := ilt.ModeFast
	if r.Item.Spec.Mode == kindExact {
		mode = ilt.ModeExact
	}
	cfg := ilt.DefaultConfig(mode)
	st := &stages{}
	if r.Item.Spec.TileNM == 0 {
		s, err := rt.setup(r.Item.Spec.Grid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := s.EvaluateLayout(mask, layout, mosaic.TileOptions{}, 0); err != nil {
			return nil, err
		}
		st.evaluate = time.Since(t0)
		t0 = time.Now()
		man, err := artifact.NewManifest(layout, s.Sim, cfg, nil, 0).Encode()
		if err != nil {
			return nil, err
		}
		if err := rt.commit(r.ID, man, []*ilt.Result{{Mask: mask, MaskGray: mask}}); err != nil {
			return nil, err
		}
		st.commit = time.Since(t0)
		return st, nil
	}

	s, err := rt.setup(r.Item.Spec.Grid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plan, err := tile.NewPlan(layout, pixelNM, r.Item.Spec.TileNM, tile.DefaultHaloNM(s.Sim.Cfg))
	if err != nil {
		return nil, err
	}
	st.plan = time.Since(t0)
	ws := rt.wsims[plan.WindowPx]
	if ws == nil {
		if ws, err = sim.New(plan.WindowOptics(s.Sim.Cfg), s.Sim.Resist); err != nil {
			return nil, err
		}
		rt.wsims[plan.WindowPx] = ws
	}
	samples := splitSamples(plan, layout.SamplePoints(cfg.EPESampleNM))
	hits := hitTiles(spans)
	results := make([]*ilt.Result, len(plan.Tiles))
	for i := range plan.Tiles {
		t := &plan.Tiles[i]
		results[i] = placeholder(plan.WindowPx)
		if len(t.Layout.Polys) == 0 {
			continue
		}
		wcfg := cfg
		if rt.d.warm != nil {
			t0 := time.Now()
			wcfg, _ = rt.d.warm.Prepare(rt.d.warm.Epoch(), cfg, ws, plan.WindowPx, pixelNM, t.Layout)
			st.prepares = append(st.prepares, time.Since(t0))
		}
		req := &tile.Request{Plan: plan, Tile: t, Sim: ws, Cfg: wcfg, Samples: samples[i]}
		t0 := time.Now()
		key := cache.RequestKey(req)
		st.keys = append(st.keys, time.Since(t0))
		if res := rt.byKey[key]; res != nil {
			results[i] = res
		}
		if hits[i] {
			rt.cache.Put(key, results[i])
			t0 := time.Now()
			if _, _, err := rt.cache.GetOrCompute(context.Background(), key, func() (*ilt.Result, error) {
				return nil, errors.New("re-timed lookup missed")
			}); err != nil {
				return nil, err
			}
			st.hits = append(st.hits, time.Since(t0))
		}
	}
	t0 = time.Now()
	_, _, seam := plan.Stitch(results, plan.HaloNM/2)
	st.stitch = time.Since(t0)
	t0 = time.Now()
	if _, err := s.EvaluateLayout(mask, layout, mosaic.TileOptions{TileNM: r.Item.Spec.TileNM}, 0); err != nil {
		return nil, err
	}
	st.evaluate = time.Since(t0)
	t0 = time.Now()
	man, err := artifact.NewManifest(layout, ws, cfg, plan, seam).Encode()
	if err != nil {
		return nil, err
	}
	if err := rt.commit(r.ID, man, results); err != nil {
		return nil, err
	}
	st.commit = time.Since(t0)
	return st, nil
}

// commit stores results as blobs and anchors them, as the daemon does.
func (rt *retimer) commit(jobID string, man []byte, results []*ilt.Result) error {
	leaves := make([]artifact.Leaf, len(results))
	for i, res := range results {
		payload, err := artifact.EncodeResult(res)
		if err != nil {
			return err
		}
		d, err := rt.art.PutBlob(payload)
		if err != nil {
			return err
		}
		leaves[i] = artifact.Leaf{Index: i, Blob: d}
	}
	_, err := rt.art.Commit(jobID, man, leaves)
	return err
}

// splitSamples assigns full-layout EPE samples to every window holding
// them, in window-local coordinates, as the tile scheduler does.
func splitSamples(p *tile.Plan, samples []geom.Sample) [][]geom.Sample {
	out := make([][]geom.Sample, len(p.Tiles))
	for i := range p.Tiles {
		t := &p.Tiles[i]
		x0, y0 := float64(t.WinX0)*p.PixelNM, float64(t.WinY0)*p.PixelNM
		for _, s := range samples {
			if s.Pt.X < x0 || s.Pt.X >= x0+p.WindowNM || s.Pt.Y < y0 || s.Pt.Y >= y0+p.WindowNM {
				continue
			}
			ls := s
			ls.Pt.X -= x0
			ls.Pt.Y -= y0
			out[i] = append(out[i], ls)
		}
	}
	return out
}

// --- span arithmetic ---------------------------------------------------

type interval struct{ a, b int64 }

// union returns the total length covered by spans named name, and the
// sum of their lengths (µs).
func union(spans []traceSpan, name string) (covered, total int64) {
	var iv []interval
	for _, sp := range spans {
		if sp.Name == name {
			iv = append(iv, interval{sp.TS, sp.TS + sp.Dur})
			total += sp.Dur
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var end int64 = -1 << 62
	for _, x := range iv {
		if x.a > end {
			covered += x.b - x.a
			end = x.b
		} else if x.b > end {
			covered += x.b - end
			end = x.b
		}
	}
	return covered, total
}

func spanSum(spans []traceSpan, name string) int64 {
	var s int64
	for _, sp := range spans {
		if sp.Name == name {
			s += sp.Dur
		}
	}
	return s
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// --- the traced run ----------------------------------------------------

// reference holds the untraced runs the traced run compares against.
type reference struct {
	untraced result // same seed, tracing off, this machine's GOMAXPROCS
	oneCore  result // same seed, tracing off, GOMAXPROCS=1, at most speedupSeconds long
}

// speedupSeconds caps the length of the GOMAXPROCS=1 run: the speedup is
// a ratio of rates, and a full-length single-core run would take the
// traced run past its time limit.
const speedupSeconds = 12

func childRun(o *options, seconds int, env []string) (result, error) {
	line, err := child(env, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--setup-reps", "1")
	if err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return result{}, fmt.Errorf("untraced child: %w", err)
	}
	return res, nil
}

func runTraced(o *options, dir string) error {
	var ref reference
	var err error
	if ref.untraced, err = childRun(o, o.seconds, nil); err != nil {
		return err
	}
	if ref.oneCore, err = childRun(o, min(o.seconds, speedupSeconds), []string{"GOMAXPROCS=1"}); err != nil {
		return err
	}

	tr := newTracer()
	t0 := time.Now()
	d, err := setUp(o.workload, dir, tr, tr.tune)
	if err != nil {
		return err
	}
	setupS := time.Since(t0).Seconds()
	rep, err := measure(o, d, true)
	if err != nil {
		d.close()
		return err
	}
	rep.e.SetupS, rep.e.SetupSamples = setupS, []float64{setupS}
	led, tab, err := buildLedger(o, d, dir, rep, tr, ref)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	header(o).print()
	rep.print()
	tab.print()
	printOverhead(rep.e, ref.untraced)
	printLedger(led)
	m := map[string]metric{}
	for _, l := range ledger {
		m[l.name] = metric{led[l.name], l.unit}
	}
	return emit(rep.result(m))
}

// jobStages is one row of the stage table.
type jobStages struct {
	id, kind string
	self     map[string]time.Duration // stage -> self time
	wall     time.Duration            // submit to result fetched
	windows  []stageRow               // sums over the job's windows inside compute
	counts   string                   // counter deltas of the job
}

type stageRow struct {
	name string
	d    time.Duration
}

type stageTable []jobStages

// stageCols are the stage table's columns: stage name and label.
var stageCols = [][2]string{
	{"client.submit", "submit"}, {"serve.queue_wait", "queue"}, {"tile.plan", "plan"},
	{"compute", "compute"}, {"tile.stitch", "stitch"}, {"metrics.evaluate", "evaluate"},
	{"artifact.commit", "commit"}, {"client.events_tail", "ev_tail"}, {"client.result", "result"},
}

func (t stageTable) print() {
	fmt.Println("stage table, ms of self time per job. compute is the union of the job's tile.optimize spans")
	fmt.Println("(the ilt.run span untiled); ev_tail is terminal event to stream closed; wall is submit to result fetched:")
	fmt.Printf("  %-12s %-7s", "job", "kind")
	for _, c := range stageCols {
		fmt.Printf(" %9s", c[1])
	}
	fmt.Printf(" %9s %9s %9s\n", "sum", "wall", "residual")
	sums := map[string]time.Duration{}
	var sumAll, wallAll time.Duration
	for _, j := range t {
		fmt.Printf("  %-12s %-7s", j.id, j.kind)
		var sum time.Duration
		for _, c := range stageCols {
			d := j.self[c[0]]
			fmt.Printf(" %9.2f", ms(d))
			sum += d
			sums[c[0]] += d
		}
		sumAll += sum
		wallAll += j.wall
		fmt.Printf(" %9.2f %9.2f %9.2f", ms(sum), ms(j.wall), ms(j.wall-sum))
		if len(j.windows) > 0 {
			fmt.Print("  window sums:")
			for _, r := range j.windows {
				fmt.Printf(" %s=%.3f", r.name, ms(r.d))
			}
		}
		fmt.Printf("  counters: %s\n", j.counts)
	}
	fmt.Printf("  %-12s %-7s", "total", "")
	for _, c := range stageCols {
		fmt.Printf(" %9.2f", ms(sums[c[0]]))
	}
	fmt.Printf(" %9.2f %9.2f %9.2f (residual %.1f%% of wall)\n", ms(sumAll), ms(wallAll), ms(wallAll-sumAll),
		100*ratio(float64(wallAll-sumAll), float64(wallAll)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printOverhead compares the traced run's end-to-end numbers with the
// untraced run of the same seed.
func printOverhead(traced *e2e, untraced result) {
	fmt.Println("tracing overhead (traced vs untraced run, same seed):")
	tm := e2eMetrics(traced)
	names := make([]string, 0, len(tm))
	for k := range tm {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u := untraced.Metrics[k].Value
		fmt.Printf("  %-18s untraced %12.6g traced %12.6g  %+.1f%%\n", k, u, tm[k].Value, 100*(ratio(tm[k].Value, u)-1))
	}
}

// buildLedger computes the per-layer metrics and the stage table.
func buildLedger(o *options, d *daemon, dir string, rep *report, tr *tracer, ref reference) (map[string]float64, stageTable, error) {
	B, A := rep.before, rep.after
	t := rep.t
	tiled := o.workload != wlClips
	led := map[string]float64{}

	var done []*jobRecord
	for _, r := range t.Jobs {
		if r.done() {
			done = append(done, r)
		}
	}
	spans := make([][]traceSpan, len(done))
	for i, r := range done {
		s, err := d.trace(r.ID)
		if err != nil {
			return nil, nil, err
		}
		spans[i] = s
	}
	var windows []windowRun
	tr.mu.Lock()
	for _, w := range tr.windows {
		if !w.start.Before(t.Start) && w.start.Before(t.End) {
			windows = append(windows, w)
		}
	}
	all := tr.windows
	tr.mu.Unlock()
	cacheEntries := d.cache.Stats().Entries

	// Re-time the uncovered stages now that every counter is read.
	rt, err := newRetimer(d, dir, all)
	if err != nil {
		return nil, nil, err
	}
	defer rt.close()
	st := make([]*stages, len(done))
	for i, r := range done {
		if st[i], err = rt.job(r, spans[i]); err != nil {
			return nil, nil, fmt.Errorf("re-timing job %s: %w", r.ID, err)
		}
	}

	// serve
	var submit, queue, run []float64
	refused := 0
	for _, r := range t.Jobs {
		if r.Refused {
			refused++
		}
	}
	for _, r := range done {
		submit = append(submit, ms(r.Accepted.Sub(r.SubmitStart)))
		queue = append(queue, max(0, r.Stream.RunningAt.Sub(r.Accepted).Seconds()))
		run = append(run, r.Stream.TerminalAt.Sub(r.Stream.RunningAt).Seconds())
	}
	led["serve.submit_ms"] = median(submit)
	led["serve.queue_wait_s"] = median(queue)
	led["serve.run_s"] = median(run)
	led["serve.refused"] = float64(refused)

	// tile
	var plan, stitch, eval, commit, keys, hits, prep, compute []float64
	var covered, busy int64
	windowsPerJob := 0
	for i := range done {
		s := st[i]
		eval = append(eval, s.evaluate.Seconds())
		commit = append(commit, ms(s.commit))
		for _, k := range s.keys {
			keys = append(keys, ms(k))
		}
		for _, h := range s.hits {
			hits = append(hits, ms(h))
		}
		for _, p := range s.prepares {
			prep = append(prep, ms(p))
		}
		if tiled {
			plan = append(plan, ms(s.plan))
			stitch = append(stitch, ms(s.stitch))
			c, b := union(spans[i], "tile.optimize")
			covered += c
			busy += b
			compute = append(compute, us(c).Seconds())
		}
	}
	if tiled && len(done) > 0 {
		windowsPerJob = int(done[0].Item.AreaUM2 / areaUM2(tileNM))
		led["tile.evaluate_s"] = mean(eval)
	}
	led["tile.windows_per_job"] = float64(windowsPerJob)
	led["tile.plan_ms"] = mean(plan)
	led["tile.compute_s"] = median(compute)
	led["tile.inflight_mean"] = ratio(float64(busy), float64(covered))
	led["tile.stitch_ms"] = mean(stitch)

	// ilt
	var iters, useful, iltUS float64
	runs := 0
	for i, r := range done {
		iltUS += float64(spanSum(spans[i], "ilt.run"))
		if !tiled {
			iters += float64(r.Summary.Iterations)
			useful += float64(bestOfScores(r.Stream.Scores))
			runs++
		}
	}
	if tiled {
		for _, w := range windows {
			iters += float64(w.iters)
			useful += float64(w.best)
			runs++
		}
	}
	led["ilt.iters_per_window"] = ratio(iters, float64(runs))
	led["ilt.iter_ms"] = ratio(iltUS/1000, iters)
	led["ilt.useful_iter_ratio"] = ratio(useful, iters)

	// sim, fft
	iltIters := delta(B, A, "ilt_iterations_total")
	aerialSum := deltaPrefix(B, A, "span_sim_aerial_", "_seconds_sum")
	aerialCnt := deltaPrefix(B, A, "span_sim_aerial_", "_seconds_count")
	combSum := deltaPrefix(B, A, "span_sim_aerial_combined_", "_seconds_sum")
	combCnt := deltaPrefix(B, A, "span_sim_aerial_combined_", "_seconds_count")
	// The optimizer images each corner in its own forward pass (the
	// truncated SOCS stack, GradKernels); sim.Aerial serves evaluation and
	// sim.AerialCombined only the combined-kernel ablation.
	led["ilt.forward_ms"] = 1000 * ratio(deltaPrefix(B, A, "span_ilt_forward_", "_seconds_sum"), deltaPrefix(B, A, "span_ilt_forward_", "_seconds_count"))
	led["sim.aerial_ms"] = 1000 * ratio(aerialSum-combSum, aerialCnt-combCnt)
	led["sim.aerial_combined_ms"] = 1000 * ratio(combSum, combCnt)
	led["fft.forward_per_iter"] = ratio(delta(B, A, "fft_pruned_forward_total"), iltIters)
	led["fft.inverse_per_iter"] = ratio(delta(B, A, "fft_pruned_inverse_total"), iltIters)
	led["fft.fallback"] = delta(B, A, "fft_pruned_fallback_total")

	// optics: whole process, since kernels are built during set-up.
	led["optics.kernel_build_s"] = A["span_optics_build_kernels_seconds_sum"]
	kh, km := A["optics_kernel_cache_hits_total"], A["optics_kernel_cache_misses_total"]
	led["optics.kernel_cache_hit_ratio"] = ratio(kh, kh+km)

	// metrics
	led["metrics.evaluate_ms"] = 1000 * mean(eval)
	led["metrics.quality_per_um2"] = rep.e.Quality
	led["metrics.epe_viol_per_um2"] = rep.e.EPE
	led["metrics.shape_viol_per_um2"] = rep.e.Shape

	// cache
	ch, cm := delta(B, A, "cache_hits_total"), delta(B, A, "cache_misses_total")
	led["cache.hit_ratio"] = ratio(ch, ch+cm)
	led["cache.key_ms"] = mean(keys)
	led["cache.hit_ms"] = mean(hits)
	led["cache.entries"] = float64(cacheEntries)
	led["cache.evictions"] = delta(B, A, "cache_evictions_total")

	// warmstart
	var withSeed, accepted, seededIters, coldIters []float64
	for _, w := range windows {
		if w.hadSeed {
			withSeed = append(withSeed, 1)
		}
		if w.seeded {
			accepted = append(accepted, 1)
			seededIters = append(seededIters, float64(w.iters))
		} else {
			coldIters = append(coldIters, float64(w.iters))
		}
	}
	led["warmstart.hit_ratio"] = ratio(delta(B, A, "warmstart_hits_total"), delta(B, A, "warmstart_lookups_total"))
	led["warmstart.accept_ratio"] = ratio(float64(len(accepted)), float64(len(withSeed)))
	led["warmstart.seeded_iters"] = mean(seededIters)
	led["warmstart.cold_iters"] = mean(coldIters)
	led["warmstart.prepare_ms"] = mean(prep)

	// artifact
	wr, dd := delta(B, A, "artifact_blobs_written_total"), delta(B, A, "artifact_blobs_deduped_total")
	led["artifact.commit_ms"] = mean(commit)
	led["artifact.dedup_ratio"] = ratio(dd, wr+dd)
	led["artifact.records_per_batch"] = ratio(delta(B, A, "artifact_records_total"), delta(B, A, "artifact_anchor_batches_total"))
	led["artifact.kb_per_job"] = ratio(delta(B, A, "artifact_blob_bytes_total")/1024, float64(len(done)))

	// par
	inl, hlp := delta(B, A, "par_pool_inline_total"), delta(B, A, "par_pool_helpers_total")
	led["par.cpu_util"] = ratio(t.CPU, t.wall()*float64(runtime.NumCPU()))
	led["par.inline_ratio"] = ratio(inl, inl+hlp)
	led["par.speedup_vs_1core"] = ratio(ref.untraced.Metrics["um2_per_s"].Value, ref.oneCore.Metrics["um2_per_s"].Value)

	// grid, runtime
	var ph, pm float64
	for _, k := range []string{"grid_pool_field", "grid_pool_cfield"} {
		ph += delta(B, A, k+"_hits_total")
		pm += delta(B, A, k+"_misses_total")
	}
	led["grid.pool_hit_ratio"] = ratio(ph, ph+pm)
	area := rep.e.DoneAreaUM2
	led["runtime.alloc_mb_per_um2"] = ratio(float64(rep.memAfter.TotalAlloc-rep.memBefore.TotalAlloc)/1e6, area)
	led["runtime.gc_cycles_per_um2"] = ratio(float64(rep.memAfter.NumGC-rep.memBefore.NumGC), area)

	// stage table
	perJob := jobOf(done, windows)
	var tab stageTable
	for i, r := range done {
		s := st[i]
		js := jobStages{id: r.ID, kind: r.Item.Kind, wall: r.ResultEnd.Sub(r.SubmitStart), self: map[string]time.Duration{
			"client.submit":      r.Accepted.Sub(r.SubmitStart),
			"serve.queue_wait":   max(0, r.Stream.RunningAt.Sub(r.Accepted)),
			"tile.plan":          s.plan,
			"tile.stitch":        s.stitch,
			"metrics.evaluate":   s.evaluate,
			"artifact.commit":    s.commit,
			"client.events_tail": max(0, r.Stream.Closed.Sub(r.Stream.TerminalAt)),
			"client.result":      r.ResultEnd.Sub(r.Stream.Closed),
		}}
		if tiled {
			c, _ := union(spans[i], "tile.optimize")
			js.self["compute"] = us(c)
			var iltD time.Duration
			for _, w := range perJob[r] {
				iltD += w.dur
			}
			js.windows = []stageRow{
				{"ilt", iltD},
				{"cache.key", sumD(s.keys)},
				{"cache.hit", sumD(s.hits)},
				{"warmstart.prepare", sumD(s.prepares)},
			}
		} else {
			js.self["compute"] = us(spanSum(spans[i], "ilt.run"))
		}
		js.counts = jobCounters(tr, r, A)
		tab = append(tab, js)
	}
	return led, tab, nil
}

// jobCounters renders the counter deltas of a job: from the snapshot
// its start took to the next job's start (or the end of the timed
// phase). With one job worker nothing else runs in between.
func jobCounters(tr *tracer, r *jobRecord, end counters) string {
	tr.mu.Lock()
	starts := tr.starts
	tr.mu.Unlock()
	i := sort.Search(len(starts), func(i int) bool { return !starts[i].at.Before(r.Stream.RunningAt) })
	if i == len(starts) {
		return "n/a"
	}
	b, a := starts[i].c, end
	if i+1 < len(starts) {
		a = starts[i+1].c
	}
	return fmt.Sprintf("cache_hits=%g cache_misses=%g warm_hits=%g ilt_runs=%g ilt_iters=%g blobs_written=%g",
		delta(b, a, "cache_hits_total"), delta(b, a, "cache_misses_total"), delta(b, a, "warmstart_hits_total"),
		delta(b, a, "ilt_iterations_count"), delta(b, a, "ilt_iterations_total"), delta(b, a, "artifact_blobs_written_total"))
}

// jobOf assigns each window to the job the server was running when the
// window started: the last job whose start precedes it (jobs run one at
// a time, and a job's windows start after its running event).
func jobOf(done []*jobRecord, windows []windowRun) map[*jobRecord][]windowRun {
	byStart := append([]*jobRecord(nil), done...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Stream.RunningAt.Before(byStart[j].Stream.RunningAt) })
	out := map[*jobRecord][]windowRun{}
	for _, w := range windows {
		k := sort.Search(len(byStart), func(i int) bool { return byStart[i].Stream.RunningAt.After(w.start) }) - 1
		if k >= 0 {
			out[byStart[k]] = append(out[byStart[k]], w)
		}
	}
	return out
}

func sumD(v []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range v {
		s += d
	}
	return s
}

// printLedger prints every per-layer metric with the end-to-end metric it
// should move and the workload where no change is predicted.
func printLedger(led map[string]float64) {
	fmt.Println("per-layer ledger:")
	fmt.Printf("  %-30s %14s %-8s %-72s %s\n", "metric", "value", "unit", "should move", "no change predicted on")
	for _, l := range ledger {
		fmt.Printf("  %-30s %14.6g %-8s %-72s %s\n", l.name, led[l.name], l.unit, l.moves, l.steady)
	}
}
