// Command mosaicbench is the repository's end-to-end benchmark. It drives
// an in-process mosaicd (serve.New plus Server.Handler on a loopback
// listener, with the daemon's defaults) through closed-loop clients: each
// client submits a job, follows its SSE event stream until it closes,
// fetches the result, and only then submits the next. Every workload
// generates its own layouts from --seed; the daemon sees only the
// generated job specs.
//
//	bash mosaicbench/run.sh --workload clips --seed 1 --seconds 24 --trace 0
//
// prints a human-readable report, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. It exits
// non-zero when an output check fails. See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/geom"
	"mosaic/internal/serve"
)

// processStart approximates process start: package initialization runs
// before main, after the runtime has started.
var processStart = time.Now()

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	setupReps int
	setupOnly bool
}

func parseFlags() (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("mosaicbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: clips, layout-cold or repeat-service")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives byte-identical job specs")
	fs.IntVar(&o.seconds, "seconds", 24, "nominal length of the timed phase in seconds; sets how many blocks (clips passes, layouts, mix blocks) the run executes")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	fs.IntVar(&o.setupReps, "setup-reps", 3, "set-ups measured per run (this process plus fresh child processes); setup_s is their median")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up, print setup_s as JSON and exit (used for the extra set-up samples)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return nil, err
	}
	switch {
	case o.workload != wlClips && o.workload != wlCold && o.workload != wlRepeat:
		return nil, fmt.Errorf("--workload %q: want %s, %s or %s", o.workload, wlClips, wlCold, wlRepeat)
	case o.seconds < 1:
		return nil, fmt.Errorf("--seconds %d: must be at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	case o.setupReps < 1:
		return nil, fmt.Errorf("--setup-reps %d: must be at least 1", o.setupReps)
	}
	return o, nil
}

func main() {
	o, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaicbench:", err)
		os.Exit(2)
	}
	mosaic.SetLogLevel(slog.LevelWarn)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mosaicbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o *options) error {
	dir, err := runDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if o.setupOnly {
		d, err := setUp(o.workload, dir, nil, nil)
		if err != nil {
			return err
		}
		s := time.Since(processStart).Seconds()
		if err := d.close(); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": s})
	}
	if o.trace == 1 {
		return runTraced(o, dir)
	}

	d, err := setUp(o.workload, dir, nil, nil)
	if err != nil {
		return err
	}
	setupS := time.Since(processStart).Seconds()
	rep, err := measure(o, d, false)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	samples, err := setupSamples(o, setupS)
	if err != nil {
		return err
	}
	rep.e.SetupSamples = samples
	rep.e.SetupS = median(samples)
	header(o).print()
	rep.print()
	return emit(rep.result(e2eMetrics(rep.e)))
}

// emit prints the result line and turns a failed check into an exit code.
func emit(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// report is one measured run.
type report struct {
	workload string
	t        *timed
	e        *e2e
	checks   []error
	shares   *shares
	before   counters
	after    counters
	// memBefore and memAfter bracket the timed phase.
	memBefore, memAfter runtime.MemStats
}

func (r *report) result(m map[string]metric) result {
	return result{
		Correct:   r.e.Failed == 0,
		Attempted: r.e.Attempted,
		Failed:    r.e.Failed,
		Metrics:   m,
	}
}

// measure primes the daemon, runs the timed phase and checks its output.
// keepMasks keeps every job's mask bytes for the traced run's re-timing.
func measure(o *options, d *daemon, keepMasks bool) (*report, error) {
	g, err := newGenerator(o.workload, uint64(o.seed))
	if err != nil {
		return nil, err
	}
	refMasks, err := prime(d, g)
	if err != nil {
		return nil, err
	}
	clients := 1
	if o.workload == wlRepeat {
		clients = runtime.NumCPU()
	}
	rep := &report{workload: o.workload}
	coldHits := d.cache.Stats().Hits
	rep.before = readCounters()
	runtime.ReadMemStats(&rep.memBefore)
	rep.t = drive(d, g, clients, blocksFor(o.workload, o.seconds), keepMasks)
	runtime.ReadMemStats(&rep.memAfter)
	rep.after = readCounters()
	coldHits = d.cache.Stats().Hits - coldHits
	for _, r := range rep.t.Jobs {
		if r.Err != nil {
			rep.checks = append(rep.checks, fmt.Errorf("job %s (%s): %w", r.ID, r.Item.Kind, r.Err))
		}
	}
	runErrs := checkRun(o.workload, rep.t, d, refMasks, coldHits)
	for _, r := range rep.t.Jobs {
		if r.CheckErr != nil {
			rep.checks = append(rep.checks, r.CheckErr)
		}
	}
	rep.checks = append(rep.checks, runErrs...)
	rep.e = endToEnd(rep.t, len(runErrs))
	rep.shares = windowShares(rep.before, rep.after)
	return rep, nil
}

// prime runs repeat-service's untimed priming traffic and returns each
// library pattern's reference mask digest: the mask of its second,
// seeded priming run, which fills the cache entry every later exact
// repeat must hit.
func prime(d *daemon, g *generator) (map[int][sha256.Size]byte, error) {
	refs := map[int][sha256.Size]byte{}
	for _, it := range g.priming() {
		rec := runJob(d, it, false)
		if rec.Err != nil {
			return nil, fmt.Errorf("priming: %w", rec.Err)
		}
		refs[it.Pattern] = rec.Mask // the later (seeded) run wins
	}
	return refs, nil
}

// setUp builds the daemon and readies every optics configuration the
// workload uses (kernels built, resist calibrated) by serving one
// single-iteration job per configuration. Those jobs run with max_iter 1,
// which is part of the cache key and the warm-start family, so nothing
// they leave behind is visible to timed traffic.
func setUp(w, dir string, runner mosaic.TileRunner, tune func(*mosaic.Config)) (*daemon, error) {
	d, err := startDaemon(dir, w == wlRepeat, runner, tune)
	if err != nil {
		return nil, err
	}
	for _, spec := range warmupSpecs(w) {
		rec := runJob(d, item{Spec: spec}, false)
		if rec.Err != nil {
			d.close()
			return nil, fmt.Errorf("set-up job: %w", rec.Err)
		}
	}
	return d, nil
}

// warmupSpecs returns one single-iteration job per optics configuration
// and optimizer mode the workload uses.
func warmupSpecs(w string) []serve.JobSpec {
	if w == wlClips {
		l, err := mosaic.Benchmark("B1")
		if err != nil {
			panic(err)
		}
		text := layoutText(l)
		return []serve.JobSpec{
			{Layout: text, Mode: kindFast, Grid: clipGrid, MaxIter: 1},
			{Layout: text, Mode: kindExact, Grid: clipGrid, MaxIter: 1},
		}
	}
	l := arrange("setup", catalogue(), []int{0, 1, 2, 3}, 2)
	return []serve.JobSpec{{Layout: layoutText(l), Mode: kindFast, Grid: coreGrid, TileNM: tileNM, MaxIter: 1}}
}

// setupSamples returns this process's set-up time plus setupReps-1 more,
// each measured in a fresh child process (kernel stacks are cached
// process-wide, so a second set-up in one process would be free).
func setupSamples(o *options, own float64) ([]float64, error) {
	out := []float64{own}
	for i := 1; i < o.setupReps; i++ {
		line, err := child(nil, "--setup-only", "--workload", o.workload)
		if err != nil {
			return nil, err
		}
		var v map[string]float64
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		out = append(out, v["setup_s"])
	}
	return out, nil
}

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

// child runs this binary with args (and extra environment) and returns
// the last line of its standard output. The child is waited for before
// child returns.
func child(env []string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1], nil
}

// --- reporting ---------------------------------------------------------

// e2eMetrics maps the end-to-end numbers to their BENCHMARK.json names.
func e2eMetrics(e *e2e) map[string]metric {
	return map[string]metric{
		"setup_s":         {e.SetupS, "s"},
		"suite_s":         {e.SuiteS, "s"},
		"job_p50_s":       {e.JobP50, "s"},
		"job_tail_s":      {e.JobTail, "s"},
		"um2_per_s":       {e.UM2PerS, "um2/s"},
		"pvb_nm2_per_um2": {e.PVB, "nm2/um2"},
		"cpu_s_per_um2":   {e.CPUPerUM2, "s/um2"},
		"peak_rss_mb":     {e.PeakRSSMB, "MB"},
	}
}

func (r *report) print() {
	e := r.e
	fmt.Printf("workload %s: %d jobs attempted, %d failed, %.3f um2 done in %.2f s timed\n",
		r.workload, e.Attempted, e.Failed, e.DoneAreaUM2, r.t.wall())
	rows := []struct {
		name  string
		value float64
		unit  string
		note  string
	}{
		{"setup_s", e.SetupS, "s", fmt.Sprintf("median of %d set-ups %v", len(e.SetupSamples), fmtList(e.SetupSamples))},
		{"suite_s", e.SuiteS, "s", fmt.Sprintf("per pass/block, over %d blocks", e.Suites)},
		{"job_p50_s", e.JobP50, "s", fmt.Sprintf("Harrell-Davis, n=%d", e.Samples)},
		{"job_tail_s", e.JobTail, "s", fmt.Sprintf("p%.1f, %d samples beyond it, n=%d", e.TailPct, int(math.Round(float64(e.Samples)*(100-e.TailPct)/100)), e.Samples)},
		{"um2_per_s", e.UM2PerS, "um2/s", ""},
		{"fail_ratio", e.FailRatio, "ratio", fmt.Sprintf("%d/%d", e.Failed, e.Attempted)},
		{"pvb_nm2_per_um2", e.PVB, "nm2/um2", ""},
		{"epe_viol_per_um2", e.EPE, "1/um2", ""},
		{"shape_viol_per_um2", e.Shape, "1/um2", ""},
		{"quality_per_um2", e.Quality, "pts/um2", "Eq. 22 without runtime"},
		{"cpu_s_per_um2", e.CPUPerUM2, "s/um2", ""},
		{"peak_rss_mb", e.PeakRSSMB, "MB", "VmHWM"},
	}
	for _, row := range rows {
		fmt.Printf("  %-20s %14.6g %-8s %s\n", row.name, row.value, row.unit, row.note)
	}
	if r.shares != nil && r.workload != wlClips {
		s := r.shares
		fmt.Printf("  window shares (counter deltas, %d windows): cache hit %.3f, warm-start seeded %.3f, cold %.3f\n",
			s.windows, s.hit, s.seeded, s.cold)
	}
	for _, err := range r.checks {
		fmt.Printf("  CHECK FAILED: %v\n", err)
	}
	if len(r.checks) == 0 {
		fmt.Println("  output checks: all passed")
	}
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// --- environment header --------------------------------------------------

type envHeader struct {
	fields [][2]string
}

// header records what a result needs to be compared with another:
// machine, runtime, source and run parameters.
func header(o *options) *envHeader {
	h := &envHeader{}
	add := func(k, v string) { h.fields = append(h.fields, [2]string{k, v}) }
	add("workload", o.workload)
	add("seed", strconv.FormatInt(o.seed, 10))
	add("seconds", strconv.Itoa(o.seconds))
	add("trace", strconv.Itoa(o.trace))
	add("nproc", strconv.Itoa(runtime.NumCPU()))
	add("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
	add("go", runtime.Version())
	add("cpu", cpuModel())
	add("git_commit", gitCommit())
	add("source_sha256", sourceDigest())
	return h
}

func (h *envHeader) print() {
	var b strings.Builder
	for _, f := range h.fields {
		fmt.Fprintf(&b, "%s=%q ", f[0], f[1])
	}
	fmt.Println("env:", strings.TrimSpace(b.String()))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git (which would search parent directories); "none" outside a clone.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file of the checkout, so
// results from a checkout without git history still name their code.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// parseLayout reads a generated layout back from its spec text.
func parseLayout(text string) (*geom.Layout, error) {
	return geom.Parse(strings.NewReader(text))
}
