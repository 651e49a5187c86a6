package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"mosaic/internal/metrics"
	"mosaic/internal/serve"
)

// jobRecord is one job as its client saw it.
type jobRecord struct {
	Item        item
	ID          string
	SubmitStart time.Time // POST sent
	Accepted    time.Time // POST answered 202
	Stream      *stream
	ResultEnd   time.Time // result and mask fetched
	Summary     *serve.ResultSummary
	Mask        [sha256.Size]byte // digest of the mask PGM
	MaskPGM     []byte            // kept only when the traced run needs it
	Refused     bool
	Err         error // refused, failed, canceled, or a fetch error
	CheckErr    error // a failed output check
}

func (r *jobRecord) done() bool { return r.Err == nil && r.Summary != nil }

// latency is submit accepted to event stream closed.
func (r *jobRecord) latency() float64 { return r.Stream.Closed.Sub(r.Accepted).Seconds() }

// runJob submits one job, follows its event stream to the end and
// fetches the result.
func runJob(d *daemon, it item, keepMask bool) *jobRecord {
	rec := &jobRecord{Item: it, SubmitStart: time.Now()}
	id, err := d.submit(it.Spec)
	rec.Accepted = time.Now()
	if err != nil {
		rec.Refused = errors.Is(err, errRefused)
		rec.Err = err
		return rec
	}
	rec.ID = id
	st, err := d.wait(id)
	rec.Stream = st
	if err != nil {
		rec.Err = err
		return rec
	}
	if st.State != string(serve.StateDone) {
		rec.Err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		return rec
	}
	sum, mask, err := d.result(id)
	rec.ResultEnd = time.Now()
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Summary = sum
	rec.Mask = sha256.Sum256(mask)
	if keepMask {
		rec.MaskPGM = mask
	}
	return rec
}

// timed is the outcome of one timed phase.
type timed struct {
	Jobs       []*jobRecord
	Start, End time.Time
	CPU        float64 // process user+sys seconds over the phase
}

func (t *timed) wall() float64 { return t.End.Sub(t.Start).Seconds() }

// drive runs closed-loop clients over the first blocks blocks of the
// generator's stream: each client takes the next job, runs it to the end
// and only then takes another. Jobs come back in stream order.
func drive(d *daemon, g *generator, clients, blocks int, keepMask bool) *timed {
	var (
		mu   sync.Mutex
		next int
		recs = map[int]*jobRecord{}
		wg   sync.WaitGroup
	)
	t := &timed{Start: time.Now()}
	cpu0 := cpuSeconds()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				it := g.next(i)
				if it.Block >= blocks {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				rec := runJob(d, it, keepMask)
				mu.Lock()
				recs[i] = rec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.End = time.Now()
	t.CPU = cpuSeconds() - cpu0
	for i := 0; i < len(recs); i++ {
		t.Jobs = append(t.Jobs, recs[i])
	}
	return t
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// --- end-to-end metrics --------------------------------------------------

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e holds the end-to-end numbers of one run.
type e2e struct {
	SetupS       float64
	SetupSamples []float64
	SuiteS       float64
	Suites       int
	JobP50       float64
	JobTail      float64
	TailPct      float64
	Samples      int
	UM2PerS      float64
	FailRatio    float64
	PVB          float64 // nm2 per um2
	EPE          float64 // violations per um2
	Shape        float64 // violations per um2
	Quality      float64 // Eq. 22 without its runtime term, per um2
	CPUPerUM2    float64
	PeakRSSMB    float64
	Attempted    int
	Failed       int
	DoneAreaUM2  float64
}

// endToEnd derives the end-to-end numbers from a timed phase. Quality is
// summed from the result's pvband_nm2, epe_violations and
// shape_violations fields only: /result's score folds in runtime_sec.
func endToEnd(t *timed, failedChecks int) *e2e {
	e := &e2e{}
	var lat []float64
	var pvb, area float64
	var epe, shape int
	for _, r := range t.Jobs {
		e.Attempted++
		if !r.done() || r.CheckErr != nil {
			e.Failed++
		}
		if !r.done() {
			continue
		}
		lat = append(lat, r.latency())
		area += r.Item.AreaUM2
		pvb += r.Summary.PVBandNM2
		epe += r.Summary.EPEViolations
		shape += r.Summary.ShapeViolations
	}
	e.Attempted += failedChecks
	e.Failed += failedChecks
	e.DoneAreaUM2 = area
	e.Samples = len(lat)
	e.JobP50 = hdMedian(lat)
	e.JobTail, e.TailPct = tail(lat)
	e.UM2PerS = area / t.wall()
	e.FailRatio = float64(e.Failed) / float64(max(e.Attempted, 1))
	if area > 0 {
		e.PVB = pvb / area
		e.EPE = float64(epe) / area
		e.Shape = float64(shape) / area
		e.Quality = metrics.Score(0, pvb, epe, shape) / area
		e.CPUPerUM2 = t.CPU / area
	}
	e.SuiteS, e.Suites = suiteTime(t)
	e.PeakRSSMB = peakRSSMB()
	return e
}

// suiteTime is the wall time of one block (clips pass, layout-cold
// layout, repeat-service mix block): the timed wall divided by the blocks
// run. A mean over the whole timed phase rather than a median of block
// walls, so a short slow spell on a shared host moves it by its share of
// the run only.
func suiteTime(t *timed) (float64, int) {
	blocks := map[int]bool{}
	for _, r := range t.Jobs {
		blocks[r.Item.Block] = true
	}
	if len(blocks) == 0 {
		return 0, 0
	}
	return t.wall() / float64(len(blocks)), len(blocks)
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest latency percentile with at least tailSamples
// samples beyond it, and that percentile. When that percentile would lie
// below the median (fewer than 2*tailSamples+1 samples) it falls back to
// the maximum, percentile 100.
func tail(v []float64) (float64, float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) - tailSamples - 1
	if k < len(s)/2 {
		return s[len(s)-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdMedian is the Harrell-Davis estimate of the median: a weighted mean
// of every order statistic, the weights being the mass a Beta((n+1)/2,
// (n+1)/2) distribution puts on each 1/n-wide slice of [0, 1]. Unlike the
// sample median it does not jump between the two middle values, which
// matters when latencies are bimodal (a clips pass is half MOSAIC_fast,
// half MOSAIC_exact, so the sample median is the midpoint of the gap).
func hdMedian(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// Beta pdf up to its normalising constant; the weights are normalised
	// below. a = b = (n+1)/2 >= 1, so the pdf is bounded on [0, 1].
	k := float64(n-1) / 2
	pdf := func(t float64) float64 { return math.Pow(t*(1-t), k) }
	const steps = 32 // Simpson steps per slice, even
	var sum, wsum float64
	for i := 0; i < n; i++ {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		w := pdf(lo) + pdf(lo+steps*h)
		for j := 1; j < steps; j++ {
			w += float64(2+2*(j%2)) * pdf(lo+float64(j)*h)
		}
		sum += w * s[i]
		wsum += w
	}
	return sum / wsum
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// --- output checks -------------------------------------------------------

// table2FastPVB is Table2MOSAICFast's PV band over B2+B4+B8 at 128 px /
// 8 nm (results/BENCH_20260807c.txt), with 0 EPE violations.
const table2FastPVB = 6400

var table2Cases = map[string]bool{"B2": true, "B4": true, "B8": true}

// checkRun applies the workload's output checks. Per-job failures are
// recorded on the job; run-level failures are returned.
func checkRun(w string, t *timed, d *daemon, refMasks map[int][sha256.Size]byte, coldCacheHits int64) []error {
	var errs []error
	for _, r := range t.Jobs {
		switch {
		case !r.done():
		case r.Summary.ShapeViolations != 0:
			r.CheckErr = fmt.Errorf("job %s (%s %s): %d shape violations", r.ID, r.Item.Kind, r.Item.Clip, r.Summary.ShapeViolations)
		case w == wlClips && r.Summary.EPEViolations != 0:
			// Every clip measures 0 EPE violations in both modes at this
			// grid; the paper claims near-zero.
			r.CheckErr = fmt.Errorf("job %s (%s %s): %d EPE violations", r.ID, r.Item.Kind, r.Item.Clip, r.Summary.EPEViolations)
		}
	}
	switch w {
	case wlClips:
		errs = append(errs, checkClips(t)...)
	case wlCold:
		if coldCacheHits != 0 {
			errs = append(errs, fmt.Errorf("layout-cold: %d cache hits; every window must be new", coldCacheHits))
		}
	case wlRepeat:
		for _, r := range t.Jobs {
			if !r.done() || r.Item.Kind != kindRepeat {
				continue
			}
			if ref, ok := refMasks[r.Item.Pattern]; !ok || ref != r.Mask {
				r.CheckErr = fmt.Errorf("job %s: exact repeat of pattern %d returned a mask that differs from the pattern's reference run", r.ID, r.Item.Pattern)
			}
		}
	}
	errs = append(errs, checkArtifacts(t, d)...)
	return errs
}

// checkClips enforces the paper's claims on every complete pass.
func checkClips(t *timed) []error {
	type pass struct {
		n        int
		fastPVB  float64
		fastEPE  int
		quality  map[string]float64
		complete bool
	}
	passes := map[int]*pass{}
	for _, r := range t.Jobs {
		p := passes[r.Item.Block]
		if p == nil {
			p = &pass{quality: map[string]float64{}, complete: true}
			passes[r.Item.Block] = p
		}
		p.n++
		if !r.done() {
			p.complete = false
			continue
		}
		s := r.Summary
		p.quality[r.Item.Kind] += metrics.Score(0, s.PVBandNM2, s.EPEViolations, s.ShapeViolations)
		if r.Item.Kind == kindFast && table2Cases[r.Item.Clip] {
			p.fastPVB += s.PVBandNM2
			p.fastEPE += s.EPEViolations
		}
	}
	var errs []error
	for b, p := range passes {
		if !p.complete || p.n != 2*10 {
			continue
		}
		if p.fastPVB != table2FastPVB || p.fastEPE != 0 {
			errs = append(errs, fmt.Errorf("clips pass %d: MOSAIC_fast over B2+B4+B8 has PV band %g nm2 and %d EPE violations, want %d and 0", b, p.fastPVB, p.fastEPE, table2FastPVB))
		}
		if p.quality[kindExact] > p.quality[kindFast] {
			errs = append(errs, fmt.Errorf("clips pass %d: MOSAIC_exact quality %g is worse than MOSAIC_fast %g", b, p.quality[kindExact], p.quality[kindFast]))
		}
	}
	return errs
}

// artifactSample is how many anchored records each run re-verifies.
const artifactSample = 3

// checkArtifacts re-proves a spread sample of the run's anchored records
// via GET /v1/artifacts/{digest}/verify.
func checkArtifacts(t *timed, d *daemon) []error {
	var done []*jobRecord
	for _, r := range t.Jobs {
		if r.done() {
			done = append(done, r)
		}
	}
	if len(done) == 0 {
		return nil
	}
	var errs []error
	for k := 0; k < artifactSample; k++ {
		r := done[k*(len(done)-1)/max(artifactSample-1, 1)]
		if r.Summary.MerkleRoot == "" {
			errs = append(errs, fmt.Errorf("job %s has no anchored artifact record", r.ID))
			continue
		}
		if err := d.verify(r.Summary.MerkleRoot); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
