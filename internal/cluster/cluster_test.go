package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// clusterLayout is a 1024 nm clip tiling 2x2 at 512 nm pitch with
// geometry in every quadrant, so all four tiles carry real work and are
// dispatched (empty windows short-circuit locally).
func clusterLayout() *geom.Layout {
	l := &geom.Layout{
		Name:   "cluster-test",
		SizeNM: 1024,
		Polys: []geom.Polygon{
			geom.Rect{X: 300, Y: 470, W: 424, H: 84}.Polygon(), // bar across the x=512 seam
			geom.Rect{X: 100, Y: 100, W: 160, H: 90}.Polygon(),
			geom.Rect{X: 700, Y: 760, W: 180, H: 96}.Polygon(),
			geom.Rect{X: 680, Y: 180, W: 110, H: 110}.Polygon(),
			geom.Rect{X: 140, Y: 720, W: 130, H: 100}.Polygon(),
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}

// testEnv is the shared fixture: one plan, one calibrated window
// simulator, one deterministic optimizer configuration, and the local
// reference run every distributed test must reproduce bit for bit.
// Building it (kernels + calibration + a full local run) is the
// expensive part of this package's tests, so it is done once.
type testEnv struct {
	plan *tile.Plan
	ws   *sim.Simulator
	cfg  ilt.Config
	ref  *tile.Result
}

var (
	envOnce sync.Once
	envVal  *testEnv
	envErr  error
)

func sharedEnv(t *testing.T) *testEnv {
	t.Helper()
	envOnce.Do(func() {
		base := optics.Default()
		base.GridSize = 64
		base.PixelNM = 8
		base.Kernels = 6
		plan, err := tile.NewPlan(clusterLayout(), 8, 512, tile.DefaultHaloNM(base))
		if err != nil {
			envErr = err
			return
		}
		wcfg := base
		wcfg.GridSize = plan.WindowPx
		ws, err := sim.New(wcfg, resist.Default())
		if err != nil {
			envErr = err
			return
		}
		thr, err := ws.CalibrateThreshold()
		if err != nil {
			envErr = err
			return
		}
		ws.Resist.Threshold = thr

		cfg := ilt.DefaultConfig(ilt.ModeFast)
		cfg.MaxIter = 6
		cfg.GradKernels = 1 // single-chunk gradient: bit-reproducible across GOMAXPROCS
		cfg.SRAFInit = false

		ref, err := plan.Optimize(context.Background(), ws, cfg, tile.Options{Workers: 2})
		if err != nil {
			envErr = err
			return
		}
		envVal = &testEnv{plan: plan, ws: ws, cfg: cfg, ref: ref}
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// optimizeVia runs the shared plan through a coordinator's RunTile.
func optimizeVia(t *testing.T, env *testEnv, c *Coordinator, workers int) *tile.Result {
	t.Helper()
	res, err := env.plan.Optimize(context.Background(), env.ws, env.cfg, tile.Options{
		Workers: workers,
		Runner:  c,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustMatchRef asserts bit-identity against the local reference run.
func mustMatchRef(t *testing.T, env *testEnv, res *tile.Result) {
	t.Helper()
	for i, v := range env.ref.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatalf("gray mask differs from the local run at pixel %d: %g != %g", i, res.MaskGray.Data[i], v)
		}
	}
	for i, v := range env.ref.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatalf("binary mask differs from the local run at pixel %d", i)
		}
	}
}

// startWorker serves a Worker over a real HTTP listener.
func startWorker(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Capacity: capacity}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := []byte("tile job bytes \x00\xff")
	buf := bytes.NewBuffer(frame.Append(nil, magicTileJob, payload))
	n := buf.Len()
	if n != 12+len(payload) {
		t.Fatalf("frame wrote %d bytes, want %d", n, 12+len(payload))
	}
	got, rn, err := frame.Read(bytes.NewReader(buf.Bytes()), magicTileJob)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n || !bytes.Equal(got, payload) {
		t.Fatalf("round trip read %d bytes %q, want %d bytes %q", rn, got, n, payload)
	}

	if _, _, err := frame.Read(bytes.NewReader(buf.Bytes()), magicTileResult); err == nil {
		t.Fatal("wrong magic accepted")
	}
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[14] ^= 0x01 // payload corruption must trip the CRC
	if _, _, err := frame.Read(bytes.NewReader(flipped), magicTileJob); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted payload: %v, want a CRC error", err)
	}
	if _, _, err := frame.Read(bytes.NewReader(buf.Bytes()[:len(buf.Bytes())-1]), magicTileJob); err == nil {
		t.Fatal("truncated frame accepted")
	}
	huge := make([]byte, 12)
	copy(huge, buf.Bytes()[:4])
	for i := 4; i < 8; i++ {
		huge[i] = 0xff // length far beyond the payload cap
	}
	if _, _, err := frame.Read(bytes.NewReader(huge), magicTileJob); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestTileJobCodecRoundTrip(t *testing.T) {
	env := sharedEnv(t)
	samples := []geom.Sample{
		{Pt: geom.Point{X: 12.5, Y: 99.25}, Horizontal: true, InwardX: 0, InwardY: -1},
		{Pt: geom.Point{X: 301.75, Y: 470}, Horizontal: false, InwardX: 1, InwardY: 0},
	}
	req := &tile.Request{
		Plan:    env.plan,
		Tile:    &env.plan.Tiles[1],
		Sim:     env.ws,
		Cfg:     env.cfg,
		Samples: samples,
	}
	job, err := decodeTileJob(encodeTileJob(req))
	if err != nil {
		t.Fatal(err)
	}
	if job.Tile.Index != 1 || job.Plan.WindowPx != env.plan.WindowPx || job.Plan.PixelNM != env.plan.PixelNM {
		t.Fatalf("geometry fields did not round trip: %+v", job)
	}
	if job.Sim.Cfg != env.ws.Cfg {
		t.Fatalf("optics config did not round trip: %+v != %+v", job.Sim.Cfg, env.ws.Cfg)
	}
	if job.Sim.Resist != env.ws.Resist {
		t.Fatalf("resist model did not round trip: %+v != %+v", job.Sim.Resist, env.ws.Resist)
	}
	// Hooks and diagnostics never cross the wire; everything else must.
	want := env.cfg
	want.TrackMetrics = false
	want.OnIter = nil
	want.OnSnapshot = nil
	want.Resume = nil
	if job.Cfg.Mode != want.Mode || job.Cfg.Alpha != want.Alpha || job.Cfg.Beta != want.Beta ||
		job.Cfg.MaxIter != want.MaxIter || job.Cfg.GradKernels != want.GradKernels ||
		job.Cfg.EPESampleNM != want.EPESampleNM || job.Cfg.DefocusNM != want.DefocusNM ||
		job.Cfg.DoseDelta != want.DoseDelta || job.Cfg.SRAFInit != want.SRAFInit {
		t.Fatalf("optimizer config did not round trip: %+v", job.Cfg)
	}
	wl := req.Tile.Layout
	if job.Tile.Layout.Name != wl.Name || job.Tile.Layout.SizeNM != wl.SizeNM || len(job.Tile.Layout.Polys) != len(wl.Polys) {
		t.Fatalf("layout did not round trip: %d polys over %g nm", len(job.Tile.Layout.Polys), job.Tile.Layout.SizeNM)
	}
	for i, p := range wl.Polys {
		for k, pt := range p {
			if job.Tile.Layout.Polys[i][k] != pt {
				t.Fatalf("polygon %d point %d drifted: %+v != %+v", i, k, job.Tile.Layout.Polys[i][k], pt)
			}
		}
	}
	if len(job.Samples) != len(samples) {
		t.Fatalf("got %d samples, want %d", len(job.Samples), len(samples))
	}
	for i, s := range samples {
		if job.Samples[i] != s {
			t.Fatalf("sample %d drifted: %+v != %+v", i, job.Samples[i], s)
		}
	}

	if _, err := decodeTileJob(encodeTileJob(req)[:40]); err == nil {
		t.Fatal("truncated job payload accepted")
	}
	if _, err := decodeTileJob(append(encodeTileJob(req), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestTileJobCodecSeedRoundTrip pins that a warm-start seed and its
// plateau tolerance survive the wire bit-exactly: a coordinator that
// retrieved a library match must hand remote workers the identical
// starting point, or distributed runs diverge from local ones.
func TestTileJobCodecSeedRoundTrip(t *testing.T) {
	env := sharedEnv(t)
	seed := grid.New(env.plan.WindowPx, env.plan.WindowPx)
	vals := []float64{0, 1, 0.5, 1.0 / 3.0, math.Pi / 4, 1e-300}
	for i := range seed.Data {
		seed.Data[i] = vals[i%len(vals)]
	}
	cfg := env.cfg
	cfg.ObjTol = 1e-6
	cfg.SeedMask = seed
	req := &tile.Request{Plan: env.plan, Tile: &env.plan.Tiles[0], Sim: env.ws, Cfg: cfg}

	job, err := decodeTileJob(encodeTileJob(req))
	if err != nil {
		t.Fatal(err)
	}
	if job.Cfg.ObjTol != cfg.ObjTol {
		t.Fatalf("ObjTol did not round trip: %g != %g", job.Cfg.ObjTol, cfg.ObjTol)
	}
	if job.Cfg.SeedMask == nil || job.Cfg.SeedMask.W != seed.W || job.Cfg.SeedMask.H != seed.H {
		t.Fatalf("seed mask did not round trip: %+v", job.Cfg.SeedMask)
	}
	for i, v := range seed.Data {
		if job.Cfg.SeedMask.Data[i] != v {
			t.Fatalf("seed value %d drifted: %g != %g (bit-exactness broken)", i, job.Cfg.SeedMask.Data[i], v)
		}
	}

	// An unseeded job must still decode with a nil seed (the flag byte,
	// not an empty grid).
	plain, err := decodeTileJob(encodeTileJob(&tile.Request{Plan: env.plan, Tile: &env.plan.Tiles[0], Sim: env.ws, Cfg: env.cfg}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cfg.SeedMask != nil {
		t.Fatal("unseeded job decoded with a seed attached")
	}

	// A seed section whose claimed edge overruns the payload must be
	// rejected before allocation.
	payload := encodeTileJob(req)
	if _, err := decodeTileJob(payload[:len(payload)-8]); err == nil {
		t.Fatal("truncated seed section accepted")
	}
}

func TestTileResultCodecRoundTrip(t *testing.T) {
	g := grid.New(8, 8)
	vals := []float64{0, 1, 0.5, 1.0 / 3.0, math.Pi, 1e-308, math.Nextafter(0.5, 1)}
	for i := range g.Data {
		g.Data[i] = vals[i%len(vals)]
	}
	in := &ilt.Result{MaskGray: g, Objective: 42.125, Iterations: 7, RuntimeSec: 1.5}
	// Seeded rides the result frame so the coordinator's provenance and
	// fallback accounting see what the remote worker's probe decided.
	seeded, err := encodeTileResult(4, &ilt.Result{MaskGray: g, Seeded: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, sres, _, err := decodeTileResult(seeded); err != nil || !sres.Seeded {
		t.Fatalf("Seeded flag did not round trip: %+v err=%v", sres, err)
	}
	payload, err := encodeTileResult(3, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, out, _, err := decodeTileResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 || out.Objective != 42.125 || out.Iterations != 7 || out.RuntimeSec != 1.5 {
		t.Fatalf("scalars did not round trip: idx=%d %+v", idx, out)
	}
	if out.Seeded {
		t.Fatal("unseeded result decoded as seeded")
	}
	for i, v := range g.Data {
		if out.MaskGray.Data[i] != v {
			t.Fatalf("gray value %d drifted: %g != %g (bit-exactness broken)", i, out.MaskGray.Data[i], v)
		}
	}
	want := g.Threshold(0.5)
	for i, v := range want.Data {
		if out.Mask.Data[i] != v {
			t.Fatalf("re-derived binary mask differs at %d", i)
		}
	}

	if _, _, _, err := decodeTileResult(payload[:len(payload)-16]); err == nil {
		t.Fatal("truncated result payload accepted")
	}
	if _, _, _, err := decodeTileResult(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes after the span section accepted")
	}
	if _, err := encodeTileResult(0, &ilt.Result{}, nil); err == nil {
		t.Fatal("result without a gray mask encoded")
	}

	// The span section is mandatory (an empty one is a zero count), so
	// every accepted payload re-encodes to itself; MTRS peers share a
	// build, so no span-less legacy form needs accepting.
	if _, _, _, err := decodeTileResult(payload[:len(payload)-8]); err == nil {
		t.Fatal("payload without a span section accepted")
	}
	if _, out, spans, err := decodeTileResult(payload); err != nil || spans != nil || out == nil {
		t.Fatalf("empty span section: spans=%v err=%v", spans, err)
	}
}

// TestDistributedRunBitIdentical is the tentpole guarantee: a run over
// two HTTP workers stitches to exactly the bits of the local run.
func TestDistributedRunBitIdentical(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{})
	w1 := startWorker(t, 2)
	w2 := startWorker(t, 2)
	if _, err := c.Join(w1.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(w2.URL, 2); err != nil {
		t.Fatal(err)
	}

	res := optimizeVia(t, env, c, 4)
	mustMatchRef(t, env, res)

	var done int64
	for _, ws := range c.Workers() {
		done += ws.TilesDone
	}
	if done != int64(len(env.plan.Tiles)) {
		t.Fatalf("fleet completed %d tiles, want %d (tiles leaked to local execution)", done, len(env.plan.Tiles))
	}
}

// TestWorkerDeathReassignsTiles kills the transport mid-dispatch (the
// in-process stand-in for a SIGKILLed worker): the coordinator must drop
// the dead worker, reassign its tiles, and still produce the local bits.
func TestWorkerDeathReassignsTiles(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{})
	alive := startWorker(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // reset mid-request, as a killed process would
		}
	}))
	t.Cleanup(dead.Close)
	if _, err := c.Join(alive.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(dead.URL, 2); err != nil {
		t.Fatal(err)
	}
	before := mTilesReassigned.Value()

	res := optimizeVia(t, env, c, 4)
	mustMatchRef(t, env, res)

	if got := c.Workers(); len(got) != 1 || got[0].Addr != alive.URL {
		t.Fatalf("dead worker still in the fleet: %+v", got)
	}
	if mTilesReassigned.Value() == before {
		t.Fatal("no tile was reassigned, the dead worker was never exercised")
	}
}

// TestLeaseExpiryReassignsHangingWorker covers the worker that neither
// dies nor answers: its lease must expire and the tile move on.
func TestLeaseExpiryReassignsHangingWorker(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{LeaseTTL: 1500 * time.Millisecond, HeartbeatTTL: time.Hour})
	alive := startWorker(t, 2)
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the frame first: the server only detects the client
		// abandoning the request (and cancels r.Context) once the body has
		// been consumed.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hold the tile until the lease is canceled
	}))
	t.Cleanup(hang.Close)
	if _, err := c.Join(alive.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(hang.URL, 1); err != nil {
		t.Fatal(err)
	}
	before := mLeasesExpired.Value()

	res := optimizeVia(t, env, c, 4)
	mustMatchRef(t, env, res)

	if mLeasesExpired.Value() == before {
		t.Fatal("no lease expired, the hanging worker was never exercised")
	}
	// Only the hanging worker's eviction is asserted: under the race
	// detector a genuinely working tile can outlive the short lease too,
	// so the alive worker may come and go without breaking correctness.
	for _, ws := range c.Workers() {
		if ws.Addr == hang.URL {
			t.Fatalf("hanging worker still in the fleet: %+v", c.Workers())
		}
	}
}

// TestNoWorkersFallsBackLocally: an empty fleet must degenerate to the
// plain local pipeline, not an error.
func TestNoWorkersFallsBackLocally(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{})
	before := mTilesLocal.Value()
	res := optimizeVia(t, env, c, 2)
	mustMatchRef(t, env, res)
	if mTilesLocal.Value()-before < int64(len(env.plan.Tiles)) {
		t.Fatalf("expected every tile to run locally, local counter moved %d", mTilesLocal.Value()-before)
	}
}

func TestReaperRemovesSilentWorker(t *testing.T) {
	c := newTestCoordinator(t, Config{HeartbeatTTL: 100 * time.Millisecond})
	reply, err := c.Join("http://127.0.0.1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Workers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker still in the fleet after 5 s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Heartbeat(reply.WorkerID); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after death: %v, want ErrUnknownWorker", err)
	}
}

func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	c := newTestCoordinator(t, Config{HeartbeatTTL: 150 * time.Millisecond})
	reply, err := c.Join("http://127.0.0.1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := c.Heartbeat(reply.WorkerID); err != nil {
			t.Fatalf("heartbeat %d rejected: %v", i, err)
		}
	}
	if len(c.Workers()) != 1 {
		t.Fatal("heartbeating worker was reaped")
	}
}

// TestWorkerBusyAnswers503: a worker at capacity must refuse, not queue,
// so the coordinator's backpressure stays the only queue in the system.
func TestWorkerBusyAnswers503(t *testing.T) {
	wk := NewWorker(WorkerConfig{Capacity: 1})
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(srv.Close)

	wk.slots <- struct{}{} // occupy the only slot
	resp, err := http.Post(srv.URL+"/v1/cluster/tile", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("busy worker answered %d, want 503", resp.StatusCode)
	}
	<-wk.slots

	resp, err = http.Post(srv.URL+"/v1/cluster/tile", "application/octet-stream", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame answered %d, want 400", resp.StatusCode)
	}
}

// TestWorkerRunRejoins drives the real join/heartbeat loop against the
// coordinator's HTTP control plane: a worker the coordinator forgets
// must rejoin by itself, and ctx cancellation must leave the fleet.
func TestWorkerRunRejoins(t *testing.T) {
	c := newTestCoordinator(t, Config{HeartbeatTTL: 300 * time.Millisecond})
	ctl := httptest.NewServer(c.Handler())
	t.Cleanup(ctl.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := NewWorker(WorkerConfig{Capacity: 1})
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx, ctl.URL, "http://127.0.0.1:1") }()

	firstID := waitForFleet(t, c, 1)
	c.Leave(firstID)
	secondID := waitForFleet(t, c, 1)
	if secondID == firstID {
		t.Fatal("worker did not rejoin under a fresh identity")
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Workers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker did not leave the fleet on shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForFleet polls until the fleet has n members, returning the first
// member's ID.
func waitForFleet(t *testing.T, c *Coordinator, n int) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := c.Workers()
		if len(ws) == n {
			return ws[0].ID
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck at %d members, want %d", len(ws), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
