package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/httpapi"
	"mosaic/internal/obs"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Capacity is the number of tiles optimized concurrently; 0 means 1.
	// The coordinator mirrors it as the per-worker in-flight cap, so the
	// worker's own gate only trips under oversubscription (a second
	// coordinator, an operator curl).
	Capacity int
	// Client performs control-plane calls (join, heartbeat, leave); nil
	// uses a client with a 10-second timeout.
	Client *http.Client
	// Name identifies this worker process in shipped trace spans (the
	// "proc" attribute); usually its advertised address. Empty means
	// "worker".
	Name string
}

// Worker is the executor side of a cluster: it serves tile jobs over
// HTTP and keeps itself registered with a coordinator. Workers hold no
// run state — every job frame is self-contained — so a worker can be
// killed and replaced at any time without corrupting a run.
type Worker struct {
	capacity int
	client   *http.Client
	name     string
	slots    chan struct{}

	simMu sync.Mutex
	sims  map[string]*simEntry
}

// simEntry caches one Simulator (and its kernel build) per imaging
// configuration, mirroring serve's per-config setup cache.
type simEntry struct {
	once sync.Once
	sim  *sim.Simulator
	err  error
}

// NewWorker builds a worker executor.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	name := cfg.Name
	if name == "" {
		name = "worker"
	}
	return &Worker{
		capacity: cfg.Capacity,
		client:   client,
		name:     name,
		slots:    make(chan struct{}, cfg.Capacity),
		sims:     make(map[string]*simEntry),
	}
}

// simFor returns the cached simulator for a job's imaging configuration,
// building the kernel set at most once per configuration. The resist
// model arrives calibrated from the coordinator, so workers never
// recalibrate (a recalibration could diverge and break bit-identity).
func (w *Worker) simFor(job *tile.Request) (*sim.Simulator, error) {
	key := fmt.Sprintf("%+v|%+v", job.Sim.Cfg, job.Sim.Resist)
	w.simMu.Lock()
	e := w.sims[key]
	if e == nil {
		e = &simEntry{}
		w.sims[key] = e
	}
	w.simMu.Unlock()
	e.once.Do(func() {
		e.sim, e.err = sim.New(job.Sim.Cfg, job.Sim.Resist)
	})
	return e.sim, e.err
}

// Handler returns the worker's data-plane API:
//
//	POST /v1/cluster/tile  MTJB frame -> MTRS frame (200), 503 when at
//	                       capacity, 400 on a malformed frame, 500 when
//	                       the optimization itself fails
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/tile", w.handleTile)
	return mux
}

func (w *Worker) handleTile(rw http.ResponseWriter, r *http.Request) {
	select {
	case w.slots <- struct{}{}:
		defer func() { <-w.slots }()
	default:
		mWorkerBusy.Inc()
		httpapi.Error(rw, http.StatusServiceUnavailable, httpapi.CodeWorkerBusy, ErrWorkerBusy.Error())
		return
	}
	payload, _, err := frame.Read(r.Body, magicTileJob)
	if err != nil {
		httpapi.Error(rw, http.StatusBadRequest, httpapi.CodeBadRequest, "reading tile job: "+err.Error())
		return
	}
	job, err := decodeTileJob(payload)
	if err != nil {
		httpapi.Error(rw, http.StatusBadRequest, httpapi.CodeBadRequest, "decoding tile job: "+err.Error())
		return
	}
	ws, err := w.simFor(job)
	if err != nil {
		httpapi.Error(rw, http.StatusInternalServerError, httpapi.CodeInternal, "building simulator: "+err.Error())
		return
	}

	// Adopt the coordinator's trace position, if it sent one: every span
	// this tile produces is buffered locally and shipped back on the
	// result frame, so the coordinator assembles one cross-process trace.
	ctx := r.Context()
	var buf *obs.SpanBuffer
	var tileSpan *obs.ActiveSpan
	if tc, err := obs.ParseTraceparent(r.Header.Get("Traceparent")); err == nil {
		buf = obs.NewSpanBuffer(0)
		ctx = obs.ContextWithRemote(ctx, tc, buf)
		ctx, tileSpan = obs.StartSpan(ctx, "worker.tile", obs.Int("tile", job.Tile.Index))
	}

	start := time.Now()
	res, err := tile.RunWindow(ctx, ws, job.Cfg, job.Tile.Layout, job.Plan.WindowPx, job.Plan.PixelNM, job.Samples)
	if err != nil {
		// The coordinator (or its lease) canceled the request mid-tile:
		// nobody is listening for this body anyway.
		if r.Context().Err() != nil {
			httpapi.Error(rw, http.StatusServiceUnavailable, httpapi.CodeCanceled, "tile canceled: "+err.Error())
			return
		}
		httpapi.Error(rw, http.StatusInternalServerError, httpapi.CodeInternal, fmt.Sprintf("optimizing tile %d: %v", job.Tile.Index, err))
		return
	}
	var spans []obs.SpanEvent
	if buf != nil {
		tileSpan.End()
		spans = buf.Events()
		for i := range spans {
			attrs := append(spans[i].Attrs, obs.String("proc", w.name))
			hasTile := false
			for _, a := range attrs {
				if a.Key == "tile" {
					hasTile = true
					break
				}
			}
			if !hasTile {
				attrs = append(attrs, obs.Int("tile", job.Tile.Index))
			}
			spans[i].Attrs = attrs
		}
	}
	out, err := encodeTileResult(job.Tile.Index, res, spans)
	if err != nil {
		httpapi.Error(rw, http.StatusInternalServerError, httpapi.CodeInternal, "encoding tile result: "+err.Error())
		return
	}
	mWorkerTiles.Inc()
	obs.Logger().Info("cluster: tile optimized",
		"tile", job.Tile.Index, "window_px", job.Plan.WindowPx, "elapsed", time.Since(start).Round(time.Millisecond))
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(frame.Append(nil, magicTileResult, out))
}

// Run joins the coordinator at coordinatorURL, advertising selfURL as
// this worker's base address, and heartbeats until ctx is canceled. A
// coordinator that forgets the worker (restart, heartbeat-TTL expiry
// during a network blip) answers 404 and Run rejoins under a fresh
// identity. On ctx cancel the worker leaves gracefully. Run only fails
// fatally on ctx cancellation — join errors retry forever, because a
// fleet worker's job is to keep trying to be part of the fleet.
func (wk *Worker) Run(ctx context.Context, coordinatorURL, selfURL string) error {
	for {
		reply, err := wk.join(ctx, coordinatorURL, selfURL)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			obs.Logger().Warn("cluster: join failed, retrying", "coordinator", coordinatorURL, "err", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Second):
			}
			continue
		}
		obs.Logger().Info("cluster: joined",
			"coordinator", coordinatorURL, "worker", reply.WorkerID, "heartbeat_ms", reply.HeartbeatMS)
		if err := wk.heartbeatLoop(ctx, coordinatorURL, reply); err == errRejoin {
			continue
		}
		// ctx canceled: leave politely with a short grace budget.
		lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		wk.post(lctx, coordinatorURL+"/v1/cluster/leave", map[string]string{"worker_id": reply.WorkerID}, nil)
		cancel()
		return ctx.Err()
	}
}

// errRejoin is heartbeatLoop's signal that the coordinator no longer
// knows this worker and Run should join again.
var errRejoin = fmt.Errorf("cluster: coordinator dropped worker, rejoining")

func (wk *Worker) heartbeatLoop(ctx context.Context, coordinatorURL string, reply *JoinReply) error {
	interval := time.Duration(reply.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		code, err := wk.post(ctx, coordinatorURL+"/v1/cluster/heartbeat", map[string]string{"worker_id": reply.WorkerID}, nil)
		switch {
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			// Transient network trouble: keep beating; the coordinator
			// will drop us only after HeartbeatTTL, and a 404 on a later
			// beat triggers the rejoin.
			obs.Logger().Warn("cluster: heartbeat failed", "err", err)
		case code == http.StatusNotFound:
			return errRejoin
		}
	}
}

func (wk *Worker) join(ctx context.Context, coordinatorURL, selfURL string) (*JoinReply, error) {
	var reply JoinReply
	code, err := wk.post(ctx, coordinatorURL+"/v1/cluster/join",
		map[string]any{"addr": selfURL, "capacity": wk.capacity}, &reply)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("cluster: join rejected: HTTP %d", code)
	}
	if reply.WorkerID == "" {
		return nil, fmt.Errorf("cluster: join reply carried no worker id")
	}
	return &reply, nil
}

// post sends one JSON request and decodes the response into out (when
// non-nil and the status is 200). The status code is returned for all
// well-formed exchanges so callers can branch on 404.
func (wk *Worker) post(ctx context.Context, url string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wk.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", url, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, nil
}
