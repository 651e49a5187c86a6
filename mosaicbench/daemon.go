package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/serve"
)

// daemon is an in-process mosaicd: serve.New plus Server.Handler() on a
// loopback listener, configured with the daemon's defaults (one job
// worker, a 256 MiB memory cache tier, one tile retry) and an artifact
// store in a temporary directory.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	base  string
	http  *http.Client
	cache *mosaic.TileCache
	art   *mosaic.ArtifactStore
	warm  *mosaic.WarmStartLibrary
	serve chan error
}

// Defaults of cmd/mosaicd.
const (
	daemonWorkers     = 1
	daemonQueue       = 64
	daemonCacheMiB    = 256
	daemonTileRetries = 1
)

// startDaemon builds the daemon in dir. warm opens a harvesting
// warm-start library; runner, when non-nil, replaces the in-process tile
// runner; tune, when non-nil, is the server's per-job Tune hook.
func startDaemon(dir string, warm bool, runner mosaic.TileRunner, tune func(*mosaic.Config)) (*daemon, error) {
	d := &daemon{serve: make(chan error, 1)}
	var err error
	if d.cache, err = mosaic.OpenTileCache("", daemonCacheMiB<<20); err != nil {
		return nil, err
	}
	if d.art, err = mosaic.OpenArtifactStore(filepath.Join(dir, "artifacts")); err != nil {
		return nil, err
	}
	if warm {
		if d.warm, err = mosaic.OpenWarmStartLibrary(filepath.Join(dir, "warmlib"), 0, true); err != nil {
			d.art.Close()
			return nil, err
		}
	}
	d.srv, err = serve.New(serve.Config{
		Workers:       daemonWorkers,
		QueueLimit:    daemonQueue,
		Optics:        mosaic.DefaultOptics(),
		TileRetries:   daemonTileRetries,
		TileRunner:    runner,
		TileCache:     d.cache,
		ArtifactStore: d.art,
		WarmStart:     d.warm,
		Tune:          tune,
	})
	if err != nil {
		d.art.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		d.art.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	go func() { d.serve <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, drains the job server and closes the stores.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.hs.Shutdown(ctx)}
	if err := <-d.serve; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, d.srv.Shutdown(ctx), d.art.Close())
	d.http.CloseIdleConnections()
	return errors.Join(errs...)
}

// errRefused marks a submit the daemon refused (429 queue full, 503
// draining).
var errRefused = errors.New("submit refused")

// submit posts a spec and returns the job ID.
func (d *daemon) submit(spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := d.http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("%w: HTTP %d", errRefused, resp.StatusCode)
	default:
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: decoding status: %w", err)
	}
	return st.ID, nil
}

// stream is what a client saw on one job's event stream.
type stream struct {
	// RunningAt and TerminalAt are the daemon's own timestamps of the
	// running and terminal state events (millisecond resolution).
	RunningAt, TerminalAt time.Time
	Closed                time.Time // stream closed after the terminal event
	State                 string    // terminal state
	Error                 string
	// Scores are the proxy scores of the job's iteration events, in
	// order (untiled jobs: one optimizer run).
	Scores []float64
}

// wait follows /v1/jobs/{id}/events until the stream closes after a
// terminal state. A stream that ends early (the daemon drops a
// subscriber that falls behind) is resumed with Last-Event-ID.
func (d *daemon) wait(id string) (*stream, error) {
	st := &stream{}
	last := int64(0)
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			return st, fmt.Errorf("events of %s: stream kept ending before a terminal state", id)
		}
		req, err := http.NewRequest(http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return st, err
		}
		if last > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatInt(last, 10))
		}
		resp, err := d.http.Do(req)
		if err != nil {
			return st, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return st, fmt.Errorf("events of %s: HTTP %d", id, resp.StatusCode)
		}
		err = readEvents(resp.Body, st, &last)
		resp.Body.Close()
		if err != nil {
			return st, err
		}
		if st.State != "" {
			st.Closed = time.Now()
			return st, nil
		}
	}
}

// readEvents consumes SSE frames until the body ends.
func readEvents(r io.Reader, st *stream, last *int64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && data != "":
			var ev serve.JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("decoding event: %w", err)
			}
			data = ""
			*last = ev.Seq
			switch ev.Type {
			case "iteration":
				if v, ok := ev.Data["score"].(float64); ok {
					st.Scores = append(st.Scores, v)
				}
			case "state":
				s, _ := ev.Data["state"].(string)
				at := time.UnixMilli(ev.TimeMS)
				switch s {
				case string(serve.StateRunning):
					st.RunningAt = at
				case string(serve.StateDone), string(serve.StateFailed), string(serve.StateCanceled):
					st.State, st.TerminalAt = s, at
					st.Error, _ = ev.Data["error"].(string)
				}
			}
		}
	}
	return sc.Err()
}

// getJSON fetches path into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getBytes fetches path's body.
func (d *daemon) getBytes(path string) ([]byte, error) {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// result fetches a done job's summary and its mask (PGM bytes).
func (d *daemon) result(id string) (*serve.ResultSummary, []byte, error) {
	var sum serve.ResultSummary
	if err := d.getJSON("/v1/jobs/"+id+"/result", &sum); err != nil {
		return nil, nil, err
	}
	mask, err := d.getBytes("/v1/jobs/" + id + "/mask")
	if err != nil {
		return nil, nil, err
	}
	return &sum, mask, nil
}

// verify re-proves an anchored artifact from its leaf bytes.
func (d *daemon) verify(digest string) error {
	var rep mosaic.VerifyReport
	if err := d.getJSON("/v1/artifacts/"+digest+"/verify", &rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("artifact %s does not verify clean", digest)
	}
	return nil
}

// traceSpan is one complete span of a job's exported Perfetto trace.
type traceSpan struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`  // µs since the Unix epoch
	Dur   int64          `json:"dur"` // µs
	Args  map[string]any `json:"args"`
}

// trace fetches the spans the daemon exports for a job.
func (d *daemon) trace(id string) ([]traceSpan, error) {
	var tr struct {
		TraceEvents []traceSpan `json:"traceEvents"`
	}
	if err := d.getJSON("/v1/jobs/"+id+"/trace", &tr); err != nil {
		return nil, err
	}
	out := tr.TraceEvents[:0]
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" {
			out = append(out, ev)
		}
	}
	return out, nil
}

// runDir makes the run's scratch directory under the checkout's build
// directory, so the benchmark writes nowhere else.
func runDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
