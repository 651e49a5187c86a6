package tile

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mosaic/internal/grid"
	"mosaic/internal/ilt"
)

// TestJournalResumeAfterCrash kills a tiled run mid-flight (cancel after
// the first tile completes, standing in for a worker crash), then reruns
// with the same on-disk journal and checks that only the unfinished tiles
// are optimized and the final mask matches an uninterrupted run bit for
// bit.
func TestJournalResumeAfterCrash(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)
	cfg := testConfig()

	ref, err := p.Optimize(context.Background(), ws, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tiles.journal")
	j1, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = p.Optimize(ctx, ws, cfg, Options{
		Workers: 1,
		Journal: j1,
		OnTile: func(done, total int, _ *Tile, _ *ilt.Result) {
			if done == 1 {
				cancel() // crash after the first completed tile
			}
		},
	})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	j1.Close()

	// Append garbage to simulate a torn record from the crash.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x4e, 0x52, 0x4a, 0x4d, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	prior, err := j2.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) == 0 {
		t.Fatal("journal recorded no tiles before the crash")
	}

	reran := 0
	res, err := p.Optimize(context.Background(), ws, cfg, Options{
		Workers: 1,
		Journal: j2,
		OnTile:  func(done, total int, _ *Tile, _ *ilt.Result) { reran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(p.Tiles) - len(prior); reran != want {
		t.Fatalf("resume reran %d tiles, want %d (journal already held %d)", reran, want, len(prior))
	}
	for i, v := range ref.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatal("resumed mask differs from uninterrupted run")
		}
	}
	for i, v := range ref.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatal("resumed gray mask differs from uninterrupted run")
		}
	}

	// A second crash-resume must see the records the first resume
	// appended: they must not sit behind the torn tail, unreadable.
	j2.Close()
	j3, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if all, err := j3.Load(p); err != nil || len(all) != len(p.Tiles) {
		t.Fatalf("second resume adopted %d of %d tiles (err %v)", len(all), len(p.Tiles), err)
	}
	reran = 0
	res, err = p.Optimize(context.Background(), ws, cfg, Options{
		Workers: 1,
		Journal: j3,
		OnTile:  func(done, total int, _ *Tile, _ *ilt.Result) { reran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Fatalf("second resume reran %d tiles, want 0", reran)
	}
	for i, v := range ref.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatal("second resumed gray mask differs from uninterrupted run")
		}
	}
}

func TestJournalIgnoresMismatchedPlan(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiles.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Record a result whose window size does not match the plan.
	z := &ilt.Result{MaskGray: grid.New(p.WindowPx/2, p.WindowPx/2)}
	z.Mask = z.MaskGray.Threshold(0.5)
	if err := j.Record(0, z); err != nil {
		t.Fatal(err)
	}
	prior, err := j.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("mismatched record adopted: %d entries", len(prior))
	}
}

// TestRetryRecoversTransientFault injects a fault that fails each tile's
// first attempt and checks the run succeeds with retries enabled and the
// result is identical to a fault-free run.
func TestRetryRecoversTransientFault(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)
	cfg := testConfig()

	ref, err := p.Optimize(context.Background(), ws, cfg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	res, err := p.Optimize(context.Background(), ws, cfg, Options{
		Workers:      2,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		tileFault: func(index, attempt int) error {
			if attempt == 0 {
				return fmt.Errorf("injected transient fault on tile %d", index)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("retries did not recover the transient fault: %v", err)
	}
	for i, v := range ref.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatal("retried mask differs from fault-free run")
		}
	}

	// A persistent fault must still fail once attempts are exhausted.
	_, err = p.Optimize(context.Background(), ws, cfg, Options{
		Workers:      1,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		tileFault: func(index, attempt int) error {
			return errors.New("injected persistent fault")
		},
	})
	if err == nil {
		t.Fatal("persistent fault did not fail the run")
	}
}

// TestJournalRecordKeepsRuntimeFields pins that a journaled result
// carries RuntimeSec and Seeded across a reopen, like a cached one: a
// resumed run's provenance must not forget that a tile was seeded.
func TestJournalRecordKeepsRuntimeFields(t *testing.T) {
	p := &Plan{WindowPx: 4, Tiles: make([]Tile, 2)}
	path := filepath.Join(t.TempDir(), "tiles.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(4, 4)
	g.Data[5] = 0.75
	if err := j.Record(1, &ilt.Result{MaskGray: g, Objective: 2.5, Iterations: 4, RuntimeSec: 1.25, Seeded: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, &ilt.Result{}); err == nil {
		t.Fatal("journaled a result without a gray mask")
	}
	j.Close()
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := j2.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	r := got[1]
	if len(got) != 1 || r == nil || !r.Seeded || r.RuntimeSec != 1.25 || r.Objective != 2.5 ||
		r.Iterations != 4 || !r.MaskGray.Equal(g, 0) || r.Mask.Data[5] != 1 {
		t.Fatalf("journaled result did not round trip: %+v", r)
	}
}
