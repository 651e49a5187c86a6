package tile

import (
	"fmt"
	"os"
	"sync"

	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
)

// Journal persists per-tile results as a sharded run completes them, so a
// rerun after a crash (or a drained daemon) restarts only the unfinished
// tiles. Implementations must be safe for concurrent Record calls from
// the scheduler's workers.
type Journal interface {
	// Load returns the journaled results keyed by tile index. Records that
	// do not match the plan's window size are ignored (a journal from a
	// different decomposition must not poison a run).
	Load(p *Plan) (map[int]*ilt.Result, error)
	// Record persists tile index's result.
	Record(index int, res *ilt.Result) error
}

// MemJournal is an in-process Journal for tests and single-process
// retries.
type MemJournal struct {
	mu   sync.Mutex
	done map[int]*ilt.Result
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{done: make(map[int]*ilt.Result)} }

// Load returns a copy of the recorded results.
func (j *MemJournal) Load(p *Plan) (map[int]*ilt.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]*ilt.Result, len(j.done))
	for i, r := range j.done {
		if r.MaskGray != nil && r.MaskGray.W == p.WindowPx && r.MaskGray.H == p.WindowPx {
			out[i] = r
		}
	}
	return out, nil
}

// Record stores the result.
func (j *MemJournal) Record(index int, res *ilt.Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[index] = res
	return nil
}

// FileJournal is an append-only on-disk Journal of MJRN frames (see
// package frame). A torn tail — the record a crashed worker was mid-write
// on — is detected on load and truncated away, so a journal survives
// kill -9 semantics without recovery tooling and records appended after
// a resume stay readable by the next one.
type FileJournal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// journalMagic heads every record frame. A record payload is the tile
// index, RuntimeSec and Seeded, then the ilt result payload.
const journalMagic uint32 = 0x4d4a524e // "MJRN"

// OpenFileJournal opens (creating if absent) the journal at path for
// appending. Close releases the file handle.
func OpenFileJournal(path string) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tile: opening journal: %w", err)
	}
	return &FileJournal{path: path, f: f}, nil
}

// Close closes the underlying file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's file path.
func (j *FileJournal) Path() string { return j.path }

// Record appends one tile result. The frame is assembled in memory and
// written with a single Write call so concurrent appends stay whole.
func (j *FileJournal) Record(index int, res *ilt.Result) error {
	rec, err := frame.Marshal(journalMagic, func(e *frame.Enc) error {
		e.I64(int64(index))
		e.F64(res.RuntimeSec)
		e.Bool(res.Seeded)
		return ilt.WriteResult(e, res)
	})
	if err != nil {
		return fmt.Errorf("tile: journaling tile %d: %w", index, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("tile: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("tile: appending journal record: %w", err)
	}
	return nil
}

// Load scans the journal from the start and returns every intact record
// whose window matches the plan. Scanning stops at the first torn or
// corrupt frame — everything after it was written during or after the
// crash being recovered from — and the file is truncated there, so the
// records this run appends follow a clean prefix.
func (j *FileJournal) Load(p *Plan) (map[int]*ilt.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, fmt.Errorf("tile: journal %s is closed", j.path)
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("tile: reading journal: %w", err)
	}
	out := make(map[int]*ilt.Result)
	valid, err := frame.Scan(data, journalMagic, func(payload []byte) error {
		idx, res, err := decodeJournalRecord(payload)
		if err == nil && idx >= 0 && idx < len(p.Tiles) && res.MaskGray.W == p.WindowPx {
			out[idx] = res
		}
		return err
	})
	if err != nil {
		obs.Logger().Warn("tile journal: truncating torn tail",
			"path", j.path, "valid_bytes", valid, "dropped_bytes", len(data)-valid, "err", err)
		if err := j.f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("tile: truncating torn journal: %w", err)
		}
	}
	return out, nil
}

// decodeJournalRecord rebuilds one tile result from a record payload.
func decodeJournalRecord(payload []byte) (int, *ilt.Result, error) {
	d := frame.NewDec(payload)
	idx := int(d.I64())
	runtime, seeded := d.F64(), d.Bool()
	res := ilt.ReadResult(d)
	if err := d.Done(); err != nil {
		return 0, nil, err
	}
	res.RuntimeSec, res.Seeded = runtime, seeded
	return idx, res, nil
}
