package cache

import (
	"fmt"
	"os"

	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
)

// Disk tier layout: dir/<2-hex-digit shard>/<digest>.mtc, one entry per
// file, each a single MTCE frame (see package frame) whose payload is
// the entry version, RuntimeSec and Seeded, then the ilt result payload.
// The binary mask is re-derived by thresholding on read, so a cached
// result is indistinguishable from a freshly computed one. Writes are
// atomic (frame.WriteFile): readers only ever see whole entries. Any
// defect found on read — bad frame, implausible window, version skew —
// quarantines the entry and reports a miss: a damaged cache costs a
// recompute, never a failed run.
const (
	diskMagic   uint32 = 0x4543544d // "MTCE"
	diskVersion        = 3
)

// initDir creates the disk tier's root directory.
func (s *Store) initDir() error {
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("cache: creating cache dir: %w", err)
	}
	return nil
}

// entryPath returns the sharded path of key's entry.
func (s *Store) entryPath(key Key) string {
	return frame.ShardPath(s.dir, key.String(), ".mtc")
}

// encodeEntry frames one result as a disk entry.
func encodeEntry(res *ilt.Result) ([]byte, error) {
	return frame.Marshal(diskMagic, func(e *frame.Enc) error {
		e.I64(diskVersion)
		e.F64(res.RuntimeSec)
		e.Bool(res.Seeded)
		return ilt.WriteResult(e, res)
	})
}

// decodeEntry validates one entry file and rebuilds its result.
func decodeEntry(data []byte) (*ilt.Result, error) {
	payload, err := frame.Open(diskMagic, data)
	if err != nil {
		return nil, err
	}
	d := frame.NewDec(payload)
	d.Version(diskVersion)
	runtime, seeded := d.F64(), d.Bool()
	res := ilt.ReadResult(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	res.RuntimeSec, res.Seeded = runtime, seeded
	return res, nil
}

// diskPut persists a result. Best-effort: any failure is logged and the
// entry simply stays absent.
func (s *Store) diskPut(key Key, res *ilt.Result) {
	if s.dir == "" || res == nil || res.MaskGray == nil {
		return
	}
	data, err := encodeEntry(res)
	if err == nil {
		err = frame.WriteFile(s.entryPath(key), data, false)
	}
	if err != nil {
		obs.Logger().Warn("cache: writing entry", "key", key.String(), "err", err)
	}
}

// diskGet loads key's entry, quarantining anything that does not decode
// cleanly.
func (s *Store) diskGet(key Key) (*ilt.Result, bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			obs.Logger().Warn("cache: reading entry", "path", path, "err", err)
		}
		return nil, false
	}
	res, err := decodeEntry(data)
	if err != nil {
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
		mCorrupt.Inc()
		obs.Logger().Warn("cache: quarantining corrupt entry", "path", path, "err", err)
		frame.Quarantine(path)
		return nil, false
	}
	return res, true
}
