package serve

import (
	"container/heap"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/frame"
	"mosaic/internal/obs"
)

// Checkpoint layout under Config.CheckpointDir:
//
//	<id>.job     — JSON job metadata (spec, priority, submit time)
//	<id>.snap    — latest ilt snapshot of an untiled run (an MTSN frame)
//	<id>.journal — tile journal of a sharded run (appended continuously)
//
// A drain writes .job for every queued and running job and .snap for
// untiled running jobs; sharded jobs already journal while they run.
// Both are written atomically (frame.WriteFile), so a kill mid-drain
// leaves the previous file or the new one, never a torn one. New
// scans the directory and re-queues every .job it finds; completed tiles
// and finished iterations are not recomputed.

type checkpointMeta struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	Priority    int       `json:"priority"`
	SubmittedAt time.Time `json:"submitted_at"`
}

// checkpointLocked persists a job's checkpoint files; the caller holds
// j.mu. It reports whether the job can be resumed by a restarted server.
func (s *Server) checkpointLocked(j *job) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	meta := checkpointMeta{
		ID:          j.id,
		Spec:        j.spec,
		Priority:    j.priority,
		SubmittedAt: j.submitted,
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		obs.Logger().Warn("serve: encoding checkpoint meta", "job", j.id, "err", err)
		return false
	}
	if err := frame.WriteFile(s.checkpointPath(j.id, ".job"), data, true); err != nil {
		obs.Logger().Warn("serve: writing checkpoint meta", "job", j.id, "err", err)
		return false
	}
	if j.snap != nil {
		blob, err := j.snap.MarshalBinary()
		if err == nil {
			err = frame.WriteFile(s.checkpointPath(j.id, ".snap"), blob, true)
		}
		if err != nil {
			// The snapshot is an optimization: without it the job restarts
			// from iteration zero, still correct.
			obs.Logger().Warn("serve: writing snapshot", "job", j.id, "err", err)
		}
	}
	return true
}

// restore scans the checkpoint directory and re-queues every job a
// previous server left behind.
func (s *Server) restore() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job") {
			continue
		}
		path := filepath.Join(s.cfg.CheckpointDir, e.Name())
		j, err := s.restoreOne(path)
		if err != nil {
			obs.Logger().Warn("serve: skipping unreadable checkpoint", "path", path, "err", err)
			continue
		}
		s.mu.Lock()
		s.seq++
		j.seq = s.seq
		heap.Push(&s.queue, j)
		s.jobs[j.id] = j
		mQueueDepth.Set(float64(s.queue.Len()))
		s.mu.Unlock()
		mJobsResumed.Inc()
		obs.Logger().Info("serve: resumed checkpointed job", "job", j.id)
	}
	return nil
}

// restoreOne rebuilds a job from its .job meta file, picking up a .snap
// checkpoint when one exists.
func (s *Server) restoreOne(path string) (*job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var meta checkpointMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	if meta.ID == "" {
		return nil, errors.New("checkpoint meta lacks a job id")
	}
	if err := meta.Spec.validate(); err != nil {
		return nil, err
	}
	layout, err := meta.Spec.resolveLayout()
	if err != nil {
		return nil, err
	}
	j := &job{
		id:        meta.ID,
		priority:  meta.Priority,
		spec:      meta.Spec,
		layout:    layout,
		tel:       newJobTelemetry(),
		state:     StateQueued,
		resumed:   true,
		submitted: meta.SubmittedAt,
	}
	if blob, err := os.ReadFile(s.checkpointPath(meta.ID, ".snap")); err == nil {
		var sn mosaic.Snapshot
		if err := sn.UnmarshalBinary(blob); err != nil {
			obs.Logger().Warn("serve: ignoring corrupt snapshot", "job", meta.ID, "err", err)
		} else {
			j.resume = &sn
		}
	}
	return j, nil
}

// checkpointPath names one of a job's checkpoint files.
func (s *Server) checkpointPath(id, ext string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ext)
}

// removeCheckpoint deletes a finished job's checkpoint files.
func (s *Server) removeCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	for _, ext := range []string{".job", ".snap", ".journal"} {
		if err := os.Remove(s.checkpointPath(id, ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			obs.Logger().Warn("serve: removing checkpoint file", "job", id, "err", err)
		}
	}
}
