package serve

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/grid"
)

// TestCheckpointWritesAreAtomic pins the drain path's durable-write
// contract: checkpoint files are replaced whole (temp file + rename), no
// temp file survives a completed drain, and the half-written temp file a
// killed drain leaves behind is never mistaken for a checkpoint — the
// previous .job and .snap still restore the job.
func TestCheckpointWritesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := New(testServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	j := &job{
		id:        "ckpt",
		priority:  3,
		spec:      JobSpec{Layout: testLayoutText, MaxIter: 6},
		submitted: time.Now().UTC(),
		snap:      &mosaic.Snapshot{Iter: 2, P: grid.New(4, 4), Step: 0.5},
	}
	for range 2 { // the second drain replaces the first's files
		j.mu.Lock()
		ok := s.checkpointLocked(j)
		j.mu.Unlock()
		if !ok {
			t.Fatal("checkpoint reported not resumable")
		}
	}
	// A drain killed mid-write leaves only its temp file.
	torn := filepath.Join(dir, ".ckpt.job.tmp-1")
	if err := os.WriteFile(torn, []byte(`{"id":"ck`), 0o644); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != ".ckpt.job.tmp-1 ckpt.job ckpt.snap" {
		t.Fatalf("checkpoint dir holds %q", got)
	}
	r, err := s.restoreOne(filepath.Join(dir, "ckpt.job"))
	if err != nil {
		t.Fatal(err)
	}
	if r.priority != 3 || r.resume == nil || r.resume.Iter != 2 || r.resume.Step != 0.5 {
		t.Fatalf("restored job lost its checkpoint: priority %d, resume %+v", r.priority, r.resume)
	}
}
