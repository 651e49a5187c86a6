package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/obs"
)

// Leaf is one anchored tile result: the content address of its stored
// blob plus the attribution of where the bits came from. Attribution
// travels on the anchor record, not in the blob, because it must not
// affect the content digest — the same cell computed by any worker or
// served from any cache tier anchors the same leaf.
type Leaf struct {
	// Index is the tile's plan (row-major) position; an untiled run
	// anchors one leaf at index 0.
	Index int `json:"index"`
	// Blob is the content address of the stored result payload — the
	// Merkle leaf digest.
	Blob Digest `json:"blob"`
	// Key is the tile-cache content address of the request
	// (cache.RequestKey hex) when a cache was consulted, cross-linking
	// the artifact to the cache entry that can reproduce it.
	Key string `json:"key,omitempty"`
	// Worker is the cluster worker (advertised address) that computed
	// the tile; empty means this process.
	Worker string `json:"worker,omitempty"`
	// Tier tells how the result was obtained: a cache tier ("mem",
	// "disk", "flight", "miss"), "journal" for a result adopted from a
	// crash/drain journal, "empty" for a window with no geometry, or
	// "" for a fresh computation with no cache in play.
	Tier string `json:"tier,omitempty"`
}

// Record is one anchored job: its manifest digest, the Merkle root
// over manifest + leaves, and the leaves themselves. Records are
// immutable once committed; treat every Record the store hands out as
// read-only.
type Record struct {
	JobID     string    `json:"job_id"`
	Manifest  Digest    `json:"manifest"`
	Root      Digest    `json:"root"`
	Leaves    []Leaf    `json:"leaves"`
	CreatedAt time.Time `json:"created_at"`
}

// BlobRef locates one use of a blob: which job anchors it, and as
// which leaf (ManifestLeaf for the job manifest itself).
type BlobRef struct {
	JobID string `json:"job_id"`
	Leaf  int    `json:"leaf"`
}

// Store is the durable provenance store: content-addressed blobs under
// dir/blobs, an append-only MTAN anchor log, and an in-memory index
// rebuilt from the log on Open. Safe for concurrent use; concurrent
// Commits batch their fsyncs.
type Store struct {
	dir string
	log *os.File // anchors.log; writes serialized through the batcher

	// wmu guards the anchor batcher state below.
	wmu       sync.Mutex
	flushDone *sync.Cond
	pending   []*pendingAnchor
	flushing  bool
	closed    bool

	// imu guards the index maps.
	imu        sync.Mutex
	byJob      map[string]*Record
	byManifest map[Digest][]*Record
	byRoot     map[Digest][]*Record
	byBlob     map[Digest][]BlobRef
}

// Open opens (creating if needed) a store rooted at dir and replays
// the anchor log into the index. Replay is torn-tail tolerant, like
// the tile journal: a record half-written by a crash is truncated away
// and everything before it is kept — its blobs remain on disk and are
// re-anchored for free (deduplicated) when the job re-commits.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: store needs a directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store dir: %w", err)
	}
	s := &Store{
		dir:        dir,
		byJob:      make(map[string]*Record),
		byManifest: make(map[Digest][]*Record),
		byRoot:     make(map[Digest][]*Record),
		byBlob:     make(map[Digest][]BlobRef),
	}
	s.flushDone = sync.NewCond(&s.wmu)
	f, err := os.OpenFile(filepath.Join(dir, "anchors.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifact: opening anchor log: %w", err)
	}
	if err := s.replay(f); err != nil {
		f.Close()
		return nil, err
	}
	s.log = f
	return s, nil
}

// replay rebuilds the index from the anchor log, stopping at the first
// defective frame (a torn tail) and truncating the file there so later
// appends extend a clean log.
func (s *Store) replay(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("artifact: reading anchor log: %w", err)
	}
	off, err := frame.Scan(data, anchorMagic, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		s.index(&rec)
		return nil
	})
	if err != nil {
		obs.Logger().Warn("artifact: truncating torn anchor-log tail",
			"valid_bytes", off, "dropped_bytes", len(data)-off, "err", err)
		if err := f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("artifact: truncating torn anchor log: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("artifact: seeking anchor log: %w", err)
	}
	return nil
}

// index adds a record to the lookup maps; the caller holds imu (or is
// the single-threaded replay).
func (s *Store) index(rec *Record) {
	s.byJob[rec.JobID] = rec // latest record wins for a re-run job ID
	s.byManifest[rec.Manifest] = append(s.byManifest[rec.Manifest], rec)
	s.byRoot[rec.Root] = append(s.byRoot[rec.Root], rec)
	s.byBlob[rec.Manifest] = append(s.byBlob[rec.Manifest], BlobRef{JobID: rec.JobID, Leaf: ManifestLeaf})
	for _, l := range rec.Leaves {
		s.byBlob[l.Blob] = append(s.byBlob[l.Blob], BlobRef{JobID: rec.JobID, Leaf: l.Index})
	}
}

// blobPath is the sharded on-disk location of a blob.
func (s *Store) blobPath(d Digest) string {
	return frame.ShardPath(filepath.Join(s.dir, "blobs"), d.String(), ".blob")
}

// PutBlob writes payload as a content-addressed MTAB blob and returns
// its digest. Blobs are immutable and deduplicated — a payload already
// stored (the same cell anchored by another job) costs a stat, not a
// write. Writes are synced and atomic, so readers only ever see whole
// frames.
func (s *Store) PutBlob(payload []byte) (Digest, error) {
	d := HashBlob(payload)
	path := s.blobPath(d)
	if _, err := os.Stat(path); err == nil {
		mBlobsDeduped.Inc()
		return d, nil
	}
	if err := frame.WriteFile(path, frame.Append(nil, blobMagic, payload), true); err != nil {
		return d, fmt.Errorf("artifact: blob %s: %w", d, err)
	}
	mBlobsWritten.Inc()
	mBlobBytes.Add(int64(len(payload)))
	return d, nil
}

// Blob returns the stored payload behind a digest, proving it on the
// way out: the frame must parse, the CRC must hold, and the payload
// must hash back to the requested digest. A Blob result is verified,
// never trusted.
func (s *Store) Blob(d Digest) ([]byte, error) {
	payload, err := s.rawBlob(d)
	if err != nil {
		return nil, err
	}
	if HashBlob(payload) != d {
		return nil, fmt.Errorf("%w: blob %s content does not hash to its address", ErrCorrupt, d)
	}
	return payload, nil
}

// rawBlob reads and unframes a blob file without checking the content
// address — Verify re-derives digests itself from these bytes.
func (s *Store) rawBlob(d Digest) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(d))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: blob %s", ErrNotFound, d)
		}
		return nil, fmt.Errorf("artifact: reading blob %s: %w", d, err)
	}
	payload, err := frame.Open(blobMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: blob %s: %v", ErrCorrupt, d, err)
	}
	return payload, nil
}

// Commit anchors one completed job: the manifest payload is stored as
// its own blob, the Merkle root is computed over the leaf digests and
// bound to the manifest digest, and the record is appended to the
// anchor log. The record is durable when Commit returns. Concurrent
// commits are batched MerkleBatcher-style: the first committer in
// becomes the flusher and one fsync covers every record that piled up
// while the disk was busy, so a burst of job completions costs one or
// two syncs, not one each.
func (s *Store) Commit(jobID string, manifest []byte, leaves []Leaf) (*Record, error) {
	if jobID == "" {
		return nil, fmt.Errorf("artifact: commit needs a job id")
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("artifact: commit needs at least one leaf")
	}
	md, err := s.PutBlob(manifest)
	if err != nil {
		return nil, err
	}
	ls := make([]Leaf, len(leaves))
	copy(ls, leaves)
	sort.SliceStable(ls, func(a, b int) bool { return ls[a].Index < ls[b].Index })
	ld := make([]Digest, len(ls))
	for i, l := range ls {
		if l.Blob.IsZero() {
			return nil, fmt.Errorf("artifact: leaf %d has no blob digest", l.Index)
		}
		ld[i] = l.Blob
	}
	rec := &Record{
		JobID:     jobID,
		Manifest:  md,
		Root:      AnchorRoot(md, MerkleRoot(ld)),
		Leaves:    ls,
		CreatedAt: time.Now().UTC(),
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding anchor record: %w", err)
	}
	if err := s.appendAnchor(frame.Append(nil, anchorMagic, payload)); err != nil {
		return nil, err
	}
	s.imu.Lock()
	s.index(rec)
	s.imu.Unlock()
	mRecords.Inc()
	return rec, nil
}

// pendingAnchor is one commit waiting for its batch to reach disk.
type pendingAnchor struct {
	frame []byte
	done  chan error
}

// appendAnchor appends one framed record to the anchor log and returns
// once it is fsynced. The first caller in becomes the flusher: it
// drains the pending queue in batches, writing every queued frame and
// issuing a single Sync per batch, while later callers just wait on
// their done channel — the fsync amortization that makes concurrent
// job completions cheap.
func (s *Store) appendAnchor(fr []byte) error {
	p := &pendingAnchor{frame: fr, done: make(chan error, 1)}
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		return ErrClosed
	}
	s.pending = append(s.pending, p)
	if s.flushing {
		s.wmu.Unlock()
		return <-p.done
	}
	s.flushing = true
	for len(s.pending) > 0 {
		batch := s.pending
		s.pending = nil
		s.wmu.Unlock()
		err := s.writeBatch(batch)
		for _, q := range batch {
			q.done <- err
		}
		s.wmu.Lock()
	}
	s.flushing = false
	s.flushDone.Broadcast()
	s.wmu.Unlock()
	return <-p.done
}

// writeBatch writes a batch of frames and syncs once.
func (s *Store) writeBatch(batch []*pendingAnchor) error {
	mAnchorBatches.Inc()
	n := 0
	for _, q := range batch {
		n += len(q.frame)
	}
	buf := make([]byte, 0, n)
	for _, q := range batch {
		buf = append(buf, q.frame...)
	}
	if _, err := s.log.Write(buf); err != nil {
		return fmt.Errorf("artifact: appending anchor: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("artifact: syncing anchor log: %w", err)
	}
	return nil
}

// Close flushes in-flight commits and closes the anchor log. Commits
// arriving after Close fail with ErrClosed.
func (s *Store) Close() error {
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		return nil
	}
	s.closed = true
	for s.flushing {
		s.flushDone.Wait()
	}
	s.wmu.Unlock()
	return s.log.Close()
}

// Job returns the most recent record anchored under a job ID.
func (s *Store) Job(jobID string) (*Record, bool) {
	s.imu.Lock()
	defer s.imu.Unlock()
	rec, ok := s.byJob[jobID]
	return rec, ok
}

// ByManifest returns every record sharing a manifest digest — every
// run of the same work — in commit order.
func (s *Store) ByManifest(d Digest) []*Record {
	s.imu.Lock()
	defer s.imu.Unlock()
	return append([]*Record(nil), s.byManifest[d]...)
}

// ByBlob returns every (job, leaf) anchoring a blob digest, in commit
// order — which jobs a stored tile result participates in.
func (s *Store) ByBlob(d Digest) []BlobRef {
	s.imu.Lock()
	defer s.imu.Unlock()
	return append([]BlobRef(nil), s.byBlob[d]...)
}

// Resolve finds the anchored record a digest names: a Merkle root
// first, then a manifest digest (the two cannot collide short of
// SHA-256 breaking). The latest record wins when several share the
// digest — a re-run job anchors a new record with the same root.
func (s *Store) Resolve(d Digest) (*Record, bool) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if recs := s.byRoot[d]; len(recs) > 0 {
		return recs[len(recs)-1], true
	}
	if recs := s.byManifest[d]; len(recs) > 0 {
		return recs[len(recs)-1], true
	}
	return nil, false
}
