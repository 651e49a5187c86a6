package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
)

func testDigest(b byte) Digest {
	var d Digest
	for i := range d {
		d[i] = b
	}
	return d
}

func TestMerkleRoot(t *testing.T) {
	a, b, c := testDigest(1), testDigest(2), testDigest(3)

	if !MerkleRoot(nil).IsZero() {
		t.Fatal("empty leaf set should fold to the zero digest")
	}
	if got := MerkleRoot([]Digest{a}); got != a {
		t.Fatalf("single leaf should be its own root, got %s", got)
	}
	if got, want := MerkleRoot([]Digest{a, b}), nodeHash(a, b); got != want {
		t.Fatalf("two-leaf root = %s, want nodeHash(a,b) = %s", got, want)
	}
	// Odd leaf promoted unchanged: root(a,b,c) = node(node(a,b), c).
	if got, want := MerkleRoot([]Digest{a, b, c}), nodeHash(nodeHash(a, b), c); got != want {
		t.Fatalf("three-leaf root = %s, want %s", got, want)
	}
	if MerkleRoot([]Digest{a, b}) == MerkleRoot([]Digest{b, a}) {
		t.Fatal("root must be order-sensitive")
	}
	// The input slice must not be clobbered by the in-place fold.
	leaves := []Digest{a, b, c}
	MerkleRoot(leaves)
	if leaves[0] != a || leaves[1] != b || leaves[2] != c {
		t.Fatal("MerkleRoot mutated its input")
	}
	// Domain separation: a leaf equal to nodeHash output must not make
	// a one-leaf tree collide with a two-leaf tree.
	if MerkleRoot([]Digest{nodeHash(a, b)}) != nodeHash(a, b) {
		t.Fatal("single-leaf root should pass through")
	}
	if AnchorRoot(a, b) == nodeHash(a, b) {
		t.Fatal("anchor root must be domain-separated from interior nodes")
	}
}

func TestDigestText(t *testing.T) {
	d := HashBlob([]byte("payload"))
	txt, err := d.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := back.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round-trip %s != %s", back, d)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("ParseDigest should reject non-hex input")
	}
	if _, err := ParseDigest("abcd"); err == nil {
		t.Fatal("ParseDigest should reject short digests")
	}
}

func testResult(w int, seed float64) *ilt.Result {
	g := grid.New(w, w)
	for i := range g.Data {
		g.Data[i] = float64(i%7)/7 + seed
	}
	return &ilt.Result{
		Objective:  12.5 + seed,
		Iterations: 42,
		RuntimeSec: 9.9, // must NOT survive the codec
		MaskGray:   g,
		Mask:       g.Threshold(0.5),
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := testResult(8, 0)
	payload, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Objective != res.Objective || back.Iterations != res.Iterations {
		t.Fatalf("scalars: got (%v,%d), want (%v,%d)", back.Objective, back.Iterations, res.Objective, res.Iterations)
	}
	if back.RuntimeSec != 0 {
		t.Fatal("RuntimeSec must not round-trip through the artifact codec")
	}
	for i := range res.MaskGray.Data {
		if back.MaskGray.Data[i] != res.MaskGray.Data[i] {
			t.Fatalf("gray mask differs at %d", i)
		}
		if back.Mask.Data[i] != res.Mask.Data[i] {
			t.Fatalf("binary mask differs at %d", i)
		}
	}

	// Runtime must not affect the content address either.
	res2 := testResult(8, 0)
	res2.RuntimeSec = 123.0
	p2, err := EncodeResult(res2)
	if err != nil {
		t.Fatal(err)
	}
	if HashBlob(payload) != HashBlob(p2) {
		t.Fatal("runtime changed the blob digest")
	}

	if _, err := EncodeResult(&ilt.Result{}); err == nil {
		t.Fatal("EncodeResult should reject a result without a gray mask")
	}
	if _, err := DecodeResult(payload[:16]); err == nil {
		t.Fatal("DecodeResult should reject truncated payloads")
	}
}

func TestFieldFrameRoundTrip(t *testing.T) {
	f := grid.New(6, 4)
	for i := range f.Data {
		f.Data[i] = float64(i) * 0.25
	}
	data := EncodeFieldFrame(f)
	back, err := DecodeFieldFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != f.W || back.H != f.H {
		t.Fatalf("dims: got %dx%d, want %dx%d", back.W, back.H, f.W, f.H)
	}
	for i := range f.Data {
		if back.Data[i] != f.Data[i] {
			t.Fatalf("data differs at %d", i)
		}
	}
	data[len(data)-1] ^= 0x01
	if _, err := DecodeFieldFrame(data); err == nil {
		t.Fatal("corrupted frame should fail to decode")
	}
}

func TestStoreCommitAndLookup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b1, err := s.PutBlob([]byte("tile-0"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.PutBlob([]byte("tile-1"))
	if err != nil {
		t.Fatal(err)
	}
	// Dedup: second put of the same payload is a no-op.
	if again, err := s.PutBlob([]byte("tile-0")); err != nil || again != b1 {
		t.Fatalf("dedup put: %s, %v", again, err)
	}

	manifest := []byte(`{"schema":1}`)
	// Leaves arrive out of order; Commit must sort by index.
	rec, err := s.Commit("job-1", manifest, []Leaf{
		{Index: 1, Blob: b2, Worker: "w2", Tier: "miss"},
		{Index: 0, Blob: b1, Tier: "disk", Key: "cachekey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Leaves[0].Index != 0 || rec.Leaves[1].Index != 1 {
		t.Fatalf("leaves not sorted: %+v", rec.Leaves)
	}
	wantRoot := AnchorRoot(rec.Manifest, MerkleRoot([]Digest{b1, b2}))
	if rec.Root != wantRoot {
		t.Fatalf("root %s, want %s", rec.Root, wantRoot)
	}

	if got, ok := s.Job("job-1"); !ok || got.Root != rec.Root {
		t.Fatal("Job lookup failed")
	}
	if got, ok := s.Resolve(rec.Root); !ok || got.JobID != "job-1" {
		t.Fatal("Resolve by root failed")
	}
	if got, ok := s.Resolve(rec.Manifest); !ok || got.JobID != "job-1" {
		t.Fatal("Resolve by manifest failed")
	}
	refs := s.ByBlob(b2)
	if len(refs) != 1 || refs[0].JobID != "job-1" || refs[0].Leaf != 1 {
		t.Fatalf("ByBlob(b2) = %+v", refs)
	}
	mrefs := s.ByBlob(rec.Manifest)
	if len(mrefs) != 1 || mrefs[0].Leaf != ManifestLeaf {
		t.Fatalf("ByBlob(manifest) = %+v", mrefs)
	}
	if payload, err := s.Blob(b1); err != nil || string(payload) != "tile-0" {
		t.Fatalf("Blob(b1) = %q, %v", payload, err)
	}
	if _, err := s.Blob(testDigest(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob: %v, want ErrNotFound", err)
	}

	if _, err := s.Commit("", manifest, rec.Leaves); err == nil {
		t.Fatal("Commit should reject an empty job ID")
	}
	if _, err := s.Commit("job-x", manifest, nil); err == nil {
		t.Fatal("Commit should reject an empty leaf set")
	}
	if _, err := s.Commit("job-x", manifest, []Leaf{{Index: 0}}); err == nil {
		t.Fatal("Commit should reject a zero leaf digest")
	}
}

func TestStoreReopenReplaysAnchors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s.PutBlob([]byte("alpha"))
	rec1, err := s.Commit("job-a", []byte("{m1}"), []Leaf{{Index: 0, Blob: b1}})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := s.Commit("job-b", []byte("{m2}"), []Leaf{{Index: 0, Blob: b1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit("late", []byte("{m}"), []Leaf{{Index: 0, Blob: b1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, want := range []*Record{rec1, rec2} {
		got, ok := s2.Job(want.JobID)
		if !ok || got.Root != want.Root || got.Manifest != want.Manifest {
			t.Fatalf("replayed %s = %+v, want %+v", want.JobID, got, want)
		}
	}
	// The same blob anchors in both jobs.
	if refs := s2.ByBlob(b1); len(refs) != 2 {
		t.Fatalf("ByBlob after replay = %+v", refs)
	}
	// And new commits append cleanly after replay.
	if _, err := s2.Commit("job-c", []byte("{m3}"), []Leaf{{Index: 0, Blob: b1}}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s.PutBlob([]byte("alpha"))
	if _, err := s.Commit("job-a", []byte("{m1}"), []Leaf{{Index: 0, Blob: b1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: garbage half-record at the tail.
	logPath := filepath.Join(dir, "anchors.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("MTAN-torn-half-frame"))
	f.Close()
	before, _ := os.Stat(logPath)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Job("job-a"); !ok {
		t.Fatal("valid prefix record lost during torn-tail recovery")
	}
	after, _ := os.Stat(logPath)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The log must still be appendable at the truncated offset.
	rec, err := s2.Commit("job-b", []byte("{m2}"), []Leaf{{Index: 0, Blob: b1}})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got, ok := s3.Job("job-b"); !ok || got.Root != rec.Root {
		t.Fatal("record appended after truncation did not survive reopen")
	}
}

func TestConcurrentCommitsBatchFsyncs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 64
	batchesBefore := mAnchorBatches.Value()
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.PutBlob([]byte(fmt.Sprintf("tile-%d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = s.Commit(fmt.Sprintf("job-%d", i), []byte(fmt.Sprintf("{m%d}", i)), []Leaf{{Index: 0, Blob: b}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 0; i < jobs; i++ {
		if _, ok := s.Job(fmt.Sprintf("job-%d", i)); !ok {
			t.Fatalf("job-%d missing after concurrent commit", i)
		}
	}
	batches := mAnchorBatches.Value() - batchesBefore
	if batches == 0 || batches > jobs {
		t.Fatalf("anchor batches = %d for %d commits", batches, jobs)
	}
	t.Logf("%d commits flushed in %d batches", jobs, batches)
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var leaves []Leaf
	var digests []Digest
	for i := 0; i < 3; i++ {
		payload, err := EncodeResult(testResult(8, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.PutBlob(payload)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, Leaf{Index: i, Blob: d})
		digests = append(digests, d)
	}
	rec, err := s.Commit("job-v", []byte(`{"schema":1}`), leaves)
	if err != nil {
		t.Fatal(err)
	}

	rep := s.Verify(rec)
	if !rep.OK || len(rep.Failures) != 0 {
		t.Fatalf("clean verify failed: %+v", rep)
	}
	if rep.RootRecomputed != rec.Root {
		t.Fatalf("recomputed root %s != anchored %s", rep.RootRecomputed, rec.Root)
	}
	if err := s.VerifyBlob(digests[1]); err != nil {
		t.Fatal(err)
	}

	// Flip one byte deep inside leaf 1's payload. The CRC catches it,
	// and Verify must attribute the failure to exactly that leaf.
	path := s.blobPath(digests[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep = s.Verify(rec)
	if rep.OK {
		t.Fatal("verify passed on a corrupted blob")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Index != 1 || rep.Failures[0].Blob != digests[1] {
		t.Fatalf("failures = %+v, want exactly leaf 1", rep.Failures)
	}
	if err := s.VerifyBlob(digests[1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyBlob on corrupt blob: %v, want ErrCorrupt", err)
	}
	if err := s.VerifyBlob(digests[0]); err != nil {
		t.Fatalf("untouched sibling blob must still verify: %v", err)
	}

	// A payload that still frames correctly but was swapped wholesale
	// (CRC recomputed by an attacker) is caught by the content hash.
	swapped := frame.Append(nil, blobMagic, []byte("not the original payload"))
	if err := os.WriteFile(path, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	rep = s.Verify(rec)
	if rep.OK || len(rep.Failures) != 1 || rep.Failures[0].Index != 1 {
		t.Fatalf("content-swap verify = %+v, want leaf 1 failure", rep)
	}
	if !strings.Contains(rep.Failures[0].Reason, "hash") {
		t.Fatalf("reason %q should name the hash mismatch", rep.Failures[0].Reason)
	}

	// Deleting the blob is a missing-leaf failure.
	os.Remove(path)
	rep = s.Verify(rec)
	if rep.OK || len(rep.Failures) != 1 || rep.Failures[0].Index != 1 {
		t.Fatalf("missing-blob verify = %+v, want leaf 1 failure", rep)
	}
}

func TestManifestDigestDeterminism(t *testing.T) {
	m1 := testManifest()
	m2 := testManifest()
	p1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if HashBlob(p1) != HashBlob(p2) {
		t.Fatal("identical manifests produced different digests")
	}
	back, err := DecodeManifest(p1)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *m1 {
		t.Fatalf("manifest round-trip: %+v != %+v", back, m1)
	}

	// Any bits-affecting field change must move the digest.
	m2.Opt.StepSize *= 1.0000001
	p3, _ := m2.Encode()
	if HashBlob(p1) == HashBlob(p3) {
		t.Fatal("optimizer change did not move the manifest digest")
	}
	m3 := testManifest()
	m3.Layout.Geometry = testDigest(7)
	p4, _ := m3.Encode()
	if HashBlob(p1) == HashBlob(p4) {
		t.Fatal("geometry change did not move the manifest digest")
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Schema:        ManifestSchema,
		DigestVersion: 3,
		Build:         "test@rev",
		Layout:        ManifestLayout{Name: "clip", SizeNM: 2048, Polygons: 4, Geometry: testDigest(5)},
		Optics:        ManifestOptics{WavelengthNM: 193, NA: 1.35, SigmaIn: 0.5, SigmaOut: 0.8, Kernels: 12},
		Resist:        ManifestResist{Threshold: 0.3, ThetaZ: 50},
		Opt:           ManifestOpt{Mode: 1, Alpha: 1, Beta: 0.5, StepSize: 2, MaxIter: 40, GradKernels: 6},
		Tiling:        ManifestTiling{Tiled: true, WindowPx: 512, PixelNM: 4, CoreNM: 1024, HaloNM: 512, SeamNM: 128, Cols: 2, Rows: 2},
	}
}
