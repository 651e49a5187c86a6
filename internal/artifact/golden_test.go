package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"mosaic/internal/grid"
)

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestFormatsGolden pins the durable and public artifact bytes across
// builds: old stores must reopen and Verify, and MTGF is a public wire
// format, so a change to any of these hashes is a format break, never a
// quiet re-pin.
func TestFormatsGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// MTAB: the blob file of a fixed result, exactly as stored on disk.
	payload, err := EncodeResult(testResult(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "blobs", b1.String()[:2], b1.String()+".blob"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256Hex(blob), "3b630989c7b16b0652c337246c1ee94939ec0b179dcf4dde6cd5071775afa691"; got != want {
		t.Errorf("MTAB blob file sha256 = %s, want %s", got, want)
	}

	// MTGF: the public raw-mask frame.
	f := grid.New(6, 4)
	for i := range f.Data {
		f.Data[i] = float64(i) * 0.25
	}
	if got, want := sha256Hex(EncodeFieldFrame(f)), "26bee53b013c0d5521c9c60607f07a5467c2a6500206d6826aed8f22b80fe5d9"; got != want {
		t.Errorf("MTGF frame sha256 = %s, want %s", got, want)
	}

	// Merkle root of a two-leaf commit over fixed blobs and manifest.
	payload2, err := EncodeResult(testResult(8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.PutBlob(payload2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Commit("golden-job", []byte(`{"golden":true}`), []Leaf{
		{Index: 1, Blob: b2, Tier: "miss"},
		{Index: 0, Blob: b1, Key: "abc", Worker: "http://w1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Root.String(), "204cf6e3fb96accc1ff935a6ad51eab3fd15e871ec26eb64fc597934da121ca7"; got != want {
		t.Errorf("two-leaf Merkle root = %s, want %s", got, want)
	}

	// MTAN: the one anchor-log record, with its wall-clock timestamp
	// normalised (the only field that varies between runs).
	log, err := os.ReadFile(filepath.Join(dir, "anchors.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) < 12 || string(log[:4]) != "MTAN" ||
		int(binary.LittleEndian.Uint32(log[4:])) != len(log)-12 ||
		binary.LittleEndian.Uint32(log[8:]) != crc32.ChecksumIEEE(log[12:]) {
		t.Fatalf("anchor log is not one MTAN frame: % x", log[:min(len(log), 12)])
	}
	stamp := regexp.MustCompile(`"created_at":"[^"]*"`)
	if n := len(stamp.FindAll(log[12:], -1)); n != 1 {
		t.Fatalf("anchor record holds %d created_at fields, want 1", n)
	}
	rec0 := stamp.ReplaceAll(bytes.Clone(log[12:]), []byte(`"created_at":"2000-01-01T00:00:00Z"`))
	if got, want := sha256Hex(rec0), "a62cb72771b6305817667e75b26f8467dfb7730156e02cd72496306aff96d7ac"; got != want {
		t.Errorf("MTAN record payload sha256 = %s, want %s\n%s", got, want, rec0)
	}
}
