package frame

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/frame/frametest"
	"mosaic/internal/grid"
)

const testMagic uint32 = 0x5453544d // "MTST"

func TestOpenRoundTripAndCorruption(t *testing.T) {
	payload := []byte("payload \x00\xff bytes")
	data := Append(nil, testMagic, payload)
	if len(data) != HeaderSize+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(data), HeaderSize+len(payload))
	}
	got, err := Open(testMagic, data)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Open = %q, %v; want %q", got, err, payload)
	}
	if m, err := Marshal(testMagic, func(e *Enc) error { e.Raw(payload); return nil }); err != nil || !bytes.Equal(m, data) {
		t.Fatalf("Marshal = % x, %v; want % x", m, err, data)
	}

	for name, mut := range map[string]func([]byte) []byte{
		"wrong magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":     func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
		"short header":  func(b []byte) []byte { return b[:HeaderSize-1] },
		"huge length":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], MaxPayload+1); return b },
	} {
		if _, err := Open(testMagic, mut(bytes.Clone(data))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	flipped := bytes.Clone(data)
	flipped[HeaderSize] ^= 0x40
	if _, err := Open(testMagic, flipped); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("payload corruption: %v, want a CRC error", err)
	}
}

func TestReadOneFrame(t *testing.T) {
	payload := []byte("streamed")
	data := Append(Append(nil, testMagic, payload), testMagic, []byte("next"))
	got, n, err := Read(bytes.NewReader(data), testMagic)
	if err != nil || n != HeaderSize+len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, %d, %v", got, n, err)
	}
	if _, _, err := Read(bytes.NewReader(data[:n-1]), testMagic); err == nil {
		t.Fatal("short payload accepted")
	}
	huge := bytes.Clone(data[:HeaderSize])
	binary.LittleEndian.PutUint32(huge[4:], math.MaxUint32)
	if _, _, err := Read(bytes.NewReader(huge), testMagic); err == nil {
		t.Fatal("length beyond MaxPayload accepted")
	}
}

func TestScanValidPrefix(t *testing.T) {
	var log []byte
	for _, p := range []string{"one", "", "three"} {
		log = Append(log, testMagic, []byte(p))
	}
	clean := len(log)
	var got []string
	n, err := Scan(log, testMagic, func(p []byte) error { got = append(got, string(p)); return nil })
	if n != clean || err != nil || strings.Join(got, ",") != "one,,three" {
		t.Fatalf("clean log: prefix %d of %d, err %v, payloads %q", n, clean, err, got)
	}

	torn := append(bytes.Clone(log), Append(nil, testMagic, []byte("torn"))[:HeaderSize+2]...)
	if n, err := Scan(torn, testMagic, func([]byte) error { return nil }); n != clean || err == nil {
		t.Fatalf("torn tail: prefix %d, err %v; want %d and an error", n, err, clean)
	}
	if n, _ := Scan(append(bytes.Clone(log), 1, 2, 3), testMagic, func([]byte) error { return nil }); n != clean {
		t.Fatalf("short garbage tail: prefix %d, want %d", n, clean)
	}
	stop := errors.New("undecodable")
	n, err = Scan(log, testMagic, func(p []byte) error {
		if string(p) == "three" {
			return stop
		}
		return nil
	})
	if want := clean - HeaderSize - len("three"); n != want || !errors.Is(err, stop) {
		t.Fatalf("callback error: prefix %d, err %v; want %d", n, err, want)
	}
}

// TestEncCanonicalBytes pins the scalar encoding every content key and
// durable format is built from.
func TestEncCanonicalBytes(t *testing.T) {
	var b bytes.Buffer
	e := NewEnc(&b)
	e.I64(-2)
	e.F64(1.5)
	e.Bool(true)
	e.Str("ab")
	e.Field(nil)
	e.Field(&grid.Field{W: 1, H: 1, Data: []float64{0.25}})
	want := "feffffffffffffff" + "000000000000f83f" + "0100000000000000" +
		"0200000000000000" + "6162" + "ffffffffffffffff" +
		"0100000000000000" + "0100000000000000" + "000000000000d03f"
	if got := hex.EncodeToString(b.Bytes()); got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}

	// The bulk path must match element-wise F64 at every chunk boundary.
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = float64(i) / 3
	}
	h1, h2 := sha256.New(), sha256.New()
	NewEnc(h1).F64s(vs)
	e2 := NewEnc(h2)
	for _, v := range vs {
		e2.F64(v)
	}
	if !bytes.Equal(h1.Sum(nil), h2.Sum(nil)) {
		t.Fatal("F64s differs from repeated F64")
	}
}

func TestDecRoundTripAndBounds(t *testing.T) {
	var b bytes.Buffer
	e := NewEnc(&b)
	e.I64(7)
	e.Str("name")
	e.Bool(false)
	e.Field(&grid.Field{W: 2, H: 1, Data: []float64{1, -1}})
	e.Field(nil)
	d := NewDec(b.Bytes())
	d.Version(7)
	if s := d.Str(); s != "name" {
		t.Fatalf("Str = %q", s)
	}
	if d.Bool() {
		t.Fatal("Bool = true")
	}
	if f := d.Field(); f == nil || f.W != 2 || f.H != 1 || f.Data[1] != -1 {
		t.Fatalf("Field = %+v", f)
	}
	if f := d.Field(); f != nil {
		t.Fatalf("nil Field decoded as %+v", f)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	word := func(vs ...int64) []byte {
		var b bytes.Buffer
		e := NewEnc(&b)
		for _, v := range vs {
			e.I64(v)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name  string
		input []byte
		read  func(*Dec)
	}{
		{"version skew", word(7), func(d *Dec) { d.Version(8) }},
		{"bool 2", word(2), func(d *Dec) { d.Bool() }},
		{"negative count", word(-1), func(d *Dec) { d.Count(1) }},
		{"count overruns", word(3, 0, 0), func(d *Dec) { d.Count(8) }},
		{"huge raster", word(1<<40, 1<<40), func(d *Dec) { d.Field() }},
		{"string overrun", word(9, 0), func(d *Dec) { d.Str() }},
		{"trailing bytes", word(1, 2), func(d *Dec) { d.I64() }},
	} {
		d := NewDec(tc.input)
		tc.read(d)
		if d.Done() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A latched error sticks: later reads yield zero values.
	d = NewDec(word(1))
	d.Raw(16)
	if v := d.I64(); v != 0 || d.Err() == nil {
		t.Fatalf("read after a latched error = %d, err %v", v, d.Err())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "entry.bin")
	if err := WriteFile(path, []byte("old"), true); err != nil {
		t.Fatal(err)
	}
	// A writer that fails mid-file — a full disk, or the moment before a
	// kill — must leave the previous file whole and no temp file behind.
	err := writeAtomic(path, false, func(f *os.File) error {
		f.Write([]byte("ne"))
		return errors.New("disk full")
	})
	if err == nil {
		t.Fatal("failed write reported success")
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("previous file is %q after a failed write, want %q", got, "old")
	}
	// Renaming onto a directory fails after the data is written.
	if err := os.Mkdir(filepath.Join(dir, "sub", "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "sub", "taken"), []byte("x"), false); err == nil {
		t.Fatal("rename onto a directory reported success")
	}
	if err := WriteFile(path, []byte("new"), false); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("replaced file is %q, want %q", got, "new")
	}
	ents, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	Quarantine(path)
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still in place: %v", err)
	}
	if got := ShardPath("root", "abcdef", ".x"); got != filepath.Join("root", "ab", "abcdef.x") {
		t.Fatalf("ShardPath = %s", got)
	}

	// ShardFiles lists exactly what ShardPath lays out, sorted.
	root := filepath.Join(dir, "store")
	for _, key := range []string{"cd01", "ab02", "ab01"} {
		if err := WriteFile(ShardPath(root, key, ".x"), nil, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, stray := range []string{"ab/ab01.x.corrupt", "ab/ab03.y", "abc/abc1.x"} {
		if err := WriteFile(filepath.Join(root, stray), nil, false); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{ShardPath(root, "ab01", ".x"), ShardPath(root, "ab02", ".x"), ShardPath(root, "cd01", ".x")}
	if got := ShardFiles(root, ".x"); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("ShardFiles = %q, want %q", got, want)
	}
}

func FuzzOpen(f *testing.F) {
	f.Add(Append(nil, testMagic, []byte("payload")))
	f.Add(Append(nil, testMagic, nil))
	f.Add([]byte("MTST"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			p, err := Open(testMagic, data)
			return Append(nil, testMagic, p), err
		})
	})
}

func FuzzRead(f *testing.F) {
	f.Add(Append(nil, testMagic, []byte("payload")))
	f.Add(append(Append(nil, testMagic, []byte("a")), 9, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			p, n, err := Read(bytes.NewReader(data), testMagic)
			if err != nil {
				return nil, err
			}
			if n != HeaderSize+len(p) {
				t.Fatalf("Read consumed %d bytes for a %d byte payload", n, len(p))
			}
			return append(Append(nil, testMagic, p), data[n:]...), nil
		})
	})
}

func FuzzScan(f *testing.F) {
	f.Add(Append(Append(nil, testMagic, []byte("one")), testMagic, []byte("two")))
	f.Add(append(Append(nil, testMagic, []byte("one")), 'M', 'T'))
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(data []byte) ([]byte, error) {
			var out []byte
			n, _ := Scan(data, testMagic, func(p []byte) error {
				out = Append(out, testMagic, p)
				return nil
			})
			// The valid prefix is exactly the frames that were handed out.
			return append(out, data[n:]...), nil
		})
	})
}
