package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mosaic/internal/grid"
)

// Enc writes the canonical encoding: every scalar is 8 bytes little-
// endian, floats are IEEE-754 bit patterns, bools are 0 or 1, strings
// are length-prefixed. The writer must not fail — Enc streams into a
// frame buffer or a hash, never into a file.
type Enc struct {
	w     io.Writer
	chunk [512]byte // bulk-float staging, so F64s costs one Write per 64 values
}

// NewEnc returns an encoder writing to w.
func NewEnc(w io.Writer) *Enc { return &Enc{w: w} }

// I64 writes one signed scalar.
func (e *Enc) I64(v int64) {
	binary.LittleEndian.PutUint64(e.chunk[:8], uint64(v))
	e.w.Write(e.chunk[:8])
}

// F64 writes one float's bit pattern.
func (e *Enc) F64(v float64) { e.I64(int64(math.Float64bits(v))) }

// Bool writes 1 or 0.
func (e *Enc) Bool(v bool) {
	if v {
		e.I64(1)
	} else {
		e.I64(0)
	}
}

// Str writes a length-prefixed string.
func (e *Enc) Str(s string) {
	e.I64(int64(len(s)))
	io.WriteString(e.w, s)
}

// Raw writes bytes verbatim, with no length prefix.
func (e *Enc) Raw(b []byte) { e.w.Write(b) }

// F64s writes the floats' bit patterns, with no length prefix. A buffer
// that can grow is grown once for the whole run.
func (e *Enc) F64s(vs []float64) {
	if g, ok := e.w.(interface{ Grow(int) }); ok {
		g.Grow(8 * len(vs))
	}
	for len(vs) > 0 {
		n := min(len(vs), len(e.chunk)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(e.chunk[8*i:], math.Float64bits(v))
		}
		e.w.Write(e.chunk[:8*n])
		vs = vs[n:]
	}
}

// Field writes a raster as W, H, then its row-major data; a nil field is
// the single scalar -1.
func (e *Enc) Field(f *grid.Field) {
	if f == nil {
		e.I64(-1)
		return
	}
	e.I64(int64(f.W))
	e.I64(int64(f.H))
	e.F64s(f.Data)
}

// Dec reads a payload written by Enc. The first error latches: every
// later read returns zero values, so a decoder reads straight through
// and checks Done once. Every count is bounded by the bytes left in the
// payload before anything is allocated, so a hostile length can cost at
// most a payload-sized allocation.
type Dec struct {
	data []byte
	off  int
	err  error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{data: payload} }

// Fail latches a decode error unless one is already latched.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Err returns the latched error.
func (d *Dec) Err() error { return d.err }

// Done returns the latched error, or an error if bytes remain unread.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.data) {
		d.err = fmt.Errorf("%d trailing bytes after the payload", len(d.data)-d.off)
	}
	return d.err
}

func (d *Dec) left() int { return len(d.data) - d.off }

// Raw returns the next n bytes, aliasing the payload.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.left() {
		d.Fail("truncated payload at byte %d", d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// I64 reads one signed scalar.
func (d *Dec) I64() int64 {
	b := d.Raw(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// F64 reads one float's bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(uint64(d.I64())) }

// Bool reads a scalar that must be 0 or 1, so every accepted payload
// re-encodes to itself.
func (d *Dec) Bool() bool {
	v := d.I64()
	if v != 0 && v != 1 {
		d.Fail("bool scalar %d at byte %d", v, d.off-8)
	}
	return v == 1
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Raw(d.Count(1))) }

// Version reads a format version and fails unless it equals want.
func (d *Dec) Version(want int64) {
	if v := d.I64(); d.err == nil && v != want {
		d.Fail("format version %d, want %d", v, want)
	}
}

// Count reads a sequence length whose elements each occupy at least per
// payload bytes, failing when the rest of the payload cannot hold it.
func (d *Dec) Count(per int) int {
	n := d.I64()
	if d.err == nil && (n < 0 || n > int64(d.left()/per)) {
		d.Fail("sequence length %d exceeds the payload", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// F64s fills dst with float bit patterns.
func (d *Dec) F64s(dst []float64) {
	b := d.Raw(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Grid reads a w x h raster's data, checking that the payload holds it
// before allocating.
func (d *Dec) Grid(w, h int64) *grid.Field {
	if d.err == nil && (w <= 0 || h <= 0 || w > int64(d.left()/8)/h) {
		d.Fail("a %dx%d raster does not fit the %d payload bytes left", w, h, d.left())
	}
	if d.err != nil {
		return nil
	}
	f := grid.New(int(w), int(h))
	d.F64s(f.Data)
	return f
}

// Field reads a raster written by Enc.Field; nil when it was nil.
func (d *Dec) Field() *grid.Field {
	w := d.I64()
	if d.err != nil || w == -1 {
		return nil
	}
	return d.Grid(w, d.I64())
}
