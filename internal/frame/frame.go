// Package frame is the one binary container behind every on-disk and
// wire format in the repo. A frame is
//
//	[4] magic   (uint32 LE; names the format)
//	[4] length  (uint32 LE; payload bytes, at most MaxPayload)
//	[4] crc32   (IEEE, over the payload)
//	[n] payload
//
// and a payload is a sequence of 8-byte little-endian scalars written by
// Enc and read back by Dec: floats as IEEE-754 bit patterns, so equal bits
// — and only equal bits — encode equal, which is what lets a mask cross
// the cache, journal, cluster and artifact paths bit-identically. The
// same Enc streams into a SHA-256 to build content keys.
//
// The package also owns the durable-file rules every store follows:
// atomic writes (WriteFile), the <root>/<2-hex>/<key><ext> shard layout
// (ShardPath), quarantine of defective files (Quarantine), and the
// valid-prefix scan of append-only logs (Scan).
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// HeaderSize is the fixed frame header: magic, length, CRC.
	HeaderSize = 12

	// MaxPayload bounds every frame before any allocation: a corrupt or
	// hostile length field must not OOM the reader. 1 GiB holds an
	// 11585^2 float64 window, far beyond any plan's power-of-two cap.
	MaxPayload = 1 << 30
)

// Append appends one frame holding payload to dst.
func Append(dst []byte, magic uint32, payload []byte) []byte {
	dst = slices.Grow(dst, HeaderSize+len(payload))
	var hdr [HeaderSize]byte
	putHeader(hdr[:], magic, payload)
	return append(append(dst, hdr[:]...), payload...)
}

func putHeader(hdr []byte, magic uint32, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
}

// Marshal frames the payload that fill encodes. The header is reserved
// up front and filled in afterwards, so the payload is never copied.
func Marshal(magic uint32, fill func(*Enc) error) ([]byte, error) {
	var b bytes.Buffer
	b.Write(make([]byte, HeaderSize))
	if err := fill(NewEnc(&b)); err != nil {
		return nil, err
	}
	data := b.Bytes()
	putHeader(data, magic, data[HeaderSize:])
	return data, nil
}

// header validates the magic and length of a frame header and returns
// the payload length.
func header(hdr []byte, magic uint32) (int, error) {
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != magic {
		return 0, fmt.Errorf("frame magic %#x, want %#x", got, magic)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return 0, fmt.Errorf("frame payload %d exceeds the %d byte cap", n, MaxPayload)
	}
	return int(n), nil
}

func checkCRC(hdr, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[8:]) {
		return errors.New("frame CRC mismatch")
	}
	return nil
}

// Open validates a whole-buffer frame — magic, exact length, CRC — and
// returns its payload, aliasing data.
func Open(magic uint32, data []byte) ([]byte, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("frame is %d bytes, shorter than a header", len(data))
	}
	n, err := header(data, magic)
	if err != nil {
		return nil, err
	}
	if n != len(data)-HeaderSize {
		return nil, fmt.Errorf("frame payload length %d does not match %d frame bytes", n, len(data))
	}
	payload := data[HeaderSize:]
	if err := checkCRC(data, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Read reads exactly one frame from r and returns its payload and the
// total bytes consumed. The length is checked against MaxPayload, and
// the payload buffer grows only as bytes arrive.
func Read(r io.Reader, magic uint32) ([]byte, int, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("reading frame header: %w", err)
	}
	n, err := header(hdr[:], magic)
	if err != nil {
		return nil, 0, err
	}
	// Grow with the bytes that actually arrive rather than trusting the
	// length: a 12-byte hostile header must not cost a 1 GiB allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("reading frame payload: %w", err)
	}
	if err := checkCRC(hdr[:], payload); err != nil {
		return nil, 0, err
	}
	return payload, HeaderSize + n, nil
}

// Scan walks an append-only log of magic frames, handing each intact
// payload to fn in order. It stops at the first defect — a torn or
// foreign header, a short payload, a CRC mismatch, or an error from fn —
// and returns the length of the valid prefix plus the reason it stopped
// (nil when the whole log was valid). Callers truncate the log to the
// prefix so later appends extend a clean log.
func Scan(data []byte, magic uint32, fn func(payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < HeaderSize {
			return off, fmt.Errorf("torn frame header at byte %d", off)
		}
		n, err := header(rest, magic)
		if err != nil {
			return off, fmt.Errorf("at byte %d: %w", off, err)
		}
		if n > len(rest)-HeaderSize {
			return off, fmt.Errorf("torn frame payload at byte %d", off)
		}
		payload := rest[HeaderSize : HeaderSize+n]
		if err := checkCRC(rest, payload); err != nil {
			return off, fmt.Errorf("at byte %d: %w", off, err)
		}
		if err := fn(payload); err != nil {
			return off, fmt.Errorf("at byte %d: %w", off, err)
		}
		off += HeaderSize + n
	}
	return off, nil
}
