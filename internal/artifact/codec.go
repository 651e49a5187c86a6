package artifact

import (
	"bytes"
	"fmt"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
)

// Blob files, anchor-log records, and the raw-mask wire format are each
// one frame (see package frame).
const (
	blobMagic   uint32 = 0x4241544d // "MTAB": one stored artifact blob
	anchorMagic uint32 = 0x4e41544d // "MTAN": one anchor-log record
	fieldMagic  uint32 = 0x4647544d // "MTGF": one raw field raster
)

// EncodeResult serializes a tile result as its canonical artifact
// payload — the ilt result payload (ilt.WriteResult), which is
// runtime-free, so a cold run, a cached warm run, and a remote run of
// the same request produce byte-identical blobs, and therefore the same
// leaf digest and Merkle root.
func EncodeResult(res *ilt.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := ilt.WriteResult(frame.NewEnc(&b), res); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return b.Bytes(), nil
}

// DecodeResult rebuilds a tile result from an artifact payload;
// RuntimeSec is zero because the artifact deliberately does not record
// it.
func DecodeResult(payload []byte) (*ilt.Result, error) {
	d := frame.NewDec(payload)
	res := ilt.ReadResult(d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("artifact: result payload: %w", err)
	}
	return res, nil
}

// fieldVersion versions the EncodeFieldFrame payload layout.
const fieldVersion = 1

// EncodeFieldFrame wraps a raster as a self-describing MTGF frame —
// the raw-mask wire format of GET /v1/jobs/{id}/mask. Payload:
// version, W, H, then W*H float64 bit patterns in row-major order.
func EncodeFieldFrame(f *grid.Field) []byte {
	data, _ := frame.Marshal(fieldMagic, func(e *frame.Enc) error { // fill cannot fail
		e.I64(fieldVersion)
		e.Field(f)
		return nil
	})
	return data
}

// DecodeFieldFrame parses an MTGF frame back into a raster.
func DecodeFieldFrame(data []byte) (*grid.Field, error) {
	payload, err := frame.Open(fieldMagic, data)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	d := frame.NewDec(payload)
	d.Version(fieldVersion)
	f := d.Field()
	if f == nil {
		d.Fail("field frame holds no raster")
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("artifact: field payload: %w", err)
	}
	return f, nil
}
