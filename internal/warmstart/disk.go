package warmstart

import (
	"fmt"
	"os"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

// Library layout on disk: dir/<2-hex-digit shard>/<content key>.mwe, one
// entry per file, each a single MWLE frame (see package frame) whose
// payload is: version, family (32 raw bytes), windowPx, pixelNM, offX,
// offY, the signature (polys, areaFrac, wFrac, hFrac, K, descriptor),
// then the continuous mask as IEEE-754 bit patterns.
//
// Writes are atomic (frame.WriteFile); anything that fails to decode is
// quarantined as .corrupt and the library recomputes — a damaged entry
// costs a cold start, never a failed run.
const libMagic uint32 = 0x454c574d // "MWLE"

// encodeLibEntry frames one library entry.
func encodeLibEntry(e *entry, pixelNM float64, mask *grid.Field) []byte {
	data, _ := frame.Marshal(libMagic, func(enc *frame.Enc) error { // fill cannot fail
		enc.I64(libVersion)
		enc.Raw(e.fam[:])
		enc.I64(int64(mask.W))
		enc.F64(pixelNM)
		enc.I64(int64(e.offX))
		enc.I64(int64(e.offY))
		enc.I64(int64(e.sig.Polys))
		enc.F64(e.sig.AreaFrac)
		enc.F64(e.sig.WFrac)
		enc.F64(e.sig.HFrac)
		enc.I64(SignatureK)
		enc.F64s(e.sig.Desc[:])
		enc.F64s(mask.Data)
		return nil
	})
	return data
}

// writeEntry persists one library entry. Best-effort: failures are
// logged and the entry simply stays memory-only for this process.
func (l *Library) writeEntry(e *entry, pixelNM float64, mask *grid.Field) {
	if err := frame.WriteFile(l.entryPath(e.key), encodeLibEntry(e, pixelNM, mask), false); err != nil {
		obs.Logger().Warn("warmstart: writing entry", "key", e.key, "err", err)
	}
}

// readMask loads the stored mask behind an index entry, re-validating
// the frame and that the mask fits the requesting window.
func (l *Library) readMask(e *entry, windowPx int) (*grid.Field, error) {
	data, err := os.ReadFile(l.entryPath(e.key))
	if err != nil {
		return nil, err
	}
	got, _, mask, err := decodeLibEntry(data)
	if err != nil {
		return nil, err
	}
	if got.key != e.key {
		return nil, fmt.Errorf("entry content digest %s does not match index key %s", got.key, e.key)
	}
	if mask.W != windowPx || mask.H != windowPx {
		return nil, fmt.Errorf("entry mask is %dx%d, window wants %dx%d", mask.W, mask.H, windowPx, windowPx)
	}
	return mask, nil
}

// decodeLibEntry validates one entry file and rebuilds its index record,
// pixel pitch and stored mask.
func decodeLibEntry(data []byte) (*entry, float64, *grid.Field, error) {
	payload, err := frame.Open(libMagic, data)
	if err != nil {
		return nil, 0, nil, err
	}
	d := frame.NewDec(payload)
	d.Version(libVersion)
	e := &entry{}
	copy(e.fam[:], d.Raw(len(e.fam)))
	windowPx := d.I64()
	pixelNM := d.F64()
	e.offX = int(d.I64())
	e.offY = int(d.I64())
	e.sig.Polys = int(d.I64())
	e.sig.AreaFrac = d.F64()
	e.sig.WFrac = d.F64()
	e.sig.HFrac = d.F64()
	if k := d.I64(); d.Err() == nil && k != SignatureK {
		d.Fail("entry descriptor is %dx%d, this build wants %dx%d", k, k, SignatureK, SignatureK)
	}
	d.F64s(e.sig.Desc[:])
	mask := d.Grid(windowPx, windowPx)
	if err := d.Done(); err != nil {
		return nil, 0, nil, err
	}
	e.key = entryKey(e.fam, &e.sig)
	return e, pixelNM, mask, nil
}
