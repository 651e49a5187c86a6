package cluster

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Wire format. Every message is one frame (see package frame); the
// magic distinguishes job from result frames. A tile-job payload is a
// self-contained work order: the tile index and window layout name, then
// tile.WriteRequest's encoding — window grid, the full imaging and
// optimizer configuration, the calibrated resist model, any warm-start
// seed, the window's clipped geometry, and its EPE samples. A
// tile-result payload is the tile index, RuntimeSec and Seeded, the ilt
// result payload, then the worker's trace spans.
const (
	magicTileJob    uint32 = 0x424a544d // "MTJB"
	magicTileResult uint32 = 0x5352544d // "MTRS"
)

// encodeTileJob serializes a scheduler request into a job payload. Hooks
// (OnIter, OnSnapshot, Resume) do not cross the wire — the scheduler has
// already forced them off for tiled runs. A warm-start seed does: a
// remote worker must start its descent exactly where a local run would.
func encodeTileJob(req *tile.Request) []byte {
	var b bytes.Buffer
	e := frame.NewEnc(&b)
	e.I64(int64(req.Tile.Index))
	e.Str(req.Tile.Layout.Name)
	tile.WriteRequest(e, req)
	return b.Bytes()
}

// decodeTileJob rebuilds a work order from a job payload. Its simulator
// carries only the imaging and resist configuration; the worker looks up
// the forward model for it.
func decodeTileJob(payload []byte) (*tile.Request, error) {
	d := frame.NewDec(payload)
	idx := int(d.I64())
	name := d.Str()
	req := tile.ReadRequest(d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: tile job: %w", err)
	}
	if w := req.Plan.WindowPx; w <= 0 || w > 1<<15 {
		return nil, fmt.Errorf("cluster: implausible window size %d px", w)
	}
	req.Tile.Index, req.Tile.Layout.Name = idx, name
	return req, nil
}

// Span attribute value kinds on the wire.
const (
	attrKindString int64 = 0
	attrKindInt    int64 = 1
	attrKindFloat  int64 = 2
)

// encodeSpans appends a span section: the worker's buffered trace events,
// shipped back piggybacked on the result frame so the coordinator can
// assemble one cross-process trace.
func encodeSpans(e *frame.Enc, spans []obs.SpanEvent) {
	e.I64(int64(len(spans)))
	for _, ev := range spans {
		e.Str(ev.Name)
		e.Str(ev.TraceID)
		e.Str(ev.SpanID)
		e.Str(ev.ParentID)
		e.I64(ev.Start.UnixMicro())
		e.I64(ev.Dur.Microseconds())
		e.Bool(ev.Instant)
		e.I64(int64(len(ev.Attrs)))
		for _, a := range ev.Attrs {
			e.Str(a.Key)
			switch v := a.Value.(type) {
			case string:
				e.I64(attrKindString)
				e.Str(v)
			case int64:
				e.I64(attrKindInt)
				e.I64(v)
			case float64:
				e.I64(attrKindFloat)
				e.F64(v)
			default:
				// Unknown kinds degrade to their string form rather than
				// corrupting the frame.
				e.I64(attrKindString)
				e.Str(fmt.Sprint(v))
			}
		}
	}
}

// decodeSpans reads the span section written by encodeSpans.
func decodeSpans(d *frame.Dec) []obs.SpanEvent {
	n := d.Count(8 * 7) // name/trace/span/parent lengths + start + dur + instant
	if n == 0 {
		return nil
	}
	spans := make([]obs.SpanEvent, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ev := obs.SpanEvent{
			Name:     d.Str(),
			TraceID:  d.Str(),
			SpanID:   d.Str(),
			ParentID: d.Str(),
		}
		ev.Start = time.UnixMicro(d.I64())
		us := d.I64()
		if us > math.MaxInt64/1000 || us < math.MinInt64/1000 {
			d.Fail("span duration %d µs overflows", us)
		}
		ev.Dur = time.Duration(us) * time.Microsecond
		ev.Instant = d.Bool()
		nAttrs := d.Count(8 * 3) // key length + kind + value
		for k := 0; k < nAttrs && d.Err() == nil; k++ {
			a := obs.Attr{Key: d.Str()}
			switch kind := d.I64(); kind {
			case attrKindString:
				a.Value = d.Str()
			case attrKindInt:
				a.Value = d.I64()
			case attrKindFloat:
				a.Value = d.F64()
			default:
				d.Fail("unknown span attribute kind %d", kind)
			}
			ev.Attrs = append(ev.Attrs, a)
		}
		spans = append(spans, ev)
	}
	return spans
}

// encodeTileResult serializes one tile's optimization outcome plus the
// worker's buffered trace spans. History is per-tile diagnostics and
// stays on the worker.
func encodeTileResult(index int, res *ilt.Result, spans []obs.SpanEvent) ([]byte, error) {
	var b bytes.Buffer
	e := frame.NewEnc(&b)
	if res == nil {
		return nil, fmt.Errorf("cluster: tile %d has no result", index)
	}
	e.I64(int64(index))
	e.F64(res.RuntimeSec)
	e.Bool(res.Seeded)
	if err := ilt.WriteResult(e, res); err != nil {
		return nil, fmt.Errorf("cluster: tile %d: %w", index, err)
	}
	encodeSpans(e, spans)
	return b.Bytes(), nil
}

// decodeTileResult rebuilds a tile result and its shipped spans. The
// binary mask is re-derived by thresholding (ilt.ReadResult), so a
// remote result is indistinguishable from a journaled local one.
func decodeTileResult(payload []byte) (int, *ilt.Result, []obs.SpanEvent, error) {
	d := frame.NewDec(payload)
	idx := int(d.I64())
	runtime, seeded := d.F64(), d.Bool()
	res := ilt.ReadResult(d)
	spans := decodeSpans(d)
	if err := d.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: tile result: %w", err)
	}
	res.RuntimeSec, res.Seeded = runtime, seeded
	return idx, res, spans, nil
}
