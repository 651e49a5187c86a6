package tile

import (
	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/sim"
)

// WriteProcess writes the process configuration a window's bits depend
// on: window size and pitch, the imaging configuration, the calibrated
// resist model, and every optimizer parameter through DoseDelta. Hooks
// and diagnostics are excluded, exactly as the scheduler forces them off
// for tiled runs. It is the one list of these fields behind the tile
// cache key, the warm-start family key and the cluster work order, so a
// new ilt.Config field is added here once and reaches all three.
func WriteProcess(e *frame.Enc, windowPx int, pixelNM float64, ws *sim.Simulator, c *ilt.Config) {
	e.I64(int64(windowPx))
	e.F64(pixelNM)

	oc := ws.Cfg
	e.F64(oc.WavelengthNM)
	e.F64(oc.NA)
	e.F64(oc.SigmaIn)
	e.F64(oc.SigmaOut)
	e.F64(oc.PixelNM)
	e.I64(int64(oc.GridSize))
	e.I64(int64(oc.Kernels))

	e.F64(ws.Resist.Threshold)
	e.F64(ws.Resist.ThetaZ)

	e.I64(int64(c.Mode))
	e.F64(c.Alpha)
	e.F64(c.Beta)
	e.F64(c.Gamma)
	e.F64(c.SmoothWeight)
	e.F64(c.ThetaM)
	e.F64(c.ThetaEPE)
	e.F64(c.StepSize)
	e.F64(c.StepDecay)
	e.F64(c.Momentum)
	e.I64(int64(c.MaxIter))
	e.F64(c.GradTol)
	e.I64(int64(c.Jumps))
	e.F64(c.JumpFactor)
	e.Bool(c.SRAFInit)
	e.F64(c.SRAFRules.BiasNM)
	e.F64(c.SRAFRules.SRAFDistNM)
	e.F64(c.SRAFRules.SRAFWidthNM)
	e.F64(c.SRAFRules.SRAFMinLenNM)
	e.I64(int64(c.GradKernels))
	e.F64(c.EPEThresholdNM)
	e.F64(c.EPESampleNM)
	e.F64(c.DefocusNM)
	e.F64(c.DoseDelta)
}

// WriteRequest writes everything a request's bits depend on, in order:
// the process configuration, the plateau tolerance, the warm-start seed
// (a flag, then W, H and data), the window's clipped geometry in
// window-local coordinates, and its EPE samples. The layout's Name and
// the tile's plan position are excluded — position must not affect a
// content key.
func WriteRequest(e *frame.Enc, req *Request) {
	c := &req.Cfg
	WriteProcess(e, req.Plan.WindowPx, req.Plan.PixelNM, req.Sim, c)
	e.F64(c.ObjTol)
	e.Bool(c.SeedMask != nil)
	if c.SeedMask != nil {
		e.Field(c.SeedMask)
	}

	l := req.Tile.Layout
	e.F64(l.SizeNM)
	e.I64(int64(len(l.Polys)))
	for _, p := range l.Polys {
		e.I64(int64(len(p)))
		for _, pt := range p {
			e.F64(pt.X)
			e.F64(pt.Y)
		}
	}
	e.I64(int64(len(req.Samples)))
	for _, s := range req.Samples {
		e.F64(s.Pt.X)
		e.F64(s.Pt.Y)
		e.Bool(s.Horizontal)
		e.F64(s.InwardX)
		e.F64(s.InwardY)
	}
}

// ReadRequest decodes what WriteRequest wrote; errors latch in d. The
// simulator it returns carries only the configuration — callers build
// (or look up) the forward model themselves.
func ReadRequest(d *frame.Dec) *Request {
	req := &Request{Plan: &Plan{}, Tile: &Tile{Layout: &geom.Layout{}}, Sim: &sim.Simulator{}}
	req.Plan.WindowPx = int(d.I64())
	req.Plan.PixelNM = d.F64()

	oc := &req.Sim.Cfg
	oc.WavelengthNM = d.F64()
	oc.NA = d.F64()
	oc.SigmaIn = d.F64()
	oc.SigmaOut = d.F64()
	oc.PixelNM = d.F64()
	oc.GridSize = int(d.I64())
	oc.Kernels = int(d.I64())

	req.Sim.Resist.Threshold = d.F64()
	req.Sim.Resist.ThetaZ = d.F64()

	c := &req.Cfg
	c.Mode = ilt.Mode(d.I64())
	c.Alpha = d.F64()
	c.Beta = d.F64()
	c.Gamma = d.F64()
	c.SmoothWeight = d.F64()
	c.ThetaM = d.F64()
	c.ThetaEPE = d.F64()
	c.StepSize = d.F64()
	c.StepDecay = d.F64()
	c.Momentum = d.F64()
	c.MaxIter = int(d.I64())
	c.GradTol = d.F64()
	c.Jumps = int(d.I64())
	c.JumpFactor = d.F64()
	c.SRAFInit = d.Bool()
	c.SRAFRules.BiasNM = d.F64()
	c.SRAFRules.SRAFDistNM = d.F64()
	c.SRAFRules.SRAFWidthNM = d.F64()
	c.SRAFRules.SRAFMinLenNM = d.F64()
	c.GradKernels = int(d.I64())
	c.EPEThresholdNM = d.F64()
	c.EPESampleNM = d.F64()
	c.DefocusNM = d.F64()
	c.DoseDelta = d.F64()
	c.ObjTol = d.F64()
	if d.Bool() {
		if c.SeedMask = d.Field(); c.SeedMask == nil {
			d.Fail("seed flag set without a seed mask")
		}
	}

	l := req.Tile.Layout
	l.SizeNM = d.F64()
	l.Polys = make([]geom.Polygon, d.Count(8))
	for i := range l.Polys {
		p := make(geom.Polygon, d.Count(16))
		for k := range p {
			p[k].X = d.F64()
			p[k].Y = d.F64()
		}
		l.Polys[i] = p
	}
	req.Samples = make([]geom.Sample, d.Count(40))
	for i := range req.Samples {
		s := &req.Samples[i]
		s.Pt.X = d.F64()
		s.Pt.Y = d.F64()
		s.Horizontal = d.Bool()
		s.InwardX = d.F64()
		s.InwardY = d.F64()
	}
	return req
}
