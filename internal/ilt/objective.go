package ilt

import (
	"fmt"
	"math"
	"strings"

	"mosaic/internal/fft"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// focusModel bundles the process corners that share one defocus with the
// kernel stack the descent loop images them through: either the single
// Eq. 21 combined kernel or the top-GradKernels SOCS kernels with weights
// renormalized to unit open-frame intensity (so the resist threshold keeps
// its meaning under truncation). Dose only rescales intensity at the
// resist step, so the focus is imaged once and printed per corner.
type focusModel struct {
	corners []sim.Corner // in corner-set order
	index   []int        // the corners' positions in the corner set
	k       int          // frequency block half-width
	freqs   []*grid.CField
	weights []float64
}

// buildModels groups the optimizer's corners by focus (sim.GroupByFocus)
// and resolves each focus's gradient kernel stack. The builds are
// independent (the kernel cache is single-flight per defocus), so
// cold-cache construction overlaps across foci.
func (o *Optimizer) buildModels() ([]focusModel, error) {
	corners := o.corners()
	foci := sim.GroupByFocus(corners)
	models := make([]focusModel, len(foci))
	errs := make([]error, len(foci))
	par.For(len(foci), func(fi int) {
		m := focusModel{index: foci[fi].Index}
		for _, ci := range m.index {
			m.corners = append(m.corners, corners[ci])
		}
		errs[fi] = o.resolveKernels(&m, foci[fi].DefocusNM)
		models[fi] = m
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return models, nil
}

// resolveKernels fills m's kernel stack for one defocus.
func (o *Optimizer) resolveKernels(m *focusModel, defocusNM float64) error {
	ks, err := o.Sim.Kernels(defocusNM)
	if err != nil {
		return err
	}
	m.k = ks.K
	if o.Cfg.GradKernels <= 0 {
		m.freqs = []*grid.CField{ks.Combined()}
		m.weights = []float64{1}
		return nil
	}
	n := o.Cfg.GradKernels
	if n > len(ks.Freqs) {
		n = len(ks.Freqs)
	}
	m.freqs = ks.Freqs[:n]
	// Renormalize the truncated stack to unit open-frame intensity.
	dc := 0.0
	for i := 0; i < n; i++ {
		v := ks.Freqs[i].At(ks.K, ks.K)
		dc += ks.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if dc <= 0 {
		return fmt.Errorf("ilt: truncated kernel stack has zero open-frame intensity")
	}
	m.weights = make([]float64, n)
	for i := 0; i < n; i++ {
		m.weights[i] = ks.Weights[i] / dc
	}
	return nil
}

// focusState is the forward state at one focus for the current mask.
type focusState struct {
	model  *focusModel
	fields []*grid.CField // A_k = M conv h_k on the image grid, one per gradient kernel
	i      *grid.Field    // aerial intensity (before dose) on the mask grid, shared by the focus's corners
}

// iterState is everything the objective and gradient share in one
// iteration. Every full-grid buffer it holds comes from the workspace
// pool; release returns them once the iteration is done with the state.
type iterState struct {
	specBand *grid.CField // band-limited FFT of the current mask
	foci     []focusState
	z        []*grid.Field // sigmoid printed pattern per corner (Eq. 4, dose applied), corner-set order
	epeW     *grid.Field   // exact mode: dF_epe/dD per pixel (weight-map form of Eq. 14)

	objective float64
	fTarget   float64
	fPvb      float64
	fSmooth   float64
}

// release returns every pooled buffer held by the state to the workspace
// pool, each exactly once. The state must not be used afterwards.
func (st *iterState) release() {
	if st.specBand != nil {
		grid.PutC(st.specBand)
		st.specBand = nil
	}
	for i := range st.foci {
		fs := &st.foci[i]
		for _, f := range fs.fields {
			grid.PutC(f)
		}
		fs.fields = nil
		if fs.i != nil {
			grid.Put(fs.i)
			fs.i = nil
		}
	}
	for i, z := range st.z {
		if z != nil {
			grid.Put(z)
			st.z[i] = nil
		}
	}
	if st.epeW != nil {
		grid.Put(st.epeW)
		st.epeW = nil
	}
}

// spanLabel names a focus's forward span after its corners
// ("ilt.forward.inner_outer"); unnamed ad-hoc corners read "custom".
func (m *focusModel) spanLabel() string {
	names := make([]string, len(m.corners))
	for i, c := range m.corners {
		names[i] = c.Name
		if names[i] == "" {
			names[i] = "custom"
		}
	}
	return strings.Join(names, "_")
}

// evalState runs the forward model once per focus, prints every corner
// from its focus's shared intensity, and evaluates the objective of the
// configured mode. The coherent fields and their intensity are computed
// on the simulator's ImageGrid; the intensity is interpolated to the mask
// grid once per focus, where printing and the objective run.
func (o *Optimizer) evalState(mask *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample) *iterState {
	// All focus models share the optics configuration and the stack size,
	// hence the same frequency block half-width and image grid. The
	// per-focus forward passes are independent (they only read the shared
	// mask spectrum) and each writes its own pre-sized slots, so the foci
	// run concurrently; the serial objective summation below keeps the
	// floating-point order — and hence the result — deterministic.
	st := &iterState{specBand: o.Sim.SpectrumBand(mask, models[0].k)}
	st.foci = make([]focusState, len(models))
	st.z = make([]*grid.Field, len(o.corners()))
	g := o.Sim.ImageGrid(models[0].k, len(models[0].freqs))
	par.For(len(models), func(mi int) {
		m := &models[mi]
		fsp := obs.Span("ilt.forward." + m.spanLabel())
		fs := focusState{model: m, i: grid.Get(mask.W, mask.H)}
		fs.fields = make([]*grid.CField, len(m.freqs))
		par.For(len(m.freqs), func(ki int) {
			fs.fields[ki] = o.Sim.FieldFromSpectrumBand(st.specBand, m.freqs[ki], m.k, g)
		})
		im := grid.Get(g, g).Zero()
		for ki, f := range fs.fields {
			f.AccumAbs2(im, m.weights[ki])
		}
		o.Sim.MaskImage(fs.i, im, m.k)
		grid.Put(im)
		for j, c := range m.corners {
			st.z[m.index[j]] = o.Sim.Resist.PrintSigmoidInto(grid.Get(mask.W, mask.H), fs.i, c.Dose)
		}
		st.foci[mi] = fs
		fsp.End()
	})

	zNom := st.z[0]
	switch o.Cfg.Mode {
	case ModeFast:
		st.fTarget = o.idObjective(zNom, target)
	case ModeExact:
		st.fTarget, st.epeW = o.epeObjective(zNom, target, samples)
	}
	for _, z := range st.z[1:] {
		st.fPvb += o.pvbTerm(z, target)
	}
	st.objective = o.Cfg.Alpha*st.fTarget + o.Cfg.Beta*st.fPvb
	if o.Cfg.SmoothWeight > 0 {
		st.fSmooth = smoothObjective(mask)
		st.objective += o.Cfg.SmoothWeight * st.fSmooth
	}
	return st
}

// smoothObjective evaluates the mask-smoothness regularizer
// sum (M(x+1,y)-M(x,y))^2 + (M(x,y+1)-M(x,y))^2 (forward differences,
// Neumann boundary). The loops run over row slices — the horizontal pass
// within one row, the vertical pass over adjacent row pairs — so the inner
// loops are bounds-check-friendly slice walks with no per-pixel index
// arithmetic.
func smoothObjective(m *grid.Field) float64 {
	s := 0.0
	for y := 0; y < m.H; y++ {
		row := m.Row(y)
		for x := 0; x+1 < len(row); x++ {
			d := row[x+1] - row[x]
			s += d * d
		}
		if y+1 < m.H {
			next := m.Row(y + 1)
			for x, v := range row {
				d := next[x] - v
				s += d * d
			}
		}
	}
	return s
}

// smoothGradient accumulates w * dF_smooth/dM into grad: the discrete
// Laplacian form 2*(degree*M - sum of neighbors) with Neumann boundaries,
// walking row slices (current, up, down) instead of At/Set per pixel.
func smoothGradient(grad, m *grid.Field, w float64) {
	w2 := 2 * w
	for y := 0; y < m.H; y++ {
		row := m.Row(y)
		g := grad.Row(y)
		var up, down []float64
		if y > 0 {
			up = m.Row(y - 1)
		}
		if y+1 < m.H {
			down = m.Row(y + 1)
		}
		for x, v := range row {
			acc := 0.0
			if x+1 < len(row) {
				acc += v - row[x+1]
			}
			if x > 0 {
				acc += v - row[x-1]
			}
			if down != nil {
				acc += v - down[x]
			}
			if up != nil {
				acc += v - up[x]
			}
			g[x] += w2 * acc
		}
	}
}

// idObjective evaluates F_id = sum (Z_nom - Z_t)^gamma (Eq. 16).
func (o *Optimizer) idObjective(z, target *grid.Field) float64 {
	g := int(o.Cfg.Gamma)
	s := 0.0
	for i, v := range z.Data {
		s += ipow(v-target.Data[i], g)
	}
	return s
}

// pvbTerm evaluates one corner's contribution to F_pvb = sum (Z_k - Z_t)^2
// (Eq. 18).
func (o *Optimizer) pvbTerm(z, target *grid.Field) float64 {
	s := 0.0
	for i, v := range z.Data {
		d := v - target.Data[i]
		s += d * d
	}
	return s
}

// epeObjective evaluates F_epe (Eq. 12) and simultaneously builds the
// per-pixel weight map used by its gradient.
//
// Paper formulation: at each sample s, Dsum_s sums the squared image
// difference D = (Z_nom - Z_t)^2 over a window of +/-th_epe along the edge
// normal (Eq. 9); the violation indicator is relaxed to
// sig(theta_epe * (Dsum_s - w)) where w is th_epe expressed in pixels — a
// printed edge displaced by exactly th_epe contributes ~w to Dsum (Eq. 11).
// F_epe = sum_s sig(...) over the HS and VS sample sets.
//
// Gradient (Eq. 13-15): by the chain rule,
//
//	dF/dD(p) = sum_{s : p in win(s)} theta_epe * g_s * (1 - g_s) =: W(p)
//	dF/dM    = sum_p W(p) * dD(p)/dM
//
// so the closed form of Eq. 14 reduces to the standard quadratic
// image-difference gradient weighted per pixel by W, which evalState's
// caller applies in gradient().
func (o *Optimizer) epeObjective(z, target *grid.Field, samples []geom.Sample) (float64, *grid.Field) {
	px := o.Sim.Cfg.PixelNM
	w := int(math.Round(o.Cfg.EPEThresholdNM / px))
	if w < 1 {
		w = 1
	}
	n := z.W
	weights := grid.Get(z.W, z.H).Zero() // released via iterState.release
	f := 0.0
	for _, s := range samples {
		sx := clampInt(int(s.Pt.X/px), 0, n-1)
		sy := clampInt(int(s.Pt.Y/px), 0, n-1)
		dsum := 0.0
		if s.Horizontal {
			// Horizontal edge: the printed edge moves vertically; scan rows.
			for dy := -w; dy <= w; dy++ {
				y := sy + dy
				if y < 0 || y >= n {
					continue
				}
				d := z.At(sx, y) - target.At(sx, y)
				dsum += d * d
			}
		} else {
			for dx := -w; dx <= w; dx++ {
				x := sx + dx
				if x < 0 || x >= n {
					continue
				}
				d := z.At(x, sy) - target.At(x, sy)
				dsum += d * d
			}
		}
		g := resist.Sig(dsum, float64(w), o.Cfg.ThetaEPE)
		f += g
		dw := o.Cfg.ThetaEPE * g * (1 - g)
		if s.Horizontal {
			for dy := -w; dy <= w; dy++ {
				y := sy + dy
				if y >= 0 && y < n {
					weights.Set(sx, y, weights.At(sx, y)+dw)
				}
			}
		} else {
			for dx := -w; dx <= w; dx++ {
				x := sx + dx
				if x >= 0 && x < n {
					weights.Set(x, sy, weights.At(x, sy)+dw)
				}
			}
		}
	}
	return f, weights
}

// proxyMetrics estimates the true Eq. 7 quantities from the iteration's
// combined-kernel intensities: EPE violations measured on the nominal
// aerial image and the PV-band area from hard prints at every corner.
// These track the full-SOCS contest metrics closely at a tiny fraction of
// their cost, and drive best-iterate selection (Alg. 1 line 9).
func (o *Optimizer) proxyMetrics(st *iterState, samples []geom.Sample) (epe int, pvbNM2 float64) {
	px := o.Sim.Cfg.PixelNM
	mp := o.metricParams()
	res := metrics.MeasureEPE(st.foci[0].i, 1, o.Sim.Resist.Threshold, px, samples, mp)
	epe = metrics.CountViolations(res)
	printed := make([]*grid.Field, len(st.z))
	for _, fs := range st.foci {
		for j, c := range fs.model.corners {
			printed[fs.model.index[j]] = o.Sim.Resist.PrintInto(grid.Get(fs.i.W, fs.i.H), fs.i, c.Dose)
		}
	}
	_, pvbNM2 = metrics.PVBand(printed, px)
	for _, p := range printed {
		grid.Put(p)
	}
	return epe, pvbNM2
}

// gradient computes dF/dM for the current state (before the Eq. 8 chain
// through the mask relaxation, which the caller applies).
//
// Every objective term has the form sum_p phi(Z_c(p)); backpropagation
// through the resist sigmoid (Eq. 4) and the coherent convolution gives
//
//	dF/dM = sum_c 2 * Re{ conj(H_c) corr [ W_c .* A_c ] }
//	W_c   = dF/dZ_c * theta_Z * Z_c(1-Z_c) * dose_c
//
// which is exactly the closed forms of Eq. 14/15 (exact mode, with the EPE
// weight map folded into dF/dZ) and Eq. 17 (fast mode). Corners at one
// focus share H and A, and the adjoint is linear in W, so each focus runs
// one adjoint pass on W_f = sum of its corners' W_c. The correlation is
// evaluated in the frequency domain using the same band-limited kernels.
func (o *Optimizer) gradient(st *iterState, mask *grid.Field, target *grid.Field) *grid.Field {
	// The returned gradient comes from the workspace pool; runRaster
	// releases it at the end of the iteration.
	grad := grid.Get(mask.W, mask.H).Zero()
	for fi := range st.foci {
		fs := &st.foci[fi]
		sp := obs.Span("ilt.adjoint." + fs.model.spanLabel())
		if w := o.focusWeight(st, fs.model, target); w != nil {
			adjoint(grad, fs, w)
			grid.Put(w)
		}
		sp.End()
	}
	if o.Cfg.SmoothWeight > 0 {
		smoothGradient(grad, mask, o.Cfg.SmoothWeight)
	}
	return grad
}

// focusWeight sums W_c over the focus's corners in corner-set order and
// returns the pooled W_f, or nil when every corner's term is switched off
// (Alpha == 0 drops the nominal target term, Beta == 0 the PV-band terms).
func (o *Optimizer) focusWeight(st *iterState, m *focusModel, target *grid.Field) *grid.Field {
	cfg := o.Cfg
	thetaZ := o.Sim.Resist.ThetaZ
	var w *grid.Field
	for j, c := range m.corners {
		ci := m.index[j]
		if (ci == 0 && cfg.Alpha == 0) || (ci > 0 && cfg.Beta == 0) {
			continue
		}
		z := st.z[ci]
		if w == nil {
			w = grid.Get(z.W, z.H).Zero()
		}
		// W_c = dF/dZ_c * theta_Z * Z(1-Z) * dose, accumulated into W_f.
		dose := c.Dose
		switch {
		case ci > 0:
			for i, v := range z.Data {
				w.Data[i] += cfg.Beta * 2 * (v - target.Data[i]) * (thetaZ * v * (1 - v) * dose)
			}
		case cfg.Mode == ModeFast:
			g := int(cfg.Gamma)
			for i, v := range z.Data {
				w.Data[i] += cfg.Alpha * float64(g) * ipow(v-target.Data[i], g-1) * (thetaZ * v * (1 - v) * dose)
			}
		case cfg.Mode == ModeExact:
			for i, v := range z.Data {
				w.Data[i] += cfg.Alpha * st.epeW.Data[i] * 2 * (v - target.Data[i]) * (thetaZ * v * (1 - v) * dose)
			}
		}
	}
	return w
}

// adjoint accumulates one focus's gradient contribution into grad. Each
// kernel contributes
//
//	2*w_ki * Re{ IFFT( conj(Kf_ki) . FFT(W_f .* A_ki) ) }
//
// evaluated on the image grid (m x m) the fields live on. Only the band-k
// block of FFT(W_f .* A_ki) survives the kernel, and with A_ki of band k
// only the band-2k part of W_f reaches it, so W_f is low-passed to band 2k
// and decimated to m once per focus. The product then has band 3k, and
// m > 4k keeps its aliases (shifted by m) clear of band k. The inverse
// transform is linear, so the per-kernel band blocks accumulate in the
// frequency domain, scaled once from the m- to the n-grid normalization,
// and ONE pruned inverse per focus on the mask grid replaces one per
// kernel. Each worker chunk keeps its forward scratch and partial band
// block resident across its kernels (no pool round-trips per kernel), and
// the tiny partials merge serially in chunk order, so the reduction is
// bit-deterministic regardless of scheduling. When m == n the decimation
// is skipped.
func adjoint(grad *grid.Field, fs *focusState, w *grid.Field) {
	m := fs.model
	bw := 2*m.k + 1
	n := grad.W
	g := fs.fields[0].W
	wg := w
	if g != n {
		wg = grid.Get(g, g)
		fft.Resample(w, 2*m.k, wg)
		defer grid.Put(wg)
	}
	toMask := fft.GridScale(g, n)
	parts := make([]*grid.CField, len(m.freqs)) // indexed by chunk lo
	par.ForChunks(len(m.freqs), func(lo, hi int) {
		term := grid.GetC(g, g)
		blk := grid.GetC(bw, bw)
		part := grid.GetC(bw, bw).Zero()
		for ki := lo; ki < hi; ki++ {
			for i, av := range fs.fields[ki].Data {
				term.Data[i] = av * complex(wg.Data[i], 0)
			}
			fft.ForwardBandLimited(term, m.k, blk) // term becomes scratch
			scale := complex(2*m.weights[ki]*toMask, 0)
			for i, kv := range m.freqs[ki].Data {
				part.Data[i] += blk.Data[i] * complex(real(kv), -imag(kv)) * scale
			}
		}
		grid.PutC(blk)
		grid.PutC(term)
		parts[lo] = part
	})
	focusBlk := grid.GetC(bw, bw).Zero()
	for _, part := range parts {
		if part == nil {
			continue
		}
		focusBlk.AddC(part)
		grid.PutC(part)
	}
	field := grid.GetC(n, n)
	fft.InverseBandLimited(focusBlk, n, n, field)
	grid.PutC(focusBlk)
	for i, v := range field.Data {
		grad.Data[i] += real(v)
	}
	grid.PutC(field)
}

// ipow computes x^k for small non-negative integer k.
func ipow(x float64, k int) float64 {
	r := 1.0
	for ; k > 0; k-- {
		r *= x
	}
	return r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
