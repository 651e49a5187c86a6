package artifact

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"mosaic/internal/cache"
	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// ManifestSchema versions the manifest JSON layout.
const ManifestSchema = 1

// Manifest is the canonical record of every input that determined a
// run's bits: the target geometry, the imaging and resist models, the
// full optimizer parameter set (the same fields the tile-cache digest
// and the cluster wire codec cover), the tiling decomposition, the
// cache digest generation, and the build that ran it. It deliberately
// excludes job IDs, timestamps, worker counts, and runtimes: two runs
// of the same work must anchor the same manifest digest whether they
// were cold, cached, local, or distributed.
//
// The payload is the manifest's JSON — Go's json.Marshal is
// deterministic for a fixed struct (field order, shortest-round-trip
// floats), so equal manifests produce equal bytes and one digest. The
// optimizer field list mirrors cache.RequestKey and the cluster's
// encodeTileJob; the three must stay in sync when ilt.Config grows a
// bits-affecting field.
type Manifest struct {
	Schema        int    `json:"schema"`
	DigestVersion int    `json:"digest_version"` // cache/numeric-path generation
	Build         string `json:"build"`          // version @ VCS revision of the binary

	Layout ManifestLayout `json:"layout"`
	Optics ManifestOptics `json:"optics"`
	Resist ManifestResist `json:"resist"`
	Opt    ManifestOpt    `json:"optimizer"`
	Tiling ManifestTiling `json:"tiling"`
}

// ManifestLayout pins the target: full-chip geometry is summarized as
// a digest over every coordinate so the manifest stays small while
// still committing to every nanometer.
type ManifestLayout struct {
	Name     string  `json:"name"`
	SizeNM   float64 `json:"size_nm"`
	Polygons int     `json:"polygons"`
	Geometry Digest  `json:"geometry"`
}

// ManifestOptics is the imaging system (physical parameters plus the
// SOCS truncation order).
type ManifestOptics struct {
	WavelengthNM float64 `json:"wavelength_nm"`
	NA           float64 `json:"na"`
	SigmaIn      float64 `json:"sigma_in"`
	SigmaOut     float64 `json:"sigma_out"`
	Kernels      int     `json:"kernels"`
}

// ManifestResist is the calibrated resist model.
type ManifestResist struct {
	Threshold float64 `json:"threshold"`
	ThetaZ    float64 `json:"theta_z"`
}

// ManifestOpt is the optimizer parameter set — the encodeTileJob /
// cache.RequestKey field set, hooks and diagnostics excluded.
type ManifestOpt struct {
	Mode           int     `json:"mode"`
	Alpha          float64 `json:"alpha"`
	Beta           float64 `json:"beta"`
	Gamma          float64 `json:"gamma"`
	SmoothWeight   float64 `json:"smooth_weight"`
	ThetaM         float64 `json:"theta_m"`
	ThetaEPE       float64 `json:"theta_epe"`
	StepSize       float64 `json:"step_size"`
	StepDecay      float64 `json:"step_decay"`
	Momentum       float64 `json:"momentum"`
	MaxIter        int     `json:"max_iter"`
	GradTol        float64 `json:"grad_tol"`
	Jumps          int     `json:"jumps"`
	JumpFactor     float64 `json:"jump_factor"`
	SRAFInit       bool    `json:"sraf_init"`
	BiasNM         float64 `json:"bias_nm"`
	SRAFDistNM     float64 `json:"sraf_dist_nm"`
	SRAFWidthNM    float64 `json:"sraf_width_nm"`
	SRAFMinLenNM   float64 `json:"sraf_min_len_nm"`
	GradKernels    int     `json:"grad_kernels"`
	EPEThresholdNM float64 `json:"epe_threshold_nm"`
	EPESampleNM    float64 `json:"epe_sample_nm"`
	DefocusNM      float64 `json:"defocus_nm"`
	DoseDelta      float64 `json:"dose_delta"`
}

// ManifestTiling is the decomposition the run used: window resolution
// for an untiled run, the full plan geometry for a sharded one.
type ManifestTiling struct {
	Tiled    bool    `json:"tiled"`
	WindowPx int     `json:"window_px"`
	PixelNM  float64 `json:"pixel_nm"`
	CoreNM   float64 `json:"core_nm,omitempty"`
	HaloNM   float64 `json:"halo_nm,omitempty"`
	SeamNM   float64 `json:"seam_nm,omitempty"`
	Cols     int     `json:"cols,omitempty"`
	Rows     int     `json:"rows,omitempty"`
}

// NewManifest assembles the canonical manifest for one run: ws is the
// window simulator the tiles (or the whole untiled clip) ran on, plan
// is nil for an untiled run, and seamNM is the stitch band actually
// used after clamping.
func NewManifest(layout *geom.Layout, ws *sim.Simulator, cfg ilt.Config, plan *tile.Plan, seamNM float64) *Manifest {
	bi := obs.ReadBuild()
	m := &Manifest{
		Schema:        ManifestSchema,
		DigestVersion: cache.DigestVersion,
		Build:         bi.Version + "@" + bi.Revision,
		Layout: ManifestLayout{
			Name:     layout.Name,
			SizeNM:   layout.SizeNM,
			Polygons: len(layout.Polys),
			Geometry: geometryDigest(layout),
		},
		Optics: ManifestOptics{
			WavelengthNM: ws.Cfg.WavelengthNM,
			NA:           ws.Cfg.NA,
			SigmaIn:      ws.Cfg.SigmaIn,
			SigmaOut:     ws.Cfg.SigmaOut,
			Kernels:      ws.Cfg.Kernels,
		},
		Resist: ManifestResist{
			Threshold: ws.Resist.Threshold,
			ThetaZ:    ws.Resist.ThetaZ,
		},
		Opt: ManifestOpt{
			Mode:           int(cfg.Mode),
			Alpha:          cfg.Alpha,
			Beta:           cfg.Beta,
			Gamma:          cfg.Gamma,
			SmoothWeight:   cfg.SmoothWeight,
			ThetaM:         cfg.ThetaM,
			ThetaEPE:       cfg.ThetaEPE,
			StepSize:       cfg.StepSize,
			StepDecay:      cfg.StepDecay,
			Momentum:       cfg.Momentum,
			MaxIter:        cfg.MaxIter,
			GradTol:        cfg.GradTol,
			Jumps:          cfg.Jumps,
			JumpFactor:     cfg.JumpFactor,
			SRAFInit:       cfg.SRAFInit,
			BiasNM:         cfg.SRAFRules.BiasNM,
			SRAFDistNM:     cfg.SRAFRules.SRAFDistNM,
			SRAFWidthNM:    cfg.SRAFRules.SRAFWidthNM,
			SRAFMinLenNM:   cfg.SRAFRules.SRAFMinLenNM,
			GradKernels:    cfg.GradKernels,
			EPEThresholdNM: cfg.EPEThresholdNM,
			EPESampleNM:    cfg.EPESampleNM,
			DefocusNM:      cfg.DefocusNM,
			DoseDelta:      cfg.DoseDelta,
		},
		Tiling: ManifestTiling{
			WindowPx: ws.Cfg.GridSize,
			PixelNM:  ws.Cfg.PixelNM,
		},
	}
	if plan != nil {
		m.Tiling.Tiled = true
		m.Tiling.CoreNM = plan.CoreNM
		m.Tiling.HaloNM = plan.HaloNM
		m.Tiling.SeamNM = seamNM
		m.Tiling.Cols = plan.Cols
		m.Tiling.Rows = plan.Rows
	}
	return m
}

// Encode renders the manifest as its canonical JSON payload.
func (m *Manifest) Encode() ([]byte, error) {
	out, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding manifest: %w", err)
	}
	return out, nil
}

// DecodeManifest parses a stored manifest payload.
func DecodeManifest(payload []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("artifact: decoding manifest: %w", err)
	}
	return &m, nil
}

// geometryDigest hashes the layout geometry — size, ring lengths, and
// every coordinate as an IEEE-754 bit pattern, in order — so the
// manifest commits to the exact target without embedding a full-chip
// coordinate dump.
func geometryDigest(l *geom.Layout) Digest {
	h := sha256.New()
	e := frame.NewEnc(h)
	e.F64(l.SizeNM)
	e.I64(int64(len(l.Polys)))
	for _, p := range l.Polys {
		e.I64(int64(len(p)))
		for _, pt := range p {
			e.F64(pt.X)
			e.F64(pt.Y)
		}
	}
	var d Digest
	h.Sum(d[:0])
	return d
}
