package warmstart

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// libVersion is folded into every family digest and entry frame. Bump it
// whenever the signature definition, distance inputs, or entry encoding
// change, so stale libraries miss instead of seeding from incompatible
// descriptors.
const libVersion = 1

// DefaultObjTol is the plateau tolerance attached to seeded windows when
// Options.ObjTol is zero: any measurable proxy-objective improvement
// resets the plateau, so a seeded run only stops early once the descent
// has literally nothing left to gain — early exit can cut iterations but
// never the best-iterate score.
const DefaultObjTol = 1e-6

// Family partitions the library by everything that determines a
// converged mask's bits apart from the window geometry itself: imaging,
// resist, and optimizer configuration plus window size and pitch. A seed
// is only ever retrieved from its own family — a mask converged under a
// different process would be a nonsense starting point.
type Family [sha256.Size]byte

// String renders the family digest as lowercase hex.
func (f Family) String() string { return hex.EncodeToString(f[:]) }

// FamilyKey digests the library version and the process configuration
// (tile.WriteProcess, the same writer behind cache.RequestKey) — but not
// the geometry, samples, or any warm-start seed already attached.
func FamilyKey(ws *sim.Simulator, windowPx int, pixelNM float64, cfg ilt.Config) Family {
	h := sha256.New()
	e := frame.NewEnc(h)
	e.I64(libVersion)
	tile.WriteProcess(e, windowPx, pixelNM, ws, &cfg)
	var f Family
	h.Sum(f[:0])
	return f
}

// entryKey content-addresses one library entry: family plus the
// signature's canonical bits. The anchor offset is deliberately
// excluded, so translated repeats of one pattern dedup to a single
// stored mask.
func entryKey(fam Family, sig *Signature) string {
	h := sha256.New()
	e := frame.NewEnc(h)
	e.Raw(fam[:])
	e.F64s(sig.Desc[:])
	e.F64(sig.AreaFrac)
	e.I64(int64(sig.Polys))
	e.F64(sig.WFrac)
	e.F64(sig.HFrac)
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a Library.
type Options struct {
	// Dir is the library root. Created if absent; must be writable (the
	// probe at Open fails fast, so a daemon pointed at a read-only path
	// errors at startup instead of silently never harvesting).
	Dir string

	// MaxDist is the retrieval threshold on signature distance; 0 selects
	// DefaultMaxDist, negative is rejected.
	MaxDist float64

	// Harvest enables writing converged masks back into the library.
	// A read-only consumer (e.g. a CI job against a golden library)
	// leaves it false.
	Harvest bool

	// ObjTol is the plateau tolerance attached to a window's optimizer
	// config when — and only when — a seed is attached, letting a
	// converged warm start stop early. 0 selects DefaultObjTol; misses
	// and disabled libraries never touch the config, keeping those runs
	// bit-identical to unseeded ones.
	ObjTol float64
}

// Stats is a point-in-time snapshot of library activity.
type Stats struct {
	Lookups   int64
	Hits      int64
	Misses    int64
	Harvested int64 // entries written by this process
	Fallbacks int64 // seeds rejected by the optimizer's probe
	Corrupt   int64 // entries quarantined
	Entries   int   // live in-memory index size
}

// entry is the in-memory index record of one stored pattern; the mask
// itself stays on disk and is re-read on retrieval.
type entry struct {
	key        string
	fam        Family
	sig        Signature
	offX, offY int
	seq        int64 // harvest order; epoch guard for determinism
}

// Library is a durable, content-addressed store of (signature ->
// converged continuous mask) pairs with an in-memory signature index.
// Safe for concurrent use.
type Library struct {
	dir     string
	maxDist float64
	objTol  float64
	harvest bool

	mu    sync.Mutex
	seq   int64
	byFam map[Family][]*entry
	keys  map[string]bool
	stats Stats
}

var (
	mLookups   = obs.NewCounter("warmstart_lookups_total")
	mHits      = obs.NewCounter("warmstart_hits_total")
	mMisses    = obs.NewCounter("warmstart_misses_total")
	mHarvested = obs.NewCounter("warmstart_harvested_total")
	mFallbacks = obs.NewCounter("warmstart_fallbacks_total")
	mCorrupt   = obs.NewCounter("warmstart_corrupt_total")

	// Iteration histograms make the warm-start cut visible in /metrics:
	// compare the seeded distribution against the cold one.
	iterBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	mSeedIters = obs.NewHistogram("warmstart_seeded_iterations", iterBounds...)
	mColdIters = obs.NewHistogram("warmstart_cold_iterations", iterBounds...)
)

// Open opens (creating if needed) the library at opts.Dir and loads its
// signature index. Invalid options are reported as *ilt.ConfigError.
func Open(opts Options) (*Library, error) {
	if opts.Dir == "" {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: "library directory must be non-empty"}
	}
	if opts.MaxDist < 0 {
		return nil, &ilt.ConfigError{Field: "WarmStart.MaxDist", Reason: fmt.Sprintf("signature distance threshold must be >= 0, got %g", opts.MaxDist)}
	}
	if opts.ObjTol < 0 {
		return nil, &ilt.ConfigError{Field: "WarmStart.ObjTol", Reason: fmt.Sprintf("plateau tolerance must be >= 0, got %g", opts.ObjTol)}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: fmt.Sprintf("creating library dir: %v", err)}
	}
	// Writability probe: fail at startup, not at the first harvest.
	probe, err := os.CreateTemp(opts.Dir, ".probe-*")
	if err != nil {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: fmt.Sprintf("library dir is not writable: %v", err)}
	}
	probe.Close()
	os.Remove(probe.Name())

	l := &Library{
		dir:     opts.Dir,
		maxDist: opts.MaxDist,
		objTol:  opts.ObjTol,
		harvest: opts.Harvest,
		byFam:   make(map[Family][]*entry),
		keys:    make(map[string]bool),
	}
	if l.maxDist == 0 {
		l.maxDist = DefaultMaxDist
	}
	if l.objTol == 0 {
		l.objTol = DefaultObjTol
	}
	l.load()
	return l, nil
}

// load scans the shard directories and rebuilds the in-memory signature
// index. Entries that fail to decode — or whose content digest does not
// match their filename — are quarantined, exactly like the tile cache's
// disk tier. Scan order is deterministic (sorted directory listings).
func (l *Library) load() {
	for _, path := range frame.ShardFiles(l.dir, ".mwe") {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		e, _, _, err := decodeLibEntry(data)
		if err == nil && e.key+".mwe" != filepath.Base(path) {
			err = fmt.Errorf("entry content digest %s does not match filename", e.key)
		}
		if err != nil {
			l.quarantine(path, err)
			continue
		}
		l.mu.Lock()
		if !l.keys[e.key] {
			l.keys[e.key] = true
			l.seq++
			e.seq = l.seq
			l.byFam[e.fam] = append(l.byFam[e.fam], e)
		}
		l.mu.Unlock()
	}
}

// Epoch returns the library's current harvest sequence number. A run
// captures it once up front and retrieves only entries at or below it,
// so patterns harvested while the run is in flight cannot influence it —
// a run against an empty library stays bit-identical to a disabled one
// even though it harvests as it goes.
func (l *Library) Epoch() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats returns a snapshot of library activity.
func (l *Library) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Entries = len(l.keys)
	return st
}

// lookup returns the nearest in-threshold entry of fam with seq <= epoch.
func (l *Library) lookup(fam Family, sig *Signature, epoch int64) (*entry, float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *entry
	bestDist := math.Inf(1)
	for _, e := range l.byFam[fam] {
		if e.seq > epoch {
			continue
		}
		if d := sig.Distance(&e.sig); d < bestDist {
			best, bestDist = e, d
		}
	}
	if best == nil || bestDist > l.maxDist {
		return nil, 0, false
	}
	return best, bestDist, true
}

// drop quarantines an entry whose on-disk frame failed on retrieval and
// removes it from the index so it cannot match again.
func (l *Library) drop(e *entry, cause error) {
	l.quarantine(l.entryPath(e.key), cause)
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.keys, e.key)
	live := l.byFam[e.fam][:0]
	for _, other := range l.byFam[e.fam] {
		if other != e {
			live = append(live, other)
		}
	}
	l.byFam[e.fam] = live
}

func (l *Library) quarantine(path string, cause error) {
	l.mu.Lock()
	l.stats.Corrupt++
	l.mu.Unlock()
	mCorrupt.Inc()
	obs.Logger().Warn("warmstart: quarantining corrupt entry", "path", path, "err", cause)
	frame.Quarantine(path)
}

func (l *Library) entryPath(key string) string {
	return frame.ShardPath(l.dir, key, ".mwe")
}

// Attempt tracks one window's warm-start lifecycle from lookup to
// completion. Finish must be called with the window's result (seeded or
// not) so iteration histograms and the harvest see every window.
type Attempt struct {
	lib      *Library
	fam      Family
	sig      *Signature
	offX     int
	offY     int
	windowPx int
	pixelNM  float64

	// SeedKey is the content key of the library entry the window was
	// seeded from; empty when the lookup missed.
	SeedKey string
	// Dist is the signature distance of the match behind SeedKey.
	Dist float64
}

// Prepare consults the library for one window and returns the (possibly
// seeded) optimizer configuration plus the attempt to finish with the
// window's result. A nil library, empty window, or descriptor-sized
// mismatch returns cfg untouched and a nil attempt; so does a miss —
// only an actual hit modifies the config (seed plus plateau tolerance),
// keeping empty-library runs bit-identical to disabled ones.
//
// epoch is the value of Epoch() captured once per run; see Epoch.
func (l *Library) Prepare(epoch int64, cfg ilt.Config, ws *sim.Simulator, windowPx int, pixelNM float64, layout *geom.Layout) (ilt.Config, *Attempt) {
	if l == nil || ws == nil || layout == nil || len(layout.Polys) == 0 ||
		windowPx < SignatureK || windowPx%SignatureK != 0 || cfg.SeedMask != nil {
		return cfg, nil
	}
	fam := FamilyKey(ws, windowPx, pixelNM, cfg)
	sig, offX, offY := Compute(layout, windowPx, pixelNM)
	att := &Attempt{lib: l, fam: fam, sig: sig, offX: offX, offY: offY, windowPx: windowPx, pixelNM: pixelNM}

	mLookups.Inc()
	l.mu.Lock()
	l.stats.Lookups++
	l.mu.Unlock()

	e, dist, ok := l.lookup(fam, sig, epoch)
	if ok {
		mask, err := l.readMask(e, windowPx)
		if err != nil {
			l.drop(e, err)
			ok = false
		} else {
			mHits.Inc()
			l.mu.Lock()
			l.stats.Hits++
			l.mu.Unlock()
			cfg.SeedMask = Translate(mask, offX-e.offX, offY-e.offY)
			if cfg.ObjTol == 0 {
				cfg.ObjTol = l.objTol
			}
			att.SeedKey = e.key
			att.Dist = dist
		}
	}
	if !ok {
		mMisses.Inc()
		l.mu.Lock()
		l.stats.Misses++
		l.mu.Unlock()
	}
	return cfg, att
}

// Finish completes an attempt: it observes the seeded/cold iteration
// histograms, counts probe fallbacks, and harvests the window's
// converged continuous mask (content-addressed, so repeats dedup).
func (a *Attempt) Finish(res *ilt.Result) {
	if a == nil || res == nil {
		return
	}
	if a.SeedKey != "" && res.Seeded {
		mSeedIters.Observe(float64(res.Iterations))
	} else {
		if a.SeedKey != "" {
			// A retrieved seed probed worse than the rule-based init and
			// was rejected by the optimizer.
			mFallbacks.Inc()
			a.lib.mu.Lock()
			a.lib.stats.Fallbacks++
			a.lib.mu.Unlock()
		}
		mColdIters.Observe(float64(res.Iterations))
	}
	if res.MaskGray != nil && res.MaskGray.W == a.windowPx && res.MaskGray.H == a.windowPx {
		a.lib.harvestEntry(a.fam, a.sig, a.offX, a.offY, a.pixelNM, res.MaskGray)
	}
}

// harvestEntry records one (signature -> mask) pair, deduping by content
// key. The index gains the entry immediately; the disk write is
// best-effort (a failed write costs a later miss, never an error).
func (l *Library) harvestEntry(fam Family, sig *Signature, offX, offY int, pixelNM float64, mask *grid.Field) {
	if !l.harvest {
		return
	}
	key := entryKey(fam, sig)
	l.mu.Lock()
	if l.keys[key] {
		l.mu.Unlock()
		return
	}
	l.keys[key] = true
	l.seq++
	e := &entry{key: key, fam: fam, sig: *sig, offX: offX, offY: offY, seq: l.seq}
	l.byFam[fam] = append(l.byFam[fam], e)
	l.stats.Harvested++
	l.mu.Unlock()
	mHarvested.Inc()
	l.writeEntry(e, pixelNM, mask)
}
