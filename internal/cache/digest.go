// Package cache is a content-addressed store for optimized tile results:
// the key is a canonical digest of every input that determines a tile's
// bits, so any two windows with the same clipped geometry (in
// window-local coordinates) under the same imaging, resist, and
// optimizer configuration share one entry — including the same standard
// cell repeated at different layout positions. A warm cache turns an
// O(tiles) layout into O(unique tiles).
//
// The store has two tiers: an in-process LRU with a byte budget, and an
// optional durable on-disk tier (sharded by digest prefix, atomic-rename
// writes, corrupt entries quarantined and recomputed — a damaged cache
// can cost time, never correctness). Runner wraps any tile.Runner with
// the cache, leaving the scheduler, retries, journaling, and stitching
// untouched.
package cache

import (
	"crypto/sha256"
	"encoding/hex"

	"mosaic/internal/frame"
	"mosaic/internal/tile"
)

// DigestVersion is folded into every key. Bump it whenever the numeric
// path changes the bits a tile produces for the same request — FFT or
// convolution changes, optimizer update-rule changes, resist model
// changes, codec changes — so stale entries miss instead of serving the
// old bits. The rule: if a change would fail a bit-identity test against
// the previous build, it needs a version bump.
const DigestVersion = 4

// Key is the content address of one tile result: a SHA-256 over the
// canonical encoding of the request (see RequestKey).
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// RequestKey computes the content address of a tile request: a SHA-256
// over the digest version (numeric-path generation) followed by
// tile.WriteRequest's canonical encoding — window grid and pitch, the
// imaging configuration and calibrated resist model, every optimizer
// parameter that crosses the cluster wire, the plateau tolerance, any
// warm-start seed (it determines the descent trajectory, so seeded and
// unseeded runs of one window occupy distinct entries), and the window's
// clipped geometry and EPE samples in window-local coordinates, in
// order. Floats enter as IEEE-754 bit patterns, so equal bits — and only
// equal bits — hash equal.
//
// Deliberately excluded: the window layout's Name (it embeds the tile's
// position in the full layout, and position must not affect the key —
// translation-shifted copies of a cell share one entry), the tile's
// plan coordinates, and anything about where or when the request runs.
// Polygon and sample order are hashed as given rather than sorted: a
// reordering changes the key and costs a recompute, never a wrong hit.
func RequestKey(req *tile.Request) Key {
	h := sha256.New()
	e := frame.NewEnc(h)
	e.I64(DigestVersion)
	tile.WriteRequest(e, req)
	var k Key
	h.Sum(k[:0])
	return k
}
