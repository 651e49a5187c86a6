package warmstart

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/sraf"
)

// goldenFamily returns a fixed simulator and optimizer configuration with
// every keyed field spelled out, so the pins below move only when the
// encoding does — never when a package default changes.
func goldenFamily() (*sim.Simulator, ilt.Config) {
	oc := optics.Config{WavelengthNM: 193, NA: 1.35, SigmaIn: 0.6, SigmaOut: 0.9, PixelNM: testPixelNM, GridSize: testWindowPx, Kernels: 6}
	cfg := ilt.Config{
		Mode: ilt.ModeFast, Alpha: 1, Beta: 0.5, Gamma: 4, SmoothWeight: 0.25,
		ThetaM: 4, ThetaEPE: 5, StepSize: 0.5, StepDecay: 0.98, Momentum: 0.1,
		MaxIter: 20, GradTol: 1e-4, Jumps: 2, JumpFactor: 3, SRAFInit: true,
		SRAFRules:   sraf.Rules{BiasNM: 2, SRAFDistNM: 70, SRAFWidthNM: 20, SRAFMinLenNM: 40},
		GradKernels: 4, EPEThresholdNM: 15, EPESampleNM: 40, DefocusNM: 25, DoseDelta: 0.02,
	}
	return &sim.Simulator{Cfg: oc, Resist: resist.Model{Threshold: 0.25, ThetaZ: 50}}, cfg
}

// TestLibraryGolden pins the family digest, the entry content key and
// the bytes of one MWLE entry file across builds: existing libraries are
// indexed by these, so a change here orphans every stored pattern and
// needs a libVersion bump, never a quiet re-pin.
func TestLibraryGolden(t *testing.T) {
	ws, cfg := goldenFamily()
	fam := FamilyKey(ws, testWindowPx, testPixelNM, cfg)
	if got, want := fam.String(), "0d6a3811761feab4648c68658b3f7dc17f79dc4f8f59efad757f94c910c570ae"; got != want {
		t.Errorf("FamilyKey = %s, want %s", got, want)
	}
	sig, _, _ := Compute(testLayout(0, 0), testWindowPx, testPixelNM)
	if got, want := entryKey(fam, sig), "19d3033ffff9b0e26222a2a21e81c98cd5625eec25d3783b37cd4a01a3dfbde8"; got != want {
		t.Errorf("entryKey = %s, want %s", got, want)
	}

	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	mask := grid.New(testWindowPx, testWindowPx)
	for i := range mask.Data {
		mask.Data[i] = float64(i%7) / 7
	}
	_, att := l.Prepare(l.Epoch(), cfg, ws, testWindowPx, testPixelNM, testLayout(8, 16))
	if att == nil {
		t.Fatal("Prepare returned no attempt")
	}
	att.Finish(&ilt.Result{MaskGray: mask, Iterations: 3})
	key := entryKey(fam, sig)
	data, err := os.ReadFile(filepath.Join(dir, key[:2], key+".mwe"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "d64eeaf8a1684113c9eddde295a8637cf3b9cdd07bec7bb02c153cdf3776699e"; got != want {
		t.Errorf("MWLE entry file sha256 = %s, want %s", got, want)
	}
}
