package main

import (
	"encoding/json"
	"testing"

	"mosaic/internal/cache"
)

// specs returns the first n job specs of a workload's stream as bytes.
func specs(t *testing.T, workload string, seed uint64, n int) [][]byte {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, it := range g.priming() {
		b, _ := json.Marshal(it.Spec)
		out = append(out, b)
	}
	for i := 0; i < n; i++ {
		b, err := json.Marshal(g.next(i).Spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestSameSeedSameSpecs(t *testing.T) {
	for _, w := range []string{wlClips, wlCold, wlRepeat} {
		a, b := specs(t, w, 7, 24), specs(t, w, 7, 24)
		for i := range a {
			if string(a[i]) != string(b[i]) {
				t.Fatalf("%s: spec %d differs between two generators with seed 7", w, i)
			}
		}
		c := specs(t, w, 8, 24)
		same := true
		for i := range a {
			same = same && string(a[i]) == string(c[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestGeneratedLayoutsParseAndValidate(t *testing.T) {
	for _, w := range []string{wlClips, wlCold, wlRepeat} {
		g, err := newGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			it := g.next(i)
			l, err := parseLayout(it.Spec.Layout)
			if err != nil {
				t.Fatalf("%s job %d: %v", w, i, err)
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("%s job %d: %v", w, i, err)
			}
			if got := areaUM2(l.SizeNM); got != it.AreaUM2 {
				t.Fatalf("%s job %d: area %g, recorded %g", w, i, got, it.AreaUM2)
			}
		}
	}
}

func TestClipPassCoversSuiteInBothModes(t *testing.T) {
	g, _ := newGenerator(wlClips, 1)
	seen := map[string]int{}
	for i := 0; i < 20; i++ {
		it := g.next(i)
		if it.Block != 0 {
			t.Fatalf("job %d is in block %d, want the first pass", i, it.Block)
		}
		seen[it.Clip+"/"+it.Kind]++
	}
	if len(seen) != 20 {
		t.Fatalf("first pass covers %d clip/mode pairs, want 20", len(seen))
	}
	if g.next(20).Block != 1 {
		t.Fatal("job 20 does not open the second pass")
	}
}

// TestLayoutColdWindowsAreUnique checks the property layout-cold rests
// on: no two windows of a run share a tile-cache key, so the cache sees
// only misses.
func TestLayoutColdWindowsAreUnique(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, _ := newGenerator(wlCold, seed)
		k := newKeyer()
		seen := map[cache.Key]int{}
		for i := 0; i < 12; i++ {
			l, err := parseLayout(g.next(i).Spec.Layout)
			if err != nil {
				t.Fatal(err)
			}
			keys := k.windowKeys(l)
			if len(keys) != 16 {
				t.Fatalf("seed %d layout %d has %d non-empty windows, want 16", seed, i, len(keys))
			}
			for _, key := range keys {
				if j, dup := seen[key]; dup {
					t.Fatalf("seed %d: layout %d repeats a window of layout %d", seed, i, j)
				}
				seen[key] = i
			}
		}
	}
}

// TestRepeatServiceMix checks each block's composition and that exact
// repeats reuse library windows while jittered and novel jobs never
// repeat a window.
func TestRepeatServiceMix(t *testing.T) {
	g, _ := newGenerator(wlRepeat, 5)
	k := newKeyer()
	lib := map[cache.Key]bool{}
	for _, it := range g.priming() {
		l, _ := parseLayout(it.Spec.Layout)
		for _, key := range k.windowKeys(l) {
			lib[key] = true
		}
	}
	seen := map[cache.Key]bool{}
	counts := map[string]int{}
	const blocks = 10
	for i := 0; i < 4*blocks; i++ {
		it := g.next(i)
		if it.Block != i/4 {
			t.Fatalf("job %d in block %d, want %d", i, it.Block, i/4)
		}
		counts[it.Kind]++
		l, _ := parseLayout(it.Spec.Layout)
		for _, key := range k.windowKeys(l) {
			switch it.Kind {
			case kindRepeat:
				if !lib[key] {
					t.Fatalf("job %d: exact repeat has a window outside the library", i)
				}
			default:
				if lib[key] || seen[key] {
					t.Fatalf("job %d (%s): window seen before", i, it.Kind)
				}
				seen[key] = true
			}
		}
	}
	want := map[string]int{kindRepeat: 2 * blocks, kindJitter: blocks, kindNovel: blocks}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d %s jobs in %d blocks, want %d", counts[kind], kind, blocks, n)
		}
	}
}

func TestTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 40; i++ {
		v = append(v, float64(i))
	}
	got, pct := tail(v)
	if got != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %g at p%g, want 30 at p75 (10 samples beyond)", got, pct)
	}
	got, pct = tail(v[:12])
	if got != 12 || pct != 100 {
		t.Errorf("tail of 1..12 = %g at p%g, want the maximum", got, pct)
	}
}

func TestHDMedian(t *testing.T) {
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if got := hdMedian([]float64{4}); !near(got, 4) {
		t.Errorf("hdMedian of one sample = %g, want 4", got)
	}
	// n = 3: Beta(2, 2) puts 7/27 on each outer third.
	if got := hdMedian([]float64{1, 0, 0}); !near(got, 7.0/27) {
		t.Errorf("hdMedian{0,0,1} = %.12g, want 7/27", got)
	}
	// Symmetric samples estimate their centre, even when bimodal.
	var v []float64
	for i := 0; i < 20; i++ {
		v = append(v, 0.3+0.001*float64(i), 0.9-0.001*float64(i))
	}
	if got := hdMedian(v); !near(got, 0.6) {
		t.Errorf("hdMedian of a symmetric bimodal sample = %.12g, want 0.6", got)
	}
}
