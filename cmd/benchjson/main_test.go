package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mosaic
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable3RuntimeFast  	       3	 445979515 ns/op	 7392618 B/op	    2764 allocs/op
BenchmarkConvolveInversePruned-8   	    1000	    295228 ns/op
PASS
ok  	mosaic	2.1s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("bad header: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkTable3RuntimeFast" || r.Iterations != 3 ||
		r.NsPerOp != 445979515 || r.BytesPerOp != 7392618 || r.AllocsPerOp != 2764 {
		t.Fatalf("bad result: %+v", r)
	}
	if r2 := rep.Results[1]; r2.BytesPerOp != 0 || r2.NsPerOp != 295228 {
		t.Fatalf("bad -benchmem-less result: %+v", r2)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken notanumber ns/op\nhello\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("garbage parsed as results: %+v", rep.Results)
	}
}

func TestCompare(t *testing.T) {
	oldRep := Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}}
	newRep := Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1100}, // +10%: within threshold
		{Name: "BenchmarkB", NsPerOp: 700},  // -30%: improvement
		{Name: "BenchmarkNew", NsPerOp: 10},
	}}
	var buf strings.Builder
	if compare(&buf, oldRep, newRep, 15) {
		t.Fatalf("flagged regression at +10%%/-30%%:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"BenchmarkA", "+10.0%", "-30.0%",
		"added (not in old report):", "BenchmarkNew", "removed (not in new report):", "BenchmarkGone"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSION") {
		t.Errorf("unexpected REGRESSION marker:\n%s", out)
	}
	// The delta table holds exactly the shared benchmarks: one-sided
	// entries get their own sections and must not misalign table rows.
	table := strings.SplitN(out, "\n\n", 2)[0]
	for _, name := range []string{"BenchmarkNew", "BenchmarkGone"} {
		if strings.Contains(table, name) {
			t.Errorf("one-sided benchmark %s leaked into the delta table:\n%s", name, out)
		}
	}
}

func TestCompareOneSidedSectionsCarryValues(t *testing.T) {
	oldRep := Report{Results: []Result{{Name: "BenchmarkGone", NsPerOp: 50}}}
	newRep := Report{Results: []Result{{Name: "BenchmarkNew", NsPerOp: 1e12}}}
	var buf strings.Builder
	// Disjoint reports: no baseline exists, so nothing can regress, no
	// matter how slow the added benchmark is.
	if compare(&buf, oldRep, newRep, 15) {
		t.Fatalf("disjoint reports reported a regression:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkNew") || !strings.Contains(out, "1000000000000 ns/op") {
		t.Errorf("added section missing its value:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkGone") || !strings.Contains(out, "50 ns/op") {
		t.Errorf("removed section missing its value:\n%s", out)
	}
}

func TestCompareIdenticalReportsPrintNoSections(t *testing.T) {
	rep := Report{Results: []Result{{Name: "BenchmarkA", NsPerOp: 100}}}
	var buf strings.Builder
	compare(&buf, rep, rep, 15)
	if strings.Contains(buf.String(), "added") || strings.Contains(buf.String(), "removed") {
		t.Errorf("empty sections printed headers:\n%s", buf.String())
	}
}

func TestParseExtraUnits(t *testing.T) {
	in := "BenchmarkTileCacheWarm-4  100  1234567 ns/op  5.00 hits/op  1.00 misses/op  2048 B/op  12 allocs/op\n" +
		"BenchmarkPlain-4  200  99 ns/op\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rep.Results))
	}
	r := rep.Results[0]
	if r.NsPerOp != 1234567 || r.BytesPerOp != 2048 || r.AllocsPerOp != 12 {
		t.Errorf("standard units mis-parsed: %+v", r)
	}
	if r.Extra["hits/op"] != 5 || r.Extra["misses/op"] != 1 {
		t.Errorf("custom units not captured: %v", r.Extra)
	}
	if rep.Results[1].Extra != nil {
		t.Errorf("plain benchmark grew an Extra map: %v", rep.Results[1].Extra)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	oldRep := Report{Results: []Result{{Name: "BenchmarkA", NsPerOp: 1000}}}
	newRep := Report{Results: []Result{{Name: "BenchmarkA", NsPerOp: 1200}}}
	var buf strings.Builder
	if !compare(&buf, oldRep, newRep, 15) {
		t.Fatalf("+20%% not flagged as regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("table missing REGRESSION marker:\n%s", buf.String())
	}
}

func TestCompareIterRegression(t *testing.T) {
	mk := func(iters float64) Report {
		return Report{Results: []Result{{
			Name:    "BenchmarkWarmStartSeeded",
			NsPerOp: 1000,
			Extra:   map[string]float64{itersUnit: iters},
		}}}
	}
	// ns/op is flat, but the optimizer now burns twice the iterations:
	// the comparison must catch it.
	var buf strings.Builder
	if !compare(&buf, mk(4), mk(8), 15) {
		t.Fatalf("+100%% iters/op not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ITER REGRESSION") {
		t.Errorf("table missing ITER REGRESSION marker:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "4.0 -> 8.0") {
		t.Errorf("table missing the iteration delta:\n%s", buf.String())
	}

	// Fewer iterations is an improvement, not a regression.
	buf.Reset()
	if compare(&buf, mk(8), mk(4), 15) {
		t.Fatalf("-50%% iters/op flagged as regression:\n%s", buf.String())
	}

	// Benchmarks without the unit keep a plain "-" column and never
	// trip the iteration gate.
	plain := Report{Results: []Result{{Name: "BenchmarkA", NsPerOp: 100}}}
	buf.Reset()
	if compare(&buf, plain, plain, 15) {
		t.Fatalf("unit-less benchmark regressed:\n%s", buf.String())
	}
}

// twoPackages is a multi-package `make bench` run: the environment lines
// make bench writes, then one go test header block per package.
const twoPackages = `nproc: 2
gomaxprocs: 2
goversion: go1.24.0
goos: linux
goarch: amd64
pkg: mosaic
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2MOSAICFast-2  2  681181512 ns/op  0 EPEviol  6400 PVB-nm2  25601 score
BenchmarkShared-2  10  100 ns/op
PASS
ok  	mosaic	2.1s
goos: linux
goarch: amd64
pkg: mosaic/internal/ilt
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMicroIteration-2  100  13700000 ns/op
BenchmarkShared-2  10  200 ns/op
PASS
ok  	mosaic/internal/ilt	1.5s
`

func TestParseTwoPackages(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(twoPackages)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nproc != 2 || rep.GOMAXPROCS != 2 || rep.GoVersion != "go1.24.0" || rep.CPU == "" {
		t.Fatalf("environment header not recorded: %+v", rep)
	}
	want := []struct{ pkg, name string }{
		{"mosaic", "BenchmarkTable2MOSAICFast-2"},
		{"mosaic", "BenchmarkShared-2"},
		{"mosaic/internal/ilt", "BenchmarkMicroIteration-2"},
		{"mosaic/internal/ilt", "BenchmarkShared-2"},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(rep.Results), len(want))
	}
	for i, w := range want {
		if r := rep.Results[i]; r.Pkg != w.pkg || r.Name != w.name {
			t.Errorf("result %d is %s %s, want %s %s", i, r.Pkg, r.Name, w.pkg, w.name)
		}
	}
}

// TestCompareMatchesPackageAndName: two benchmarks sharing a name in
// different packages are compared with their own package's baseline,
// not with each other.
func TestCompareMatchesPackageAndName(t *testing.T) {
	oldRep, err := parse(bufio.NewScanner(strings.NewReader(twoPackages)))
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := parse(bufio.NewScanner(strings.NewReader(twoPackages)))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if compare(&buf, oldRep, newRep, 15) {
		t.Fatalf("identical two-package reports regressed (names matched across packages):\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"mosaic.BenchmarkShared-2", "ilt.BenchmarkShared-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Moving a benchmark to another package is a removal plus an addition.
	newRep.Results[1].Pkg = "mosaic/internal/tile"
	buf.Reset()
	compare(&buf, oldRep, newRep, 15)
	if out := buf.String(); !strings.Contains(out, "added") || !strings.Contains(out, "removed") {
		t.Errorf("package move not reported as added + removed:\n%s", out)
	}
}

// TestCompareQualityGate: any rise in EPEviol or PVB-nm2 fails the
// comparison however small, a drop passes, and score (which folds in
// runtime) is never gated.
func TestCompareQualityGate(t *testing.T) {
	mk := func(epe, pvb, score float64) Report {
		return Report{Results: []Result{{
			Pkg: "mosaic", Name: "BenchmarkTable2MOSAICFast-2", NsPerOp: 1000,
			Extra: map[string]float64{"EPEviol": epe, "PVB-nm2": pvb, "score": score},
		}}}
	}
	base := mk(0, 6400, 25601)
	for _, tc := range []struct {
		name    string
		newRep  Report
		regress bool
		marker  string
	}{
		{"identical", base, false, ""},
		{"one more EPE violation", mk(1, 6400, 25601), true, "EPEviol 0 -> 1"},
		{"PV band one pixel larger", mk(0, 6464, 25601), true, "PVB-nm2 6400 -> 6464"},
		{"PV band smaller", mk(0, 6336, 25000), false, ""},
		{"score worse only", mk(0, 6400, 99999), false, ""},
	} {
		var buf strings.Builder
		got := compare(&buf, base, tc.newRep, 15)
		out := buf.String()
		if got != tc.regress {
			t.Errorf("%s: regressed = %v, want %v:\n%s", tc.name, got, tc.regress, out)
		}
		if tc.regress {
			if !strings.Contains(out, "QUALITY REGRESSION") || !strings.Contains(out, tc.marker) {
				t.Errorf("%s: output missing QUALITY REGRESSION %q:\n%s", tc.name, tc.marker, out)
			}
		} else if strings.Contains(out, "REGRESSION") {
			t.Errorf("%s: unexpected REGRESSION marker:\n%s", tc.name, out)
		}
	}
}
