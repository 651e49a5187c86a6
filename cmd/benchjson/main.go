// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark runs can be archived under results/
// and diffed mechanically. The text form stays benchstat-compatible; this
// tool only adds a machine-readable sibling.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | tee bench.txt | benchjson > bench.json
//	benchjson -compare old.json new.json
//
// A multi-package run prints one "pkg:" header per package; each result
// records the package it ran in. `make bench` adds "nproc:", "gomaxprocs:"
// and "goversion:" header lines, which land in the report header, so an
// archived number always says what machine and toolchain produced it.
//
// Compare mode prints a per-benchmark delta table (ns/op, B/op) for the
// benchmarks present in both reports, matched by package and name —
// benchmarks present in only one (added or removed since the old report)
// are listed in dedicated sections below it — and exits nonzero when any
// shared benchmark regressed by more than -threshold percent in ns/op or
// in optimizer iterations ("iters/op", reported by the warm-start
// benchmarks), so CI can gate on it mechanically while treating
// noise-level drift as clean. Mask quality is gated without a threshold:
// the paper-table metrics EPEviol and PVB-nm2 are deterministic, so any
// increase is a QUALITY REGRESSION. score is not gated because it folds
// in runtime.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark line, e.g.
//
//	BenchmarkTable3RuntimeFast  3  445979515 ns/op  7392618 B/op  2764 allocs/op
type Result struct {
	Pkg         string  `json:"pkg,omitempty"` // import path of the package the benchmark ran in
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds custom units reported via b.ReportMetric (for example
	// the tile cache's hits/op and misses/op), keyed by unit string, so
	// they survive into the archived JSON instead of being dropped.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the whole run: environment header lines plus every result.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Nproc      int      `json:"nproc,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Results    []Result `json:"results"`
}

// label names the result in compare output: the last element of its
// package path, then the benchmark name ("ilt.BenchmarkMicroIteration-2").
func (r Result) label() string {
	if r.Pkg == "" {
		return r.Name
	}
	return path.Base(r.Pkg) + "." + r.Name
}

func parseLine(fields []string) (Result, bool) {
	// Minimum shape: name, iterations, value, unit.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

func parse(sc *bufio.Scanner) (Report, error) {
	var rep Report
	pkg := "" // the most recent "pkg:" header: the package of the results below it
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		key, val, _ := strings.Cut(line, ":")
		val = strings.TrimSpace(val)
		switch key {
		case "goos":
			rep.Goos = val
		case "goarch":
			rep.Goarch = val
		case "pkg":
			pkg = val
		case "cpu":
			rep.CPU = val
		case "nproc":
			rep.Nproc, _ = strconv.Atoi(val)
		case "gomaxprocs":
			rep.GOMAXPROCS, _ = strconv.Atoi(val)
		case "goversion":
			rep.GoVersion = val
		default:
			if r, ok := parseLine(strings.Fields(line)); ok {
				r.Pkg = pkg
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep, sc.Err()
}

func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// itersUnit is the custom go-bench unit benchmarks report optimizer
// iteration counts under (b.ReportMetric(..., "iters/op")).
const itersUnit = "iters/op"

// qualityUnits are the deterministic mask-quality metrics the paper-table
// benchmarks report: EPE violations and PV-band area. Lower is better and
// the same code gives the same value on any machine, so any increase is a
// regression, with no noise threshold.
var qualityUnits = []string{"EPEviol", "PVB-nm2"}

// keyFunc returns how results are matched across two reports: by package
// and name, or by name alone when either report predates per-result
// packages (it has no result with a Pkg).
func keyFunc(a, b Report) func(Result) string {
	hasPkg := func(rep Report) bool {
		for _, r := range rep.Results {
			if r.Pkg != "" {
				return true
			}
		}
		return false
	}
	if !hasPkg(a) || !hasPkg(b) {
		return func(r Result) string { return r.Name }
	}
	return func(r Result) string { return r.Pkg + "." + r.Name }
}

// qualityRegressions describes each quality unit whose value rose from or
// to nr.
func qualityRegressions(or, nr Result) []string {
	var out []string
	for _, u := range qualityUnits {
		ov, ok1 := or.Extra[u]
		nv, ok2 := nr.Extra[u]
		if ok1 && ok2 && nv > ov {
			out = append(out, fmt.Sprintf("%s %g -> %g", u, ov, nv))
		}
	}
	return out
}

// compare writes a per-benchmark delta table for the benchmarks shared by
// old and new, then dedicated "added" / "removed" sections for benchmarks
// present in only one report (with their values, so a rename or a new
// bench is visible rather than silently dropped or smeared into the delta
// table), and reports whether any shared benchmark regressed in ns/op by
// more than threshold percent, or in iters/op likewise, or rose at all in
// a quality unit. Benchmarks are compared by package and exact name
// (including any /sub and -N parts; see keyFunc), in new-report order;
// only shared benchmarks can regress the comparison.
func compare(w io.Writer, oldRep, newRep Report, threshold float64) bool {
	key := keyFunc(oldRep, newRep)
	oldBy := make(map[string]Result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[key(r)] = r
	}
	newKeys := make(map[string]bool, len(newRep.Results))
	regressed := false

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\told ns/op\tnew ns/op\tdelta\titers/op\t\n")
	for _, nr := range newRep.Results {
		newKeys[key(nr)] = true
		or, ok := oldBy[key(nr)]
		if !ok {
			continue
		}
		note := ""
		delta := "n/a"
		if or.NsPerOp > 0 {
			pct := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
			delta = fmt.Sprintf("%+.1f%%", pct)
			if pct > threshold {
				regressed = true
				note = fmt.Sprintf("REGRESSION (>%g%%)", threshold)
			}
		}
		// Optimizer iteration counts ride along as a custom unit (see
		// BenchmarkWarmStartSeeded): a warm-start or stopping-rule change
		// that silently costs iterations regresses here even when ns/op
		// noise hides it.
		iters := "-"
		oi, ni := or.Extra[itersUnit], nr.Extra[itersUnit]
		if oi > 0 || ni > 0 {
			iters = fmt.Sprintf("%.1f -> %.1f", oi, ni)
			if oi > 0 {
				ipct := (ni - oi) / oi * 100
				iters += fmt.Sprintf(" (%+.1f%%)", ipct)
				if ipct > threshold {
					regressed = true
					if note != "" {
						note += "; "
					}
					note += fmt.Sprintf("ITER REGRESSION (>%g%%)", threshold)
				}
			}
		}
		if q := qualityRegressions(or, nr); len(q) > 0 {
			regressed = true
			if note != "" {
				note += "; "
			}
			note += "QUALITY REGRESSION (" + strings.Join(q, ", ") + ")"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%s\t%s\n", nr.label(), or.NsPerOp, nr.NsPerOp, delta, iters, note)
	}
	tw.Flush()

	var added, removed []Result
	for _, nr := range newRep.Results {
		if _, ok := oldBy[key(nr)]; !ok {
			added = append(added, nr)
		}
	}
	for _, or := range oldRep.Results {
		if !newKeys[key(or)] {
			removed = append(removed, or)
		}
	}
	oneSided(w, "added (not in old report)", added)
	oneSided(w, "removed (not in new report)", removed)
	return regressed
}

// oneSided prints one section of benchmarks present in a single report.
func oneSided(w io.Writer, title string, rs []Result) {
	if len(rs) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range rs {
		fmt.Fprintf(tw, "  %s\t%.0f ns/op\t\n", r.label(), r.NsPerOp)
	}
	tw.Flush()
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two archived JSON reports: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 15, "ns/op and iters/op regression percentage above which -compare exits nonzero (EPEviol and PVB-nm2 fail on any increase)")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if compare(os.Stdout, oldRep, newRep, *threshold) {
			os.Exit(1)
		}
		return
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
