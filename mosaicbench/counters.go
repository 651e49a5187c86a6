package main

import (
	"bufio"
	"strconv"
	"strings"

	"mosaic"
)

// counters is one snapshot of mosaic.MetricsText(): every unlabelled
// series (counters, gauges, histogram _sum and _count) by name.
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	sc := bufio.NewScanner(strings.NewReader(mosaic.MetricsText()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			c[name] = v
		}
	}
	return c
}

// delta is after[name] - before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// deltaPrefix sums the deltas of every series whose name starts with
// prefix and ends with suffix.
func deltaPrefix(before, after counters, prefix, suffix string) float64 {
	var s float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v - before[k]
		}
	}
	return s
}

// shares splits the timed phase's non-empty windows by how they were
// served, from counter deltas: cache hits, cache misses that found a
// warm-start seed, and cold misses (warm-start lookup misses, or every
// miss when the library is off). The optimizer may still reject a seed;
// warmstart.accept_ratio in the ledger measures that.
type shares struct {
	windows           int
	hit, seeded, cold float64
}

func windowShares(before, after counters) *shares {
	hits := delta(before, after, "cache_hits_total")
	misses := delta(before, after, "cache_misses_total")
	cold := misses
	if delta(before, after, "warmstart_lookups_total") > 0 {
		cold = delta(before, after, "warmstart_misses_total")
	}
	n := hits + misses
	return &shares{
		windows: int(n),
		hit:     ratio(hits, n),
		seeded:  ratio(misses-cold, n),
		cold:    ratio(cold, n),
	}
}
