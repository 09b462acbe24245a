package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minBeyond = 10

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// percentile returns the nearest-rank p-th percentile of xs and whether at
// least minBeyond samples lie beyond it. The median (p = 0.5) needs only
// one sample.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	ok := p <= 0.5 || beyond(n, p) >= minBeyond
	return s[rank-1], ok
}

// quartiles returns the first quartile, median and third quartile with the
// same method as Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// promSample is one exposition line: metric name, label set, value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseProm reads Prometheus text exposition, skipping comments and blank
// lines. Histogram buckets are kept like any other series.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		series := strings.TrimSpace(line[:sp])
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out, sc.Err()
}

// promDelta is the change of every metric between two scrapes, summed over
// label sets: after − before per series, then added up by metric name.
// Series absent before count from zero.
func promDelta(before, after []promSample) map[string]float64 {
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[s.name+s.labels] = s.value
	}
	out := make(map[string]float64)
	for _, s := range after {
		out[s.name] += s.value - prev[s.name+s.labels]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
