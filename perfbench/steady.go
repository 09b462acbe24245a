package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spread is one metric's distribution over a steadiness series.
type spread struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// IQR is (Q3 − Q1) / Median, the spread the bound applies to.
	IQR float64 `json:"iqr_share"`
}

func spreadOf(xs []float64) spread {
	q1, med, q3 := quartiles(xs)
	return spread{Values: xs, Q1: q1, Median: med, Q3: q3, IQR: ratio(q3-q1, med)}
}

// agreement is one metric's two interleaved sets measured against its bound.
type agreement struct {
	A, B  spread
	Bound float64 `json:"bound"`
	// Shift is how much worse set B's median is than set A's, as a share of
	// A's; negative when B is better.
	Shift float64 `json:"shift"`
	OK    bool    `json:"within_bound"`
}

// agree holds two sets of one metric to its bound: each set's spread, and
// the difference between their medians in either direction.
func agree(b bound, a, bs []float64) agreement {
	g := agreement{A: spreadOf(a), B: spreadOf(bs), Bound: b.Bound}
	g.Shift = ratio(g.B.Median-g.A.Median, g.A.Median)
	if b.Better == "higher" {
		g.Shift = -g.Shift
	}
	g.OK = g.A.IQR <= b.Bound && g.B.IQR <= b.Bound && math.Abs(g.Shift) <= b.Bound
	return g
}

// steadiness runs each named workload as two interleaved sets, A and B, of
// n runs each under seeds seed … seed+n−1 (A at a seed, then B at the same
// seed), so drift of the host's speed hits both sets alike. Then it runs the
// workload's traced run twice at the first seed (the second must reproduce
// the first's exact counts). It reports every end-to-end metric's median
// and spread in each set and the shift between the medians, and fails if a
// run fails, a spread exceeds its bound, or the medians differ by more.
func steadiness(cfg config, name string, seed uint64, n int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := workloadOrder
	if name != "all" {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := map[string]any{"env": map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
		"runs":       n,
		"seconds":    cfg.seconds,
	}}
	var problems []string
	for _, wl := range names {
		var sets [2]map[string][]float64
		for i := range n {
			for k, set := range "AB" {
				res, err := child(cfg, self, wl, seed+uint64(i), false)
				if err != nil {
					return fmt.Errorf("%s set %c seed %d: %w", wl, set, seed+uint64(i), err)
				}
				line, _ := json.Marshal(res.Metrics) // maps of numbers always encode
				fmt.Fprintf(os.Stderr, "perfbench: %s set %c seed %d: %s\n", wl, set, seed+uint64(i), line)
				if sets[k] == nil {
					sets[k] = map[string][]float64{}
				}
				for m, v := range res.Metrics {
					sets[k][m] = append(sets[k][m], v.Value)
				}
			}
		}
		for range 2 {
			if _, err := child(cfg, self, wl, seed, true); err != nil {
				return fmt.Errorf("%s traced seed %d: %w", wl, seed, err)
			}
		}
		table := map[string]agreement{}
		for _, b := range bounds {
			a, bs := sets[0][b.Name], sets[1][b.Name]
			if len(a) == 0 || len(bs) == 0 {
				return fmt.Errorf("%s: no values for %s", wl, b.Name)
			}
			g := agree(b, a, bs)
			if !g.OK {
				problems = append(problems, fmt.Sprintf("%s/%s spreads %.3f and %.3f, shift %.3f, bound %.3f",
					wl, b.Name, g.A.IQR, g.B.IQR, g.Shift, b.Bound))
			}
			table[b.Name] = g
			fmt.Fprintf(os.Stderr, "%-13s %-15s median %12.4f / %12.4f  spread %6.2f%% / %6.2f%%  shift %+6.2f%%  bound %5.1f%%\n",
				wl, b.Name, g.A.Median, g.B.Median, 100*g.A.IQR, 100*g.B.IQR, 100*g.Shift, 100*b.Bound)
		}
		out[wl] = table
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("steady-%d-%s.json", seed, time.Now().UTC().Format("20060102T150405")))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println(string(data))
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// child runs one benchmark invocation and returns its result line.
func child(cfg config, self, wl string, seed uint64, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-radiod", cfg.radiod, "-work", cfg.work,
		"--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return nil, errors.Join(err, jerr)
	}
	if err != nil || !res.Correct {
		return &res, fmt.Errorf("run failed (correct=%v): %v", res.Correct, err)
	}
	return &res, nil
}

// commit names the checked-out commit, or "unknown" outside a git tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
