// Command perfbench measures radiod's served path end to end and layer by
// layer. It starts a real radiod built from the same tree, drives it over
// HTTP from closed-loop clients, checks every served result, and prints one
// JSON line of metrics as the last line of its output.
//
// With --trace 1 it re-runs the workload with client spans around every
// HTTP call, /metrics deltas, each job's phase breakdown, and an in-process
// replay that calls each layer's public functions in turn, and prints the
// per-layer metrics instead. With --steady N it runs each workload N times
// under successive seeds and reports every metric's median and spread
// against its bound in BENCHMARK.json.
//
// Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload presets-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dualradio/internal/scenario"
	"dualradio/internal/store"
)

// setups is how many times a run sets up radiod; setup_s is their median.
const setups = 15

// runBudget bounds a whole run, which must end within three minutes.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	radiod  string
	work    string
	seconds int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: presets-cold, served-hits or sweep-report (all with --steady)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run each workload this many times and report medians and spreads")
		radiod  = flag.String("radiod", "", "radiod binary (run.sh sets it)")
		work    = flag.String("work", "", "directory for scratch state (run.sh sets it)")
	)
	flag.Parse()
	if *radiod == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -radiod, -work and a positive --seconds are required; use run.sh")
		os.Exit(2)
	}
	cfg := config{radiod: *radiod, work: *work, seconds: *seconds}
	if *steady > 0 {
		if err := steadiness(cfg, *name, *seed, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := runOnce(ctx, cfg, w, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOnce sets radiod up, runs the measured phase, and, when traced, the
// probe and the replay. Failed checks make the result incorrect; errors
// that leave no result are returned.
func runOnce(ctx context.Context, cfg config, w *workload, seed uint64, traced bool) (*result, error) {
	runDir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setupS []float64
	var d *daemon
	for k := range setups {
		t0 := time.Now()
		var err error
		d, err = startDaemon(ctx, cfg.radiod, filepath.Join(runDir, "data"), w.workers, filepath.Join(runDir, "radiod.log"))
		if err != nil {
			return nil, err
		}
		if _, err := runAll(ctx, d, w.clients, w.warm(), nil); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setups-1 {
			d.stop()
		}
	}
	defer d.stop()

	var (
		servedTr, probeTr *tracer
		before, after     []promSample
		probed            []served
		workers           int
	)
	if traced {
		// Alternate traced and untraced requests, so the two halves of one
		// run measure what tracing costs.
		servedTr, probeTr = newTracer(), newTracer()
		var err error
		if before, err = d.scrape(ctx); err != nil {
			return nil, err
		}
		if workers, err = d.workers(ctx); err != nil {
			return nil, err
		}
	}
	dur := time.Duration(cfg.seconds) * time.Second
	hardCap := min(dur+60*time.Second, 120*time.Second)
	next := func(i int) request { return w.next(seed, i) }
	ph, err := closedLoop(ctx, d, w, next, dur, hardCap, servedTr)
	if err != nil {
		return nil, err
	}
	if traced {
		if after, err = d.scrape(ctx); err != nil {
			return nil, err
		}
		if probed, err = runAll(ctx, d, 1, probe(seed), probeTr); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()

	sort.Slice(ph.results, func(i, j int) bool { return ph.results[i].idx < ph.results[j].idx })
	res := &result{Correct: true, Attempted: len(ph.results), Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	var lat []float64
	jobs := 0
	for _, r := range ph.results {
		if r.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fail("request %d: %v", r.idx, r.err)
			}
			continue
		}
		lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		jobs += len(r.jobs)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if len(ph.results) < w.minReqs {
		fail("%d requests completed, the workload needs %d", len(ph.results), w.minReqs)
	}
	if jobs == 0 {
		fail("no request completed")
		return res, nil
	}
	valid, fp, err := prefixCheck(ph.results, w.prefix)
	if err != nil {
		fail("%v", err)
		return res, nil
	}

	if !traced {
		p50 := shapeMedian(ph.results)
		tail, ok := blockTail(ph, w.block, w.tail)
		if !ok {
			fail("p%g of %d samples has fewer than %d beyond it", w.tail*100, len(lat), minBeyond)
		}
		_, setupMed, _ := quartiles(setupS)
		m := res.Metrics
		m["setup_s"] = metric{setupMed, "s"}
		jobsPerS, cpuPerJob := ph.rates()
		m["jobs_per_s"] = metric{jobsPerS, "1/s"}
		m["req_p50_ms"] = metric{p50, "ms"}
		m["req_tail_ms"] = metric{tail, "ms"}
		m["cpu_ms_per_job"] = metric{cpuPerJob / float64(time.Millisecond), "ms"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		m["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"}
		m["valid_fraction"] = metric{valid, "frac"}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests, %d jobs in %.2fs; p50 and p%g over %d samples (%d beyond the tail); setups %v\n",
			w.name, seed, len(ph.results), jobs, ph.marks[len(ph.marks)-1].at.Seconds(), w.tail*100, len(lat), beyond(len(lat), w.tail), setupS)
	} else {
		replayTr := newTracer()
		rp, err := replayRun(runDir, replayTr, probed, ph.results, w.prefix)
		if err != nil {
			fail("replay: %v", err)
		} else {
			fp.Replay = hex.EncodeToString(rp.digest.Sum(nil))
			fp.Counts = simCounts(rp)
			layerMetrics(res.Metrics, ph, jobs, workers, promDelta(before, after), servedTr, probeTr, replayTr, rp)
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := writeTraces(path, map[string]*tracer{"served": servedTr, "probe": probeTr, "replay": replayTr}); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %d requests; spans in %s; client span cost %v\n",
			w.name, seed, len(ph.results), path, servedTr.cost)
	}
	fp.ValidFraction = valid
	if err := checkFingerprint(cfg, w.name, seed, traced, fp); err != nil {
		fail("%v", err)
	}
	return res, nil
}

// shapeMedian is the median latency of each request shape (label), combined
// over shapes by a geometric mean weighted by request count; with one shape
// it is the plain median. The presets differ in cost by two orders of
// magnitude, so the plain median of a preset mix sits on the step between
// two presets and jumps with the mix; per-shape medians do not.
func shapeMedian(results []served) float64 {
	byLabel := map[string][]float64{}
	for _, r := range results {
		if r.err == nil {
			byLabel[r.req.label] = append(byLabel[r.req.label], float64(r.latency)/float64(time.Millisecond))
		}
	}
	var logSum, n float64
	for _, xs := range byLabel {
		med, _ := percentile(xs, 0.5)
		logSum += float64(len(xs)) * math.Log(med)
		n += float64(len(xs))
	}
	return math.Exp(logSum / n)
}

// blockTail is the p-th percentile latency: the median over the run's whole
// blocks of each block's percentile when every block has at least minBeyond
// samples beyond it, so a burst of host noise in one block does not set the
// tail, and otherwise the percentile over the whole run. It reports whether
// the percentile it returns has minBeyond samples beyond it.
func blockTail(ph phase, block int, p float64) (float64, bool) {
	var all []float64
	blocks := make([][]float64, len(ph.marks)-2)
	for _, r := range ph.results {
		if r.err != nil {
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		all = append(all, ms)
		if k := r.idx / block; k < len(blocks) {
			blocks[k] = append(blocks[k], ms)
		}
	}
	if len(blocks) >= minBlocks {
		var tails []float64
		for _, b := range blocks {
			t, ok := percentile(b, p)
			if !ok {
				tails = nil
				break
			}
			tails = append(tails, t)
		}
		if tails != nil {
			med, _ := percentile(tails, 0.5)
			return med, true
		}
	}
	return percentile(all, p)
}

func (d *daemon) workers(ctx context.Context) (int, error) {
	var h struct {
		Workers int `json:"workers"`
	}
	if err := d.getJSON(ctx, nil, 0, "", http.MethodGet, "/healthz", nil, &h); err != nil {
		return 0, err
	}
	return h.Workers, nil
}

// prefixCheck computes valid_fraction over the first n requests of the list
// and a digest of their served results. Every run completes them all, so
// both are exact for a seed.
func prefixCheck(results []served, n int) (float64, fingerprint, error) {
	h := sha256.New()
	valid, trials := 0, 0
	for i := range n {
		if i >= len(results) || results[i].idx != i || results[i].err != nil {
			return 0, fingerprint{}, fmt.Errorf("request %d of the fixed prefix did not complete", i)
		}
		for _, jv := range results[i].jobs {
			data, err := json.Marshal(jv.Result)
			if err != nil {
				return 0, fingerprint{}, err
			}
			h.Write(data)
			for _, t := range jv.Result.Trials {
				trials++
				if t.Valid {
					valid++
				}
			}
		}
	}
	return ratio(float64(valid), float64(trials)), fingerprint{Served: hex.EncodeToString(h.Sum(nil))}, nil
}

// replayRun replays the probe and the fixed prefix in process against a
// scratch store.
func replayRun(runDir string, tr *tracer, probed, results []served, prefix int) (*replayer, error) {
	st, err := store.Open(filepath.Join(runDir, "replay-store"))
	if err != nil {
		return nil, err
	}
	rp := newReplayer(tr, st)
	for _, s := range append(probed, results[:prefix]...) {
		if err := rp.request(s); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func simCounts(rp *replayer) map[string]int64 {
	return map[string]int64{
		"sim.rounds":           rp.rounds,
		"sim.broadcasts":       rp.broadcasts,
		"sim.deliveries":       rp.deliveries,
		"sim.collisions":       rp.collisions,
		"sim.gray_activations": rp.grayActivations,
	}
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, ph phase, jobs, workers int, delta map[string]float64,
	servedTr, probeTr, replayTr *tracer, rp *replayer) {
	sv, pv, rv := selfTimes(servedTr.spans), selfTimes(probeTr.spans), selfTimes(replayTr.spans)

	// Replay: the engine and the layers around it.
	engine := rv["sim.engine"].WallUS + rv["sim.engine+verify"].WallUS
	m["sim.engine_ms"] = metric{engine / 1e3 / float64(rp.trials), "ms"}
	for _, p := range scenario.Presets() {
		v := 0.0
		if lt := rp.enginePerLabel[p.Name]; lt != nil {
			v = lt.ms / float64(lt.trials)
		}
		m["sim.engine_ms."+p.Name] = metric{v, "ms"}
	}
	m["sim.ns_per_round"] = metric{ratio(float64(rp.engineNS), float64(rp.stagedRounds)), "ns"}
	for k, v := range simCounts(rp) {
		m[k] = metric{float64(v), "count"}
	}
	m["harness.instance_ms"] = metric{rv["harness.instance"].meanSelfMS(), "ms"}
	m["harness.instances_per_trial"] = metric{float64(rp.instances) / float64(rp.trials), "count"}
	m["verify.ms"] = metric{rv["verify"].meanSelfMS(), "ms"}
	m["scenario.compile_us"] = metric{rv["scenario.compile"].meanSelfMS() * 1e3, "us"}
	m["scenario.reduce_us"] = metric{rv["scenario.reduce"].meanSelfMS() * 1e3, "us"}
	m["scenario.expand_ms"] = metric{rv["scenario.expand"].meanSelfMS(), "ms"}
	m["store.get_ms"] = metric{rv["store.get"].meanSelfMS(), "ms"}
	m["store.entry_kb"] = metric{mean(rp.entryBytes) / 1024, "KiB"}
	m["report.build_ms"] = metric{rv["report.build"].meanSelfMS(), "ms"}

	// Served: client spans, phase breakdowns and /metrics deltas.
	m["server.submit_ms"] = metric{sv["http.submit"].meanSelfMS(), "ms"}
	get := sv["http.get_report"]
	if get.Calls == 0 {
		get = pv["http.get_report"]
	}
	m["report.get_ms"] = metric{get.meanSelfMS(), "ms"}

	var queue, persist, overhead []float64
	for _, r := range ph.results {
		if r.err != nil {
			continue
		}
		lat := float64(r.latency) / float64(time.Millisecond)
		var work float64
		for _, jv := range r.jobs {
			if jv.Phases == nil {
				continue
			}
			work += jv.Phases.TrialsMS + jv.Phases.ReduceMS + jv.Phases.PersistMS
			if !jv.Cached {
				queue = append(queue, jv.Phases.QueueWaitMS)
				persist = append(persist, jv.Phases.PersistMS)
			}
		}
		overhead = append(overhead, lat-work/float64(max(1, min(len(r.jobs), workers))))
	}
	m["server.queue_wait_ms"] = metric{mean(queue), "ms"}
	m["server.persist_ms"] = metric{mean(persist), "ms"}
	m["server.overhead_ms"] = metric{mean(overhead), "ms"}
	hits, misses := delta["radiod_cache_hits_total"], delta["radiod_cache_misses_total"]
	m["server.cache_hit_frac"] = metric{ratio(hits, hits+misses), "frac"}
	sh, sm := delta["radiod_store_hits_total"], delta["radiod_store_misses_total"]
	m["server.store_hit_frac"] = metric{ratio(sh, sh+sm), "frac"}
	rejected := 0
	for _, r := range ph.results {
		var se *statusError
		if errors.As(r.err, &se) {
			rejected++
		}
	}
	m["server.rejected"] = metric{float64(rejected), "count"}
	m["store.put_ms"] = metric{1e3 * ratio(delta["radiod_store_put_seconds_sum"], delta["radiod_store_put_seconds_count"]), "ms"}
	m["journal.append_ms"] = metric{1e3 * ratio(delta["radiod_journal_append_seconds_sum"], delta["radiod_journal_append_seconds_count"]), "ms"}
	m["journal.appends_per_job"] = metric{ratio(delta["radiod_journal_append_seconds_count"], float64(jobs)), "count"}

	m["trace.overhead_pct"] = metric{traceOverheadPct(ph.results), "%"}
}

// traceOverheadPct compares the traced requests of a run with the untraced
// ones beside them. Requests of one label do the same kind of work, so it
// takes the ratio of their median latencies per label and averages the
// ratios weighted by request count.
func traceOverheadPct(results []served) float64 {
	type pair struct{ traced, plain []float64 }
	byLabel := map[string]*pair{}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		p := byLabel[r.req.label]
		if p == nil {
			p = &pair{}
			byLabel[r.req.label] = p
		}
		lat := float64(r.latency) / float64(time.Millisecond)
		if r.traced {
			p.traced = append(p.traced, lat)
		} else {
			p.plain = append(p.plain, lat)
		}
	}
	var sum, n float64
	for _, p := range byLabel {
		if len(p.traced) == 0 || len(p.plain) == 0 {
			continue
		}
		t, _ := percentile(p.traced, 0.5)
		u, _ := percentile(p.plain, 0.5)
		w := float64(len(p.traced) + len(p.plain))
		sum += w * (ratio(t, u) - 1)
		n += w
	}
	return 100 * ratio(sum, n)
}

func writeTraces(path string, tracers map[string]*tracer) error {
	out := map[string]any{}
	for name, t := range tracers {
		out[name] = map[string]any{"layers": selfTimes(t.spans), "spans": t.spans}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fingerprint is what a run of one seed must reproduce exactly on the same
// code: valid_fraction, the served results of the fixed prefix, and, when
// traced, the replayed trials and the engine counts.
type fingerprint struct {
	ValidFraction float64          `json:"valid_fraction"`
	Served        string           `json:"served"`
	Replay        string           `json:"replay,omitempty"`
	Counts        map[string]int64 `json:"counts,omitempty"`
}

// checkFingerprint compares fp with the one an earlier run of the same
// binaries, workload and seed left, and records it when there is none.
func checkFingerprint(cfg config, workload string, seed uint64, traced bool, fp fingerprint) error {
	code, err := codeHash(cfg.radiod)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.work, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-trace%v.json", code[:16], workload, seed, traced))
	data, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != string(data) {
			return fmt.Errorf("exact counts differ from an earlier run of the same code and seed:\n  was %s\n  now %s", prev, data)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, data, 0o644)
	default:
		return err
	}
}

// codeHash identifies the code under test: both binaries' bytes.
func codeHash(radiod string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{radiod, self} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
