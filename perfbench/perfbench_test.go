package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dualradio/internal/scenario"
	"dualradio/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 0.90, 90, false},
		{100, 0.90, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.5, 1, true},
		{4, 0.5, 2, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
		if want := c.n - int(c.want); c.p > 0.5 && beyond(c.n, c.p) != want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, beyond(c.n, c.p), want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2.5}, 1.375, 3.25, 4.75},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(`# HELP radiod_cache_hits_total Result lookups served by the in-memory LRU.
# TYPE radiod_cache_hits_total counter
radiod_cache_hits_total 5
radiod_queue_wait_seconds_sum{algorithm="mis"} 0.25
radiod_queue_wait_seconds_count{algorithm="mis"} 2
radiod_store_put_seconds_bucket{le="+Inf"} 3

`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`radiod_cache_hits_total 12
radiod_queue_wait_seconds_sum{algorithm="mis"} 0.5
radiod_queue_wait_seconds_sum{algorithm="ccds"} 1.5
radiod_queue_wait_seconds_count{algorithm="mis"} 3
radiod_queue_wait_seconds_count{algorithm="ccds"} 4
radiod_store_put_seconds_bucket{le="+Inf"} 3
radiod_ns_per_cost_unit 3.051809482473545e+00
`)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(before, after)
	want := map[string]float64{
		"radiod_cache_hits_total":         7,
		"radiod_queue_wait_seconds_sum":   1.75, // 0.25 more for mis, a new ccds series
		"radiod_queue_wait_seconds_count": 5,
		"radiod_store_put_seconds_bucket": 0,
		"radiod_ns_per_cost_unit":         3.051809482473545,
	}
	for k, v := range want {
		if math.Abs(d[k]-v) > 1e-12 {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], v)
		}
	}
	if _, err := parseProm("radiod_cache_hits_total twelve\n"); err == nil {
		t.Error("parseProm accepted a non-numeric value")
	}
	if _, err := parseProm("radiod_cache_hits_total\n"); err == nil {
		t.Error("parseProm accepted a line without a value")
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Overlapping children cover 10–50 once; the last is clipped to
		// the parent at 100.
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "http", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "http", Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "decode", Start: 40, End: 45},
		// An unclosed span is ignored.
		{ID: 6, Parent: 1, Name: "open", Start: 60, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"request": {Calls: 1, SelfUS: 50, WallUS: 100},
		"http":    {Calls: 3, SelfUS: 20 + 25 + 30, WallUS: 20 + 30 + 30},
		"decode":  {Calls: 1, SelfUS: 5, WallUS: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("selfTimes[%s] = %+v, want %+v", k, got[k], v)
		}
	}
	if ms := want["http"].meanSelfMS(); math.Abs(ms-0.025) > 1e-12 {
		t.Errorf("meanSelfMS = %v, want 0.025", ms)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start("request", 0)
	child := tr.start("http", root)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	lt := selfTimes(tr.spans)
	if lt["request"].Calls != 1 || lt["http"].Calls != 1 {
		t.Fatalf("selfTimes = %v", lt)
	}
	if lt["http"].SelfUS < 1000 || lt["request"].SelfUS > lt["request"].WallUS-1000 {
		t.Errorf("child time not attributed to the child: %v", lt)
	}
	var none *tracer
	if id := none.start("x", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.end(0)
}

func TestShapeMedianWeighsShapesByCount(t *testing.T) {
	var rs []served
	add := func(label string, ms float64, n int) {
		for range n {
			rs = append(rs, served{req: request{label: label}, latency: time.Duration(ms * float64(time.Millisecond))})
		}
	}
	add("a", 2, 3)
	if got := shapeMedian(rs); math.Abs(got-2) > 1e-9 {
		t.Errorf("one shape: %v, want its median 2", got)
	}
	add("b", 16, 1)
	// exp((3·ln 2 + ln 16)/4) = 2^(7/4)
	if got, want := shapeMedian(rs), math.Pow(2, 1.75); math.Abs(got-want) > 1e-9 {
		t.Errorf("two shapes: %v, want %v", got, want)
	}
}

func TestFingerprintRejectsDifferentCountsForSameSeed(t *testing.T) {
	dir := t.TempDir()
	radiod := filepath.Join(dir, "radiod")
	if err := os.WriteFile(radiod, []byte("binary"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{radiod: radiod, work: dir}
	fp := fingerprint{ValidFraction: 0.75, Served: "ab", Counts: map[string]int64{"sim.rounds": 10}}
	for range 2 {
		if err := checkFingerprint(cfg, "presets-cold", 7, true, fp); err != nil {
			t.Fatalf("same counts rejected: %v", err)
		}
	}
	if err := checkFingerprint(cfg, "presets-cold", 8, true, fingerprint{Served: "cd"}); err != nil {
		t.Fatalf("another seed rejected: %v", err)
	}
	fp.Counts["sim.rounds"] = 11
	if err := checkFingerprint(cfg, "presets-cold", 7, true, fp); err == nil {
		t.Fatal("different counts for the same code and seed were accepted")
	}
}

func TestCheckJobRejectsWrongResults(t *testing.T) {
	comp, err := scenario.Compile(misQuick())
	if err != nil {
		t.Fatal(err)
	}
	good := func() server.JobView {
		trials := make([]scenario.TrialResult, comp.Trials())
		for i := range trials {
			trials[i] = scenario.TrialResult{Trial: i, Seed: comp.TrialSeed(i), Rounds: 10 + i, Valid: i != 1}
		}
		res := &scenario.Result{SpecHash: comp.Hash(), Trials: trials, Aggregate: scenario.AggregateTrials(trials)}
		return server.JobView{ID: "j1", Status: server.StatusDone, SpecHash: comp.Hash(), Result: res}
	}
	if err := checkJob(good(), comp); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	bad := map[string]func(v *server.JobView){
		"status":      func(v *server.JobView) { v.Status = server.StatusFailed },
		"view hash":   func(v *server.JobView) { v.SpecHash = "00" },
		"result hash": func(v *server.JobView) { v.Result.SpecHash = "00" },
		"no result":   func(v *server.JobView) { v.Result = nil },
		"lost trial":  func(v *server.JobView) { v.Result.Trials = v.Result.Trials[1:] },
		"trial seed":  func(v *server.JobView) { v.Result.Trials[2].Seed++ },
		"aggregate":   func(v *server.JobView) { v.Result.Aggregate.MeanRounds++ },
	}
	for name, mutate := range bad {
		v := good()
		mutate(&v)
		if err := checkJob(v, comp); err == nil {
			t.Errorf("%s: wrong job accepted", name)
		}
	}
}

func TestRatesAreMediansOverWholeBlocks(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// Four whole blocks of 10 jobs; the third is slow. The last mark ends a
	// partial block, which does not count.
	ph := phase{marks: []mark{
		{at: ms(0), cpu: ms(0), jobs: 0},
		{at: ms(1000), cpu: ms(500), jobs: 10},
		{at: ms(2000), cpu: ms(1000), jobs: 20},
		{at: ms(4000), cpu: ms(2000), jobs: 30},
		{at: ms(5000), cpu: ms(2500), jobs: 40},
		{at: ms(9000), cpu: ms(4500), jobs: 41},
	}}
	tput, cpu := ph.rates()
	if tput != 10 || cpu != float64(ms(50)) {
		t.Errorf("rates = %v jobs/s, %v per job; want 10 jobs/s, 50ms per job", tput, time.Duration(cpu))
	}
	// Too few blocks: the whole run, end mark included.
	ph.marks = []mark{ph.marks[0], ph.marks[1], ph.marks[5]}
	tput, cpu = ph.rates()
	if math.Abs(tput-41.0/9) > 1e-9 || math.Abs(cpu-float64(ms(4500))/41) > 1e-3 {
		t.Errorf("whole-run rates = %v, %v; want %v, %v", tput, cpu, 41.0/9, float64(ms(4500))/41)
	}
}

func TestBlockTailNeedsTenBeyondInEveryBlock(t *testing.T) {
	run := func(blocks, block int) phase {
		var ph phase
		for k := range blocks + 2 {
			ph.marks = append(ph.marks, mark{at: time.Duration(k) * time.Second})
		}
		for i := range blocks*block + block/2 {
			ms := float64(i%block + 1)
			if i/block == 1 {
				ms *= 100 // one noisy block
			}
			ph.results = append(ph.results, served{idx: i, latency: time.Duration(ms * float64(time.Millisecond))})
		}
		return ph
	}
	// 1000-request blocks give p99 ten samples beyond it: the median of the
	// blocks' p99 ignores the noisy block.
	if got, ok := blockTail(run(4, 1000), 1000, 0.99); got != 990 || !ok {
		t.Errorf("block p99 = %v, %v; want 990, true", got, ok)
	}
	// 100-request blocks do not: the whole run's p99, noisy block included.
	got, ok := blockTail(run(4, 100), 100, 0.99)
	if want, _ := percentile(latencies(run(4, 100).results), 0.99); got != want || ok {
		t.Errorf("whole-run p99 = %v, %v; want %v, false (450 samples)", got, ok, want)
	}
}

func latencies(rs []served) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, float64(r.latency)/float64(time.Millisecond))
	}
	return out
}

func TestAgreeHoldsSpreadsAndShiftToBound(t *testing.T) {
	base := []float64{9.5, 9.8, 10, 10.2, 10.5}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	lower := bound{Name: "latency", Better: "lower", Bound: 0.25}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.25}
	if g := agree(lower, base, scaled(1.1)); !g.OK || math.Abs(g.Shift-0.1) > 1e-9 {
		t.Errorf("10%% slower: %+v, want within bound with shift 0.1", g)
	}
	if g := agree(lower, base, scaled(1.3)); g.OK {
		t.Errorf("30%% slower accepted: %+v", g)
	}
	if g := agree(lower, base, scaled(0.7)); g.OK {
		t.Errorf("30%% faster accepted: sets that disagree must fail either way: %+v", g)
	}
	if g := agree(higher, base, scaled(0.9)); !g.OK || math.Abs(g.Shift-0.1) > 1e-9 {
		t.Errorf("10%% lower rate: %+v, want within bound with shift 0.1", g)
	}
	wide := []float64{5, 8, 10, 12, 15}
	if g := agree(lower, base, wide); g.OK {
		t.Errorf("spread %.2f accepted under bound 0.25", g.B.IQR)
	}
}
