package main

import (
	"math/rand/v2"

	"dualradio/internal/scenario"
)

// request is one client operation: a job (spec) or a sweep (sweep).
type request struct {
	// label names the request's shape: the preset it instantiates, or a
	// workload-specific tag. Per-preset replay metrics key on it.
	label string
	spec  *scenario.Spec
	sweep *scenario.SweepSpec
}

// workload is one traffic mix. Every request list is a pure function of the
// seed, so the same seed gives the same inputs; the warm pass is the same for
// every seed, so set-up does identical work in every run.
type workload struct {
	name string
	// workers is radiod's -workers flag (0 leaves radiod's default,
	// GOMAXPROCS).
	workers int
	// clients is the number of closed-loop connections.
	clients int
	// tail is the percentile reported as req_tail_ms. minReqs requests give
	// it at least ten samples beyond it; the measured phase runs past
	// --seconds until that many have completed.
	tail    float64
	minReqs int
	// prefix is how many leading requests fix valid_fraction and the traced
	// replay. It is at most minReqs, so every run completes all of them.
	prefix int
	// pass is the length of the request list's repeating unit; the measured
	// phase ends on a whole pass, so every preset of presets-cold appears
	// equally often in every run.
	pass int
	// block is how many requests a block of the measured phase holds; rates
	// and, where a block has enough samples, the tail are medians over
	// blocks. It is a multiple of pass.
	block int
	warm  func() []request
	next  func(seed uint64, i int) request
}

// Seed layout. Every job of a run takes its own block of seedStride trial
// seeds (the largest preset runs 5 trials), so no two jobs share a trial
// seed and with it a memoized instance. A run's blocks start at
// runBase(seed); warm passes and the traced probe use ranges no run reaches.
const (
	seedStride = 16
	runSpan    = 1 << 26
	warmBase   = 1 << 50
	probeBase  = runSpan / 2
)

func runBase(seed uint64) uint64 { return (seed%(1<<20) + 1) * runSpan }

func jobSeed(seed uint64, i int) uint64 { return runBase(seed) + uint64(i)*seedStride }

func withSeed(s scenario.Spec, seed uint64) *scenario.Spec {
	s.Seed = seed
	return &s
}

// hotSetSize exceeds radiod's default -cache of 128, so a hot request is
// served by the LRU about half the time and by the store otherwise.
const hotSetSize = 256

// freshShare is the fraction of served-hits requests that name a spec never
// seen before, so a run also pays some cold writes.
const freshShare = 0.05

func misQuick() scenario.Spec {
	s, _ := scenario.PresetByName("mis-quick")
	s.Name = ""
	return s
}

// sweepAt is the instance-sharing grid of sweep-report: children that
// differ only in algorithm or adversary share one instance per trial seed.
func sweepAt(seed uint64) *scenario.SweepSpec {
	return &scenario.SweepSpec{
		Name: "perfbench",
		Base: scenario.Spec{
			Algorithm: scenario.AlgoCCDS,
			Network:   scenario.NetworkSpec{N: 64},
			B:         512,
			Trials:    2,
			Seed:      seed,
		},
		Axes: scenario.SweepAxes{
			Algorithm: []string{scenario.AlgoCCDS, scenario.AlgoBaselineCCDS},
			GrayProb:  &scenario.Axis{Values: []float64{0.1, 0.3}},
			Adversary: []scenario.AdversarySpec{
				{Kind: scenario.AdvCollision},
				{Kind: scenario.AdvUniform, P: 0.3},
				{Kind: scenario.AdvNone},
			},
		},
	}
}

// probeSweepAt is the small sweep every traced run serves and replays, so
// the sweep and report layers are measured on every workload.
func probeSweepAt(seed uint64) *scenario.SweepSpec {
	return &scenario.SweepSpec{
		Name: "probe",
		Base: scenario.Spec{
			Algorithm:       scenario.AlgoMIS,
			Network:         scenario.NetworkSpec{N: 24},
			Trials:          2,
			StopWhenDecided: true,
			Seed:            seed,
		},
		Axes: scenario.SweepAxes{
			N:        &scenario.Axis{Values: []float64{16, 24}},
			GrayProb: &scenario.Axis{Values: []float64{0.1, 0.3}},
		},
	}
}

func presetRequests(base uint64) []request {
	var out []request
	for k, p := range scenario.Presets() {
		out = append(out, request{label: p.Name, spec: withSeed(p.Spec, base+uint64(k)*seedStride)})
	}
	return out
}

// probe is the traced run's fixed extra work: one job per shipped preset and
// one small sweep, at seeds drawn from the run's own range.
func probe(seed uint64) []request {
	base := runBase(seed) + probeBase
	reqs := presetRequests(base)
	return append(reqs, request{label: "probe", sweep: probeSweepAt(base + uint64(len(reqs))*seedStride)})
}

var workloads = map[string]*workload{
	"presets-cold": {
		name:    "presets-cold",
		workers: 1,
		clients: 1,
		tail:    0.90,
		minReqs: 120,
		prefix:  96,
		pass:    len(scenario.Presets()),
		block:   2 * len(scenario.Presets()),
		warm:    func() []request { return presetRequests(warmBase) },
		next: func(seed uint64, i int) request {
			presets := scenario.Presets()
			pass := i / len(presets)
			perm := rand.New(rand.NewPCG(seed, uint64(pass))).Perm(len(presets))
			p := presets[perm[i%len(presets)]]
			return request{label: p.Name, spec: withSeed(p.Spec, jobSeed(seed, i))}
		},
	},
	"served-hits": {
		name:    "served-hits",
		clients: 2,
		tail:    0.99,
		minReqs: 1200,
		prefix:  1000,
		pass:    1,
		block:   4000,
		warm: func() []request {
			out := make([]request, hotSetSize)
			for h := range out {
				out[h] = request{label: "hot", spec: withSeed(misQuick(), warmBase+uint64(h)*seedStride)}
			}
			return out
		},
		next: func(seed uint64, i int) request {
			r := rand.New(rand.NewPCG(seed, 1<<32+uint64(i)))
			if r.Float64() < freshShare {
				return request{label: "fresh", spec: withSeed(misQuick(), jobSeed(seed, i))}
			}
			h := r.IntN(hotSetSize)
			return request{label: "hot", spec: withSeed(misQuick(), warmBase+uint64(h)*seedStride)}
		},
	},
	"sweep-report": {
		name:    "sweep-report",
		clients: 1,
		tail:    0.90,
		minReqs: 100,
		prefix:  24,
		pass:    1,
		block:   10,
		warm:    func() []request { return []request{{label: "sweep", sweep: sweepAt(warmBase)}} },
		next: func(seed uint64, i int) request {
			return request{label: "sweep", sweep: sweepAt(jobSeed(seed, i))}
		},
	},
}

// workloadOrder is the order steadiness mode runs "all" in.
var workloadOrder = []string{"presets-cold", "served-hits", "sweep-report"}
