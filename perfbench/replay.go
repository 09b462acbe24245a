package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"dualradio/internal/core"
	"dualradio/internal/harness"
	"dualradio/internal/report"
	"dualradio/internal/scenario"
	"dualradio/internal/store"
	"dualradio/internal/verify"
)

// replayer re-executes served requests in process, one public call per
// layer, so each layer's time shows as its own span. It mirrors what radiod
// does for a job: compile, look the hash up in the store, and on a miss
// build the instance, run each trial's engine and verifier, reduce and
// persist.
type replayer struct {
	tr    *tracer
	store *store.Store

	// Exact counts over every replayed trial. rounds covers all trials; the
	// staged counters cover the trials with a public stage split (every
	// algorithm but async-mis and continuous-ccds).
	trials, instances           int
	rounds, stagedRounds        int64
	broadcasts, deliveries      int64
	collisions, grayActivations int64
	engineNS                    int64 // staged trials only
	enginePerLabel              map[string]*labelTime
	entryBytes                  []float64
	digest                      hash.Hash
	seen                        map[harness.InstanceSpec]bool
}

// labelTime is engine time per trial for one request label.
type labelTime struct {
	ms     float64
	trials int
}

func newReplayer(tr *tracer, st *store.Store) *replayer {
	return &replayer{tr: tr, store: st, enginePerLabel: map[string]*labelTime{}, digest: sha256.New()}
}

// request replays one served request and checks that every decomposed
// result equals the served one exactly.
func (r *replayer) request(s served) error {
	r.seen = map[harness.InstanceSpec]bool{}
	root := r.tr.start("replay.request", 0)
	defer r.tr.end(root)
	if s.req.spec != nil {
		body, err := json.Marshal(s.req.spec)
		if err != nil {
			return err
		}
		return r.job(root, s.req.label, body, s.jobs[0].Result)
	}
	id := r.tr.start("scenario.expand", root)
	exp, err := scenario.ExpandSweep(*s.req.sweep)
	r.tr.end(id)
	if err != nil {
		return err
	}
	aggs := make([]scenario.Aggregate, len(exp.Children))
	for i, c := range exp.Children {
		body, err := json.Marshal(c.Spec())
		if err != nil {
			return err
		}
		if err := r.job(root, s.req.label, body, s.jobs[i].Result); err != nil {
			return err
		}
		aggs[i] = s.jobs[i].Result.Aggregate
	}
	id = r.tr.start("report.build", root)
	rep, err := report.Build(exp, aggs, report.Options{Metric: reportMetric})
	var csv string
	if err == nil {
		csv = rep.CSV()
	}
	r.tr.end(id)
	if err != nil {
		return err
	}
	if csv != s.csv {
		return fmt.Errorf("replayed report of sweep %s differs from the served CSV", exp.Hash())
	}
	return nil
}

// job replays one spec and compares it with the served result want.
func (r *replayer) job(parent int, label string, body []byte, want *scenario.Result) error {
	job := r.tr.start("replay.job", parent)
	defer r.tr.end(job)

	id := r.tr.start("scenario.compile", job)
	spec, err := scenario.ParseSpec(body)
	var comp *scenario.Compiled
	if err == nil {
		comp, err = scenario.Compile(spec)
	}
	r.tr.end(id)
	if err != nil {
		return err
	}

	id = r.tr.start("store.get", job)
	data, hit, err := r.store.Get(comp.Hash())
	r.tr.end(id)
	if err != nil {
		return err
	}
	if hit {
		// A repeat: radiod serves it from its cache or store, so the
		// replay decodes the stored entry instead of simulating again.
		id = r.tr.start("store.decode", job)
		var got scenario.Result
		err := json.Unmarshal(data, &got)
		r.tr.end(id)
		if err != nil {
			return err
		}
		return sameResult(&got, want)
	}

	trials := make([]scenario.TrialResult, comp.Trials())
	for i := range trials {
		if trials[i], err = r.trial(job, label, comp, i); err != nil {
			return err
		}
	}
	id = r.tr.start("scenario.reduce", job)
	red := scenario.NewReducer()
	for _, t := range trials {
		red.Add(t)
	}
	agg := red.Aggregate()
	r.tr.end(id)
	got := &scenario.Result{
		SpecHash:  comp.Hash(),
		Algorithm: comp.Spec().Algorithm,
		N:         comp.Spec().Network.N,
		Trials:    trials,
		Aggregate: agg,
	}
	if err := sameResult(got, want); err != nil {
		return err
	}

	id = r.tr.start("store.put", job)
	data, err = json.Marshal(got)
	if err == nil {
		err = r.store.Put(comp.Hash(), data)
	}
	r.tr.end(id)
	r.entryBytes = append(r.entryBytes, float64(len(data)))
	return err
}

// sameResult requires got to equal the served result, trial by trial and
// byte for byte.
func sameResult(got, want *scenario.Result) error {
	if want == nil {
		return fmt.Errorf("replay of %s: no served result to compare", got.SpecHash)
	}
	if len(got.Trials) != len(want.Trials) {
		return fmt.Errorf("replay of %s: %d trials, served %d", got.SpecHash, len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i] != want.Trials[i] {
			return fmt.Errorf("replay of %s: trial %d is %+v, served %+v", got.SpecHash, i, got.Trials[i], want.Trials[i])
		}
	}
	a, err1 := json.Marshal(got)
	b, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		return fmt.Errorf("replay of %s: result bytes differ from the served result", got.SpecHash)
	}
	return nil
}

// trial runs one trial stage by stage, as Compiled.RunTrial does.
func (r *replayer) trial(job int, label string, comp *scenario.Compiled, i int) (scenario.TrialResult, error) {
	sp := comp.Spec()
	seed := comp.TrialSeed(i)
	res := scenario.TrialResult{Trial: i, Seed: seed, DecidedRound: -1}
	tid := r.tr.start("replay.trial", job)
	defer r.tr.end(tid)

	is := harness.InstanceSpec{
		N:            sp.Network.N,
		TargetDegree: sp.Network.TargetDegree,
		GrayProb:     sp.Network.GrayProb,
		Tau:          sp.Network.Tau,
		Seed:         seed,
	}
	if !r.seen[is] {
		// The first trial with this instance builds it; Compiled.Scenario
		// then finds it in the shared instance cache, as in radiod.
		r.seen[is] = true
		r.instances++
		id := r.tr.start("harness.instance", tid)
		_, err := harness.SharedInstance(is)
		r.tr.end(id)
		if err != nil {
			return res, err
		}
	}

	lt := r.enginePerLabel[label]
	if lt == nil {
		lt = &labelTime{}
		r.enginePerLabel[label] = lt
	}
	r.trials++
	lt.trials++

	if sp.Algorithm == scenario.AlgoAsyncMIS || sp.Algorithm == scenario.AlgoContinuousCCDS {
		// No public stage split: engine and verification run together.
		t0 := time.Now()
		id := r.tr.start("sim.engine+verify", tid)
		out, err := comp.RunTrial(i)
		r.tr.end(id)
		lt.ms += float64(time.Since(t0)) / float64(time.Millisecond)
		r.rounds += int64(out.Rounds)
		r.hashTrial(out)
		return out, err
	}

	id := r.tr.start("harness.scenario", tid)
	s, err := comp.Scenario(i)
	r.tr.end(id)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	id = r.tr.start("sim.engine", tid)
	var out *harness.Outcome
	switch sp.Algorithm {
	case scenario.AlgoMIS:
		out, err = s.RunMISFiltered(core.FilterDetector)
	case scenario.AlgoMISClassic:
		out, err = s.RunMISFiltered(core.FilterNone)
	case scenario.AlgoCCDS:
		out, err = s.RunCCDS()
	case scenario.AlgoBaselineCCDS:
		out, err = s.RunBaselineCCDS()
	case scenario.AlgoTauCCDS:
		out, err = s.RunTauCCDS(sp.Network.Tau)
	default:
		err = fmt.Errorf("replay: unknown algorithm %q", sp.Algorithm)
	}
	r.tr.end(id)
	engine := time.Since(t0)
	if err != nil {
		return res, err
	}
	lt.ms += float64(engine) / float64(time.Millisecond)
	r.engineNS += engine.Nanoseconds()

	res.Rounds = out.Rounds
	res.DecidedRound = out.DecidedRound
	for _, in := range out.InMIS {
		if in {
			res.Size++
		}
	}
	id = r.tr.start("verify", tid)
	if sp.Algorithm == scenario.AlgoMIS || sp.Algorithm == scenario.AlgoMISClassic {
		res.Valid = verify.MIS(s.Net, s.H(), out.Outputs).OK()
	} else {
		res.Valid = verify.CCDS(s.Net, s.H(), out.Outputs, 0).OK()
	}
	r.tr.end(id)

	r.rounds += int64(out.Stats.Rounds)
	r.stagedRounds += int64(out.Stats.Rounds)
	r.broadcasts += int64(out.Stats.Broadcasts)
	r.deliveries += int64(out.Stats.Deliveries)
	r.collisions += int64(out.Stats.Collisions)
	r.grayActivations += int64(out.Stats.GrayActivations)
	r.hashTrial(res)
	return res, nil
}

func (r *replayer) hashTrial(t scenario.TrialResult) {
	data, _ := json.Marshal(t) // a TrialResult always encodes
	r.digest.Write(data)
}
