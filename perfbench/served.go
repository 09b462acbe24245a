package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"dualradio/internal/report"
	"dualradio/internal/scenario"
	"dualradio/internal/server"
)

// reportMetric is the metric every sweep's CSV report pivots.
const reportMetric = "mean_rounds"

// served is one finished client request.
type served struct {
	idx     int
	req     request
	latency time.Duration
	traced  bool
	err     error
	// jobs are the request's terminal job views with results, one for a
	// job and one per child for a sweep, in grid order.
	jobs []server.JobView
	// csv is a sweep's served report.
	csv string
}

// do runs one request against the daemon and checks what it served. The
// latency covers submit until the result (a job's full view, or a sweep's
// CSV report) is in hand; the checks that follow are outside it.
func (d *daemon) do(ctx context.Context, tr *tracer, r request) served {
	out := served{req: r}
	// The client derives what it expects before the clock starts.
	var (
		comp *scenario.Compiled
		exp  *scenario.Expansion
		body []byte
		err  error
	)
	if r.spec != nil {
		if comp, err = scenario.Compile(*r.spec); err == nil {
			body, err = json.Marshal(r.spec)
		}
	} else if exp, err = scenario.ExpandSweep(*r.sweep); err == nil {
		body, err = json.Marshal(r.sweep)
	}
	if err != nil {
		out.err = err
		return out
	}
	root := tr.start("request", 0)
	start := time.Now()
	if comp != nil {
		err = d.doJob(ctx, tr, root, comp, body, &out)
	} else {
		err = d.doSweep(ctx, tr, root, exp, body, start, &out)
	}
	if out.latency == 0 {
		out.latency = time.Since(start)
	}
	tr.end(root)
	out.err = err
	return out
}

func (d *daemon) doJob(ctx context.Context, tr *tracer, root int, comp *scenario.Compiled, body []byte, out *served) error {
	view, err := d.awaitJob(ctx, tr, root, body)
	if err != nil {
		return err
	}
	out.jobs = []server.JobView{view}
	return checkJob(view, comp)
}

// awaitJob submits a job and returns its full view once it is terminal.
func (d *daemon) awaitJob(ctx context.Context, tr *tracer, root int, body []byte) (server.JobView, error) {
	var view server.JobView
	if err := d.getJSON(ctx, tr, root, "http.submit", http.MethodPost, "/v1/jobs", body, &view); err != nil {
		return view, err
	}
	id := url.PathEscape(view.ID)
	if view.Status != server.StatusDone {
		// The event stream ends after the job's terminal event.
		if _, err := d.call(ctx, tr, root, "http.events", http.MethodGet, "/v1/jobs/"+id+"/events", nil); err != nil {
			return view, err
		}
	}
	err := d.getJSON(ctx, tr, root, "http.get_job", http.MethodGet, "/v1/jobs/"+id, nil, &view)
	return view, err
}

// checkJob holds a served job to its spec: done, keyed by the canonical hash
// the client computes, with every trial present in order.
func checkJob(v server.JobView, comp *scenario.Compiled) error {
	if v.Status != server.StatusDone {
		return fmt.Errorf("job %s: status %s %s", v.ID, v.Status, v.Error)
	}
	if v.SpecHash != comp.Hash() {
		return fmt.Errorf("job %s: spec_hash %s, client computed %s", v.ID, v.SpecHash, comp.Hash())
	}
	res := v.Result
	if res == nil {
		return fmt.Errorf("job %s: done without a result", v.ID)
	}
	if res.SpecHash != comp.Hash() {
		return fmt.Errorf("job %s: result keyed %s, want %s", v.ID, res.SpecHash, comp.Hash())
	}
	n := comp.Trials()
	if len(res.Trials) != n || res.Aggregate.Trials != n {
		return fmt.Errorf("job %s: %d trials (aggregate %d), want %d", v.ID, len(res.Trials), res.Aggregate.Trials, n)
	}
	for i, t := range res.Trials {
		if t.Trial != i || t.Seed != comp.TrialSeed(i) {
			return fmt.Errorf("job %s: trial %d has index %d seed %d", v.ID, i, t.Trial, t.Seed)
		}
	}
	if scenario.AggregateTrials(res.Trials) != res.Aggregate {
		return fmt.Errorf("job %s: aggregate does not reduce its trials", v.ID)
	}
	return nil
}

func (d *daemon) doSweep(ctx context.Context, tr *tracer, root int, exp *scenario.Expansion, body []byte, start time.Time, out *served) error {
	var view server.SweepView
	if err := d.getJSON(ctx, tr, root, "http.submit", http.MethodPost, "/v1/sweeps", body, &view); err != nil {
		return err
	}
	id := url.PathEscape(view.ID)
	if _, err := d.call(ctx, tr, root, "http.events", http.MethodGet, "/v1/sweeps/"+id+"/events", nil); err != nil {
		return err
	}
	csv, err := d.call(ctx, tr, root, "http.get_report", http.MethodGet,
		"/v1/sweeps/"+id+"/report?format=csv&metric="+reportMetric, nil)
	if err != nil {
		return err
	}
	out.latency = time.Since(start)
	out.csv = string(csv)

	if view.SweepHash != exp.Hash() || len(view.Children) != len(exp.Children) {
		return fmt.Errorf("sweep %s: hash %s with %d children, client expanded %s with %d",
			view.ID, view.SweepHash, len(view.Children), exp.Hash(), len(exp.Children))
	}
	aggs := make([]scenario.Aggregate, len(exp.Children))
	for i, c := range view.Children {
		var jv server.JobView
		if err := d.getJSON(ctx, tr, root, "http.get_job", http.MethodGet, "/v1/jobs/"+url.PathEscape(c.ID), nil, &jv); err != nil {
			return err
		}
		out.jobs = append(out.jobs, jv)
		if err := checkJob(jv, exp.Children[i]); err != nil {
			return fmt.Errorf("sweep %s: %w", view.ID, err)
		}
		aggs[i] = jv.Result.Aggregate
	}
	rep, err := report.Build(exp, aggs, report.Options{Metric: reportMetric})
	if err != nil {
		return err
	}
	if rep.CSV() != out.csv {
		return fmt.Errorf("sweep %s: served CSV differs from the report of its children", view.ID)
	}
	return nil
}

// traceEvery is how often a traced run traces a request: every second one,
// so the untraced half beside it gives the overhead baseline.
const traceEvery = 2

// phase is the outcome of a closed-loop run over a workload's request list.
type phase struct {
	results []served
	// marks are taken at the start, each time a whole block of w.block
	// requests has been handed out, and at the end.
	marks []mark
}

// mark is a point of a closed-loop run: time since its start, the daemon's
// CPU time so far, and the jobs completed so far.
type mark struct {
	at, cpu time.Duration
	jobs    int
}

// minBlocks is how many whole blocks a run needs before its rates are
// medians over blocks; a shorter run reports its whole-run rates.
const minBlocks = 3

// rates returns jobs per second and daemon CPU time per job: the median
// over the run's whole blocks, so a burst of host noise in a few seconds of
// the run moves neither, or over the whole run when it has fewer than
// minBlocks blocks.
func (ph phase) rates() (jobsPerS, cpuPerJob float64) {
	ms := ph.marks[:len(ph.marks)-1]
	if len(ms) <= minBlocks {
		ms = []mark{ph.marks[0], ph.marks[len(ph.marks)-1]}
	}
	var tput, cpu []float64
	for k := 1; k < len(ms); k++ {
		jobs := float64(ms[k].jobs - ms[k-1].jobs)
		tput = append(tput, jobs/(ms[k].at-ms[k-1].at).Seconds())
		cpu = append(cpu, ratio(float64(ms[k].cpu-ms[k-1].cpu), jobs))
	}
	jobsPerS, _ = percentile(tput, 0.5)
	cpuPerJob, _ = percentile(cpu, 0.5)
	return jobsPerS, cpuPerJob
}

// closedLoop drives the daemon from w.clients connections, each sending its
// next request only after the previous one completed. Requests are taken in
// list order from next. Once dur has passed and at least w.minReqs requests
// were issued, it stops issuing at the next whole pass (or at once at the
// hard cap) and waits for the requests in flight. It marks the run at every
// block boundary (see phase). With a tracer, every
// traceEvery-th request is traced (the rest measure the untraced latency
// beside them).
func closedLoop(ctx context.Context, d *daemon, w *workload, next func(i int) request,
	dur, hardCap time.Duration, tr *tracer) (phase, error) {
	var (
		mu      sync.Mutex
		results []served
		marks   []mark
		issued  int
		done    int
		cpuErr  error
		wg      sync.WaitGroup
	)
	start := time.Now()
	// markNow records a mark; the caller holds mu.
	markNow := func() {
		c, err := d.cpu()
		cpuErr = errors.Join(cpuErr, err)
		marks = append(marks, mark{at: time.Since(start), cpu: c, jobs: done})
	}
	markNow()
	// take hands out the next request index, or false once the phase is over.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		if el >= hardCap || (el >= dur && issued >= w.minReqs && issued%w.pass == 0) {
			return 0, false
		}
		if issued > 0 && issued%w.block == 0 {
			markNow()
		}
		issued++
		return issued - 1, true
	}
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := take()
				if !ok {
					return
				}
				var t *tracer
				if i%traceEvery == 0 {
					t = tr
				}
				res := d.do(ctx, t, next(i))
				res.idx, res.traced = i, t != nil
				mu.Lock()
				results = append(results, res)
				done += len(res.jobs)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	markNow()
	if err := errors.Join(ctx.Err(), cpuErr); err != nil {
		return phase{}, err
	}
	return phase{results: results, marks: marks}, nil
}

// runAll serves reqs from clients connections without timing them: the warm
// pass and the traced probe. Any failure is returned.
func runAll(ctx context.Context, d *daemon, clients int, reqs []request, tr *tracer) ([]served, error) {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				out[i] = d.do(ctx, tr, reqs[i])
				out[i].idx = i
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var errs []error
	for _, r := range out {
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}
	return out, errors.Join(errs...)
}
