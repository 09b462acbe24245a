// Package harness assembles complete executions: it wires a network,
// process-id assignment, link detectors, an adversary, and per-process
// randomness into a sim.Runner for each of the paper's algorithms, and
// gathers the outcomes into verification-ready form. The public dualradio
// facade, the test suites, and the experiment harness all build on it.
package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/graph"
	"dualradio/internal/sim"
)

// Scenario bundles everything an execution needs besides the algorithm.
type Scenario struct {
	Net *dualgraph.Network
	Asg *dualgraph.Assignment
	Det *detector.Detector
	Adv adversary.Adversary // nil = no unreliable activations
	// Params holds the algorithms' constant factors; zero value means
	// core.DefaultParams.
	Params core.Params
	// Seed derives every process's private randomness stream.
	Seed uint64
	// B is the message-size bound in bits (0 = unbounded for MIS;
	// CCDS algorithms require a positive bound).
	B int
	// MaxRounds caps executions that have no fixed length.
	MaxRounds int
	// StopWhenDecided ends fixed-schedule executions as soon as every
	// process has output 0 or 1 instead of driving the full schedule.
	// Outputs are frozen from that point on (decisions never revert), so
	// experiments that only consume Outputs and DecidedRound — decision
	// latency, validity, density — see identical results at a fraction of
	// the simulated rounds. Stats that keep accumulating over the full
	// schedule (Rounds, Broadcasts, ...) do differ; leave this off when
	// those matter.
	StopWhenDecided bool
	// Observer, if non-nil, receives per-round callbacks.
	Observer sim.Observer
	// Shared, if non-nil, is the cached instance backing Net/Asg/Det.
	// Scenario.H consults it so derived immutable state (the graph H) is
	// computed once per instance instead of once per trial.
	Shared *Instance
}

// H returns the Section 3 graph H for the scenario's network, assignment,
// and detector — memoized on the shared instance when one backs this
// scenario unchanged, rebuilt otherwise (e.g. after a test swaps Det).
func (s *Scenario) H() *graph.Graph {
	if s.Shared != nil && s.Shared.Det == s.Det &&
		s.Shared.Net == s.Net && s.Shared.Asg == s.Asg {
		return s.Shared.H()
	}
	return detector.BuildH(s.Net, s.Asg, s.Det)
}

func (s *Scenario) params() core.Params {
	if s.Params == (core.Params{}) {
		return core.DefaultParams()
	}
	return s.Params
}

// RngFor returns the deterministic private randomness stream of the process
// at node v (keyed by its process id, so the stream is stable under
// re-assignment of processes to nodes).
func (s *Scenario) RngFor(v int) *rand.Rand {
	id := uint64(s.Asg.ID(v))
	return rand.New(rand.NewPCG(s.Seed, id*0x9e3779b97f4a7c15+0x1234567))
}

func (s *Scenario) validate() error {
	if s.Net == nil {
		return errors.New("harness: nil network")
	}
	if s.Asg == nil {
		return errors.New("harness: nil assignment")
	}
	if s.Asg.N() != s.Net.N() {
		return fmt.Errorf("harness: assignment covers %d nodes, network has %d", s.Asg.N(), s.Net.N())
	}
	return nil
}

// validateCCDS is validate plus the positive message bound every CCDS
// algorithm needs.
func (s *Scenario) validateCCDS() error {
	if err := s.validate(); err != nil {
		return err
	}
	if s.B <= 0 {
		return errors.New("harness: CCDS requires a positive message bound B")
	}
	return nil
}

func (s *Scenario) detSet(v int) *detector.Set {
	if s.Det == nil {
		return nil
	}
	return s.Det.Set(v)
}

// Outcome captures an execution's results in node order.
type Outcome struct {
	// Outputs holds each node's output (sim.Undecided, 0, or 1).
	Outputs []int
	// InMIS flags the nodes whose process joined the MIS (or the
	// dominating structure, for the τ algorithm).
	InMIS []bool
	// Rounds is the number of rounds executed.
	Rounds int
	// DecidedRound is the first round by which every process had decided,
	// or -1 if some never did.
	DecidedRound int
	// Stats carries the engine counters.
	Stats sim.Stats
	// Err records a fatal execution error (message-size violation).
	Err error
}

func collect(r *sim.Runner, inMIS func(p sim.Process) bool) *Outcome {
	procs := r.Processes()
	out := &Outcome{
		Outputs: make([]int, len(procs)),
		InMIS:   make([]bool, len(procs)),
	}
	for v, p := range procs {
		out.Outputs[v] = p.Output()
		out.InMIS[v] = inMIS(p)
	}
	st := r.Stats()
	out.Rounds = st.Rounds
	out.DecidedRound = st.DecidedRound
	out.Stats = st
	out.Err = r.Err()
	return out
}

// newRunner wires procs into a runner over the scenario's network,
// adversary, message bound and observer.
func (s *Scenario) newRunner(procs []sim.Process, maxRounds int) (*sim.Runner, error) {
	return sim.NewRunner(sim.Config{
		Net:         s.Net,
		Adversary:   s.Adv,
		Processes:   procs,
		MessageBits: s.B,
		MaxRounds:   maxRounds,
		Observer:    s.Observer,
	})
}

func (s *Scenario) run(procs []sim.Process, maxRounds int) (*sim.Runner, error) {
	runner, err := s.newRunner(procs, maxRounds)
	if err != nil {
		return nil, err
	}
	if s.StopWhenDecided {
		_, err = runner.RunUntil(runner.AllDecided)
	} else {
		_, err = runner.Run()
	}
	return runner, err
}

// RunMIS executes the Section 4 MIS algorithm with 0-complete-style
// detector filtering.
func (s *Scenario) RunMIS() (*Outcome, error) {
	return s.RunMISFiltered(core.FilterDetector)
}

// RunMISFiltered executes the Section 4 MIS algorithm with an explicit
// reception filter (FilterNone reproduces the classic-model variant).
func (s *Scenario) RunMISFiltered(filter core.FilterMode) (*Outcome, error) {
	return runFixed(s, func(v int) (*core.MISProcess, error) {
		return core.NewMISProcess(core.MISConfig{
			ID:       s.Asg.ID(v),
			N:        s.Net.N(),
			Detector: s.detSet(v),
			Filter:   filter,
			// Mutual filtering needs the sender's detector set on the
			// wire (the Section 6 labeling rule).
			LabelMessages: filter == core.FilterMutual,
			Params:        s.params(),
			Rng:           s.RngFor(v),
		})
	}, (*core.MISProcess).InMIS)
}

// RunCCDS executes the Section 5 banned-list CCDS algorithm.
func (s *Scenario) RunCCDS() (*Outcome, error) {
	return runCCDS(s, core.NewCCDSProcess, (*core.CCDSProcess).InMIS)
}

// RunBaselineCCDS executes the naive enumeration CCDS used as the Section 5
// comparison point.
func (s *Scenario) RunBaselineCCDS() (*Outcome, error) {
	return runCCDS(s, core.NewBaselineCCDSProcess, (*core.BaselineCCDSProcess).InMIS)
}

// RunTauCCDS executes the Section 6 CCDS algorithm for τ-complete detectors.
func (s *Scenario) RunTauCCDS(tau int) (*Outcome, error) {
	return runCCDS(s, func(c core.CCDSConfig) (*core.TauCCDSProcess, error) {
		return core.NewTauCCDSProcess(c, tau)
	}, (*core.TauCCDSProcess).Dominator)
}

// fixedProc is a process with a fixed schedule length.
type fixedProc interface {
	sim.Process
	Rounds() int
}

// runCCDS runs a CCDS algorithm through runFixed, building node v's process
// with mk from its configuration.
func runCCDS[P fixedProc](s *Scenario, mk func(core.CCDSConfig) (P, error), member func(P) bool) (*Outcome, error) {
	if err := s.validateCCDS(); err != nil {
		return nil, err
	}
	delta := s.Net.Delta()
	return runFixed(s, func(v int) (P, error) {
		return mk(core.CCDSConfig{
			ID:       s.Asg.ID(v),
			N:        s.Net.N(),
			Delta:    delta,
			B:        s.B,
			Detector: s.detSet(v),
			Params:   s.params(),
			Rng:      s.RngFor(v),
		})
	}, member)
}

// runFixed builds node v's fixed-schedule process with mk, runs the
// processes (capped just past the schedule unless MaxRounds is set), and
// collects the outcome with member deciding InMIS.
func runFixed[P fixedProc](s *Scenario, mk func(v int) (P, error), member func(P) bool) (*Outcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	procs := make([]sim.Process, s.Net.N())
	var total int
	for v := range procs {
		p, err := mk(v)
		if err != nil {
			return nil, err
		}
		procs[v] = p
		total = p.Rounds()
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = total + 1
	}
	runner, err := s.run(procs, maxRounds)
	if err != nil {
		return nil, err
	}
	return collect(runner, func(p sim.Process) bool { return member(p.(P)) }), nil
}

// RunAsyncMIS executes the Section 9 asynchronous-start MIS variant. wake
// gives each node's wake-up round; filter selects topology knowledge
// (FilterNone for the classic model). The execution stops once every process
// has decided or MaxRounds elapse.
func (s *Scenario) RunAsyncMIS(wake []int, filter core.FilterMode) (*AsyncOutcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.Net.N()
	if len(wake) != n {
		return nil, fmt.Errorf("harness: %d wake rounds for %d nodes", len(wake), n)
	}
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		p, err := core.NewAsyncMISProcess(core.MISConfig{
			ID:       s.Asg.ID(v),
			N:        n,
			Detector: s.detSet(v),
			Filter:   filter,
			Params:   s.params(),
			Rng:      s.RngFor(v),
		}, wake[v])
		if err != nil {
			return nil, err
		}
		procs[v] = p
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	runner, err := s.newRunner(procs, maxRounds)
	if err != nil {
		return nil, err
	}
	// The runner tracks decisions incrementally, so the stop condition is
	// O(1) per round instead of an O(n) scan.
	if _, err := runner.RunUntil(runner.AllDecided); err != nil {
		return nil, err
	}
	base := collect(runner, func(p sim.Process) bool {
		return p.(*core.AsyncMISProcess).InMIS()
	})
	out := &AsyncOutcome{Outcome: *base, Latency: make([]int, n)}
	for v, p := range procs {
		out.Latency[v] = p.(*core.AsyncMISProcess).DecisionLatency()
	}
	return out, nil
}

// AsyncOutcome extends Outcome with per-process decision latencies (local
// rounds from wake-up to output), the quantity Theorem 9.4 bounds.
type AsyncOutcome struct {
	Outcome
	Latency []int
}
