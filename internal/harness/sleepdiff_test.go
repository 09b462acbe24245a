package harness

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/sim"
)

// plainOnly hides a process's BroadcastSleep method from the engine,
// forcing the call-every-round discipline while preserving the fixed-length
// contract.
type plainOnly struct{ inner sim.Process }

func (p plainOnly) Broadcast(r int) sim.Message  { return p.inner.Broadcast(r) }
func (p plainOnly) Receive(r int, m sim.Message) { p.inner.Receive(r, m) }
func (p plainOnly) Output() int                  { return p.inner.Output() }
func (p plainOnly) Done() bool                   { return p.inner.Done() }
func (p plainOnly) Rounds() int                  { return p.inner.(interface{ Rounds() int }).Rounds() }

// bcastLog records each round's broadcaster set.
type bcastLog struct{ rounds [][]int }

func (l *bcastLog) OnRound(round int, broadcasters []int, _ []sim.Delivery) {
	l.rounds = append(l.rounds, append([]int(nil), broadcasters...))
}

// runFleet drives a fleet to completion and returns outputs + the log.
func runFleet(t *testing.T, inst *Instance, procs []sim.Process, b int) ([]int, *bcastLog) {
	t.Helper()
	log := &bcastLog{}
	r, err := sim.NewRunner(sim.Config{
		Net:         inst.Net,
		Adversary:   adversary.NewCollisionSeeking(inst.Net),
		Processes:   procs,
		MessageBits: b,
		Observer:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, len(procs))
	for v, p := range procs {
		outs[v] = p.Output()
	}
	return outs, log
}

func procRng(seed uint64, id int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(id)*0x9e3779b97f4a7c15+0x1234567))
}

// TestSleepEquivalenceTauAndBaseline locks the SleepBroadcaster paths of
// the enumeration-based processes to the plain call-every-round discipline:
// identical seeds must yield identical broadcaster sets every round and
// identical outputs, whether or not the engine skips sleeping processes.
func TestSleepEquivalenceTauAndBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		tau  int
		make func(cfg core.CCDSConfig) (sim.Process, error)
	}{
		{"baseline", 0, func(cfg core.CCDSConfig) (sim.Process, error) {
			return core.NewBaselineCCDSProcess(cfg)
		}},
		{"tau1", 1, func(cfg core.CCDSConfig) (sim.Process, error) {
			return core.NewTauCCDSProcess(cfg, 1)
		}},
		{"tau2", 2, func(cfg core.CCDSConfig) (sim.Process, error) {
			return core.NewTauCCDSProcess(cfg, 2)
		}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				inst, err := BuildInstance(InstanceSpec{N: 64, Tau: tc.tau, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				n := inst.Net.N()
				const b = 1 << 16
				build := func(plain bool) []sim.Process {
					procs := make([]sim.Process, n)
					for v := 0; v < n; v++ {
						p, err := tc.make(core.CCDSConfig{
							ID:       inst.Asg.ID(v),
							N:        n,
							Delta:    inst.Net.Delta(),
							B:        b,
							Detector: inst.Det.Set(v),
							Params:   core.DefaultParams(),
							Rng:      procRng(seed, inst.Asg.ID(v)),
						})
						if err != nil {
							t.Fatal(err)
						}
						if plain {
							procs[v] = plainOnly{inner: p}
						} else {
							procs[v] = p
						}
					}
					return procs
				}
				sleepOuts, sleepLog := runFleet(t, inst, build(false), b)
				plainOuts, plainLog := runFleet(t, inst, build(true), b)
				if len(sleepLog.rounds) != len(plainLog.rounds) {
					t.Fatalf("round counts differ: sleep %d vs plain %d",
						len(sleepLog.rounds), len(plainLog.rounds))
				}
				for r := range plainLog.rounds {
					sr, pr := sleepLog.rounds[r], plainLog.rounds[r]
					if len(sr) != len(pr) {
						t.Fatalf("round %d: broadcasters differ: sleep %v vs plain %v", r, sr, pr)
					}
					for i := range sr {
						if sr[i] != pr[i] {
							t.Fatalf("round %d: broadcasters differ: sleep %v vs plain %v", r, sr, pr)
						}
					}
				}
				for v := range plainOuts {
					if sleepOuts[v] != plainOuts[v] {
						t.Fatalf("node %d: output %d (sleep) vs %d (plain)", v, sleepOuts[v], plainOuts[v])
					}
				}
			})
		}
	}
}
