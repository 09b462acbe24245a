package sim_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualradio/internal/adversary"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// refReception computes the Section 2 reception rule naively: for each node,
// enumerate every broadcaster reachable through G or an active gray edge and
// apply the collision rule. This is the specification the optimized engine
// must match. A broadcaster learns nothing new (it hears only its own
// message), so it gets no Receive call, like a node that hears ⊥.
func refReception(net *dualgraph.Network, bcast []bool, activeGray map[int]bool) []int {
	n := net.N()
	gray := net.GrayEdges()
	out := make([]int, n) // 0 = no Receive call, otherwise 1-based index of the sender node
	for v := 0; v < n; v++ {
		if bcast[v] {
			continue
		}
		count, sender := 0, 0
		for u := 0; u < n; u++ {
			if !bcast[u] || u == v {
				continue
			}
			reach := net.G().HasEdge(u, v)
			if !reach {
				for idx, e := range gray {
					if activeGray[idx] && ((e[0] == u && e[1] == v) || (e[0] == v && e[1] == u)) {
						reach = true
						break
					}
				}
			}
			if reach {
				count++
				sender = u + 1
			}
		}
		if count == 1 {
			out[v] = sender
		}
	}
	return out
}

// recordingProc broadcasts per a random script and records, per round, the
// sender of its reception (0 = no Receive call, -1 = a nil message).
type recordingProc struct {
	node   int
	script []bool
	heard  []int
	limit  int
	round  int
}

func (p *recordingProc) Broadcast(round int) sim.Message {
	p.round++
	if round < len(p.script) && p.script[round] {
		return refMsg{from: p.node + 1}
	}
	return nil
}

type refMsg struct{ from int }

func (m refMsg) From() int    { return m.from }
func (m refMsg) BitSize() int { return 16 }

func (p *recordingProc) Receive(round int, msg sim.Message) {
	if msg == nil {
		p.heard[round] = -1
		return
	}
	p.heard[round] = msg.From()
}
func (p *recordingProc) Output() int { return 0 }
func (p *recordingProc) Done() bool  { return p.round >= p.limit }

// capturingAdversary wraps an inner adversary and records its choices so the
// reference model can replay them.
type capturingAdversary struct {
	inner adversary.Adversary
	log   []map[int]bool
}

func (c *capturingAdversary) Reach(round int, bcast []bool, broadcasters []int, relCnt, hitNodes []int32) []int {
	got := c.inner.Reach(round, bcast, broadcasters, relCnt, hitNodes)
	m := make(map[int]bool, len(got))
	for _, idx := range got {
		m[idx] = true
	}
	c.log = append(c.log, m)
	return got
}

// TestEngineMatchesReferenceModel drives the engine with random broadcast
// scripts and a random adversary, then replays every round through the
// naive specification and compares receptions exactly: every silent node
// gets the reference's message or no call, and no broadcaster gets a call.
func TestEngineMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xEF))
		n := 8 + rng.IntN(24)
		net, err := gen.RandomGeometric(gen.GeometricConfig{N: n, TargetDegree: 6}, rng)
		if err != nil {
			// Tiny sparse instances occasionally fail to connect.
			return true
		}
		rounds := 12
		procs := make([]sim.Process, n)
		recs := make([]*recordingProc, n)
		for v := 0; v < n; v++ {
			script := make([]bool, rounds)
			for r := range script {
				script[r] = rng.Float64() < 0.3
			}
			recs[v] = &recordingProc{node: v, script: script, heard: make([]int, rounds), limit: rounds}
			procs[v] = recs[v]
		}
		adv := &capturingAdversary{
			inner: adversary.NewUniformP(net, 0.5, rand.New(rand.NewPCG(seed, 2))),
		}
		runner, err := sim.NewRunner(sim.Config{
			Net:       net,
			Adversary: adv,
			Processes: procs,
			MaxRounds: rounds,
		})
		if err != nil {
			return false
		}
		if _, err := runner.Run(); err != nil {
			return false
		}
		// Replay.
		for r := 0; r < rounds; r++ {
			bcast := make([]bool, n)
			for v := 0; v < n; v++ {
				bcast[v] = recs[v].script[r]
			}
			want := refReception(net, bcast, adv.log[r])
			for v := 0; v < n; v++ {
				if recs[v].heard[r] != want[v] {
					t.Logf("seed=%d round=%d node=%d: engine heard %d, reference says %d",
						seed, r, v, recs[v].heard[r], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
