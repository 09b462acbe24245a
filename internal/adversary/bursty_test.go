package adversary_test

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
)

func TestBurstyActivationFractionTracksDuty(t *testing.T) {
	net := lineNet(t)
	rng := rand.New(rand.NewPCG(1, 1))
	// Mean up 9, mean down 1: edges should be active ~90% of broadcasting
	// rounds; and the reverse for 1/9.
	measure := func(up, down float64) float64 {
		a := adversary.NewBursty(net, up, down, rng)
		bcast := []bool{true, true, true, true}
		active := 0
		rounds := 4000
		for r := 0; r < rounds; r++ {
			active += len(reach(net, a, r, bcast))
		}
		return float64(active) / float64(rounds*len(net.GrayEdges()))
	}
	high := measure(9, 1)
	low := measure(1, 9)
	if high < 0.7 || high > 1 {
		t.Errorf("high duty fraction = %.2f, want ≈ 0.9", high)
	}
	if low > 0.3 {
		t.Errorf("low duty fraction = %.2f, want ≈ 0.1", low)
	}
	if low >= high {
		t.Error("duty cycle has no effect")
	}
}

func TestBurstyOnlyTouchesBroadcastIncidentEdges(t *testing.T) {
	net := lineNet(t)
	a := adversary.NewBursty(net, 5, 5, rand.New(rand.NewPCG(2, 2)))
	quiet := []bool{false, false, false, false}
	for r := 0; r < 100; r++ {
		if got := reach(net, a, r, quiet); len(got) != 0 {
			t.Fatalf("activated %v with no broadcasters", got)
		}
	}
}

func TestTargetedJamsOnlyVictim(t *testing.T) {
	net := lineNet(t) // gray edges (0,2) and (1,3)
	a := adversary.NewTargeted(net, 1)
	// Node 0 broadcasts (unique delivery to victim 1), node 3 also
	// broadcasts and owns gray edge (1,3): the adversary jams.
	got := reach(net, a, 0, []bool{true, false, false, true})
	if len(got) != 1 {
		t.Fatalf("activations = %v", got)
	}
	if e := net.GrayEdges()[got[0]]; e != [2]int{1, 3} {
		t.Errorf("activated %v, want (1,3)", e)
	}
	// A delivery to a non-victim is left alone.
	if got := reach(net, a, 1, []bool{false, false, false, true}); len(got) != 0 {
		t.Errorf("jammed a non-victim: %v", got)
	}
	// The victim broadcasting itself is not jammed (it hears itself).
	if got := reach(net, a, 2, []bool{true, true, false, true}); len(got) != 0 {
		t.Errorf("jammed a broadcasting victim: %v", got)
	}
}
