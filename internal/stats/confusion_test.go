package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionProbSumsToOne(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	c.Add(2, 1)
	for pred := 0; pred < 3; pred++ {
		sum := 0.0
		for truth := 0; truth < 3; truth++ {
			sum += c.ProbTrueGivenPred(truth, pred)
		}
		if !almostEq(sum, 1, 1e-12) {
			t.Errorf("P(.|pred=%d) sums to %v", pred, sum)
		}
	}
}

func TestConfusionSmoothingKeepsSurprisalFinite(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0) // never observed truth=2 with pred=0
	s := c.Surprisal(2, 0)
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("unseen combination surprisal = %v, want finite", s)
	}
	if s <= c.Surprisal(0, 0) {
		t.Error("unseen combination should be more surprising than the seen one")
	}
}

func TestConfusionAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Add did not panic")
		}
	}()
	NewConfusion(2).Add(2, 0)
}

func TestConfusionProbProperty(t *testing.T) {
	// Property: probabilities in (0,1) and columns normalize for random fills.
	f := func(pairs []uint8) bool {
		c := NewConfusion(4)
		for _, p := range pairs {
			c.Add(int(p)%4, int(p>>4)%4)
		}
		for pred := 0; pred < 4; pred++ {
			sum := 0.0
			for truth := 0; truth < 4; truth++ {
				pr := c.ProbTrueGivenPred(truth, pred)
				if pr <= 0 || pr >= 1 {
					return false
				}
				sum += pr
			}
			if !almostEq(sum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
