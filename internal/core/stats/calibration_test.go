package stats_test

import (
	"math"
	"testing"

	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/stats"
)

// falseConviction returns the exact probability that the runner convicts
// one instance of a uniformly flaky test: every trial, heterogeneous or
// homogeneous, fails independently with probability q, so any conviction
// is a false one. It follows runner.RunAssignmentIn's loop: a gate round
// of 1 heterogeneous and 2 homogeneous trials that continues only when
// the heterogeneous trial fails and both homogeneous trials pass, then up
// to runner.DefaultMaxRounds looks of 1 + 2 trials each, stopping at the
// first look that convicts or gives up. The state after a look is the
// cumulative (heterogeneous failures, homogeneous failures); the
// dynamic program carries the probability of each undecided state
// forward, so no path is sampled.
func falseConviction(mode stats.SeqMode, q float64) float64 {
	const homoPerLook = 2
	looks := runner.DefaultMaxRounds
	seq := stats.NewSeqTest(mode, stats.DefaultSignificance, looks, homoPerLook)
	homoFails := [homoPerLook + 1]float64{(1 - q) * (1 - q), 2 * q * (1 - q), q * q}

	// live[h][g]: probability of reaching this look undecided with h
	// heterogeneous and g homogeneous failures so far.
	live := make([][]float64, looks+2)
	for h := range live {
		live[h] = make([]float64, homoPerLook*(looks+1)+1)
	}
	live[1][0] = q * homoFails[0] // the first-trial signal
	convicted := 0.0
	for look := 1; look <= looks; look++ {
		next := make([][]float64, len(live))
		for h := range next {
			next[h] = make([]float64, len(live[h]))
		}
		n := int64(look) // trials per heterogeneous arm before this look's round
		for h, row := range live {
			for g, p := range row {
				if p == 0 {
					continue
				}
				for dh, ph := range [2]float64{1 - q, q} {
					for dg, pg := range homoFails {
						hf, gf := int64(h+dh), int64(g+dg)
						dec, _ := seq.Look(look, hf, n+1-hf, gf, homoPerLook*(n+1)-gf)
						switch dec {
						case stats.SeqConvict:
							convicted += p * ph * pg
						case stats.SeqContinue:
							next[h+dh][g+dg] += p * ph * pg
						}
					}
				}
			}
		}
		live = next
	}
	return convicted
}

// deterministicConvictionLook returns the look at which mode convicts an
// instance whose heterogeneous arm always fails and whose homogeneous
// arms never do, or 0 when it does not within the budget.
func deterministicConvictionLook(mode stats.SeqMode) int {
	seq := stats.NewSeqTest(mode, stats.DefaultSignificance, runner.DefaultMaxRounds, 2)
	for look := 1; look <= runner.DefaultMaxRounds; look++ {
		n := int64(look + 1)
		switch dec, _ := seq.Look(look, n, 0, 0, 2*n); dec {
		case stats.SeqConvict:
			return look
		case stats.SeqFutile:
			return 0
		}
	}
	return 0
}

// TestFalseConvictionCalibration computes each stopping rule's exact
// false-conviction probability per instance over a grid of flakiness
// rates q = 0.01 … 0.50, and checks that each still convicts a
// deterministic failure within the round budget.
func TestFalseConvictionCalibration(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		mode        stats.SeqMode
		convictLook int
	}{
		{stats.SeqSPRT, 3},
		{stats.SeqGSF, 6},
		{stats.SeqFixed, 5},
	} {
		if got := deterministicConvictionLook(tc.mode); got != tc.convictLook {
			t.Errorf("%s convicts a deterministic failure at look %d, want %d", tc.mode, got, tc.convictLook)
		}
		worst, worstQ := 0.0, 0.0
		for i := 1; i <= 50; i++ {
			q := float64(i) / 100
			p := falseConviction(tc.mode, q)
			if p > worst {
				worst, worstQ = p, q
			}
			if tc.mode != stats.SeqSPRT && p > stats.DefaultSignificance {
				t.Errorf("%s convicts a test flaky at q=%.2f with probability %.3g, above alpha %g", tc.mode, q, p, stats.DefaultSignificance)
			}
		}
		t.Logf("%s: worst false conviction %.3g per instance, at q=%.2f", tc.mode, worst, worstQ)
		// The default rule's plug-in null is known to overshoot alpha (ROADMAP
		// M2). Pin its size so it can neither hide nor drift unnoticed.
		if tc.mode == stats.SeqSPRT {
			const known = 1.41e-3
			if math.Abs(worst-known) > 0.02*known {
				t.Errorf("sprt's worst false conviction is %.4g at q=%.2f, not the known %.3g: "+
					"if the rule now holds alpha, ROADMAP item 16(b) has landed and this check becomes worst <= alpha",
					worst, worstQ, known)
			}
		}
	}
}
