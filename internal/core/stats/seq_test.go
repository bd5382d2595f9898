package stats

import (
	"math"
	"testing"
)

// table accumulates the deterministic hetero-unsafe trajectory: at look
// k (1-based), the screening round plus k confirmation rounds have run —
// k+1 hetero trials, all failing, and (k+1)·homoPerLook homo trials, all
// passing.
func deterministicTable(look int, homoPerLook int) (hf, hp, homf, homp int64) {
	n := int64(look + 1)
	return n, 0, 0, n * int64(homoPerLook)
}

func TestSPRTConvictsDeterministicByLook3(t *testing.T) {
	s := NewSeqTest(SeqSPRT, 0, 0, 2)
	for look := 1; look <= s.MaxLooks; look++ {
		hf, hp, homf, homp := deterministicTable(look, 2)
		dec, _ := s.Look(look, hf, hp, homf, homp)
		if dec == SeqFutile {
			t.Fatalf("look %d: deterministic signal declared futile", look)
		}
		if dec == SeqConvict {
			if look > 3 {
				t.Fatalf("SPRT convicted at look %d, want <= 3", look)
			}
			return
		}
	}
	t.Fatal("SPRT never convicted a deterministic signal")
}

func TestGSFConvictsDeterministicWithinBudget(t *testing.T) {
	s := NewSeqTest(SeqGSF, 0, 0, 2)
	for look := 1; look <= s.MaxLooks; look++ {
		hf, hp, homf, homp := deterministicTable(look, 2)
		dec, _ := s.Look(look, hf, hp, homf, homp)
		if dec == SeqFutile {
			t.Fatalf("look %d: deterministic signal declared futile", look)
		}
		if dec == SeqConvict {
			return
		}
	}
	t.Fatal("GSF never convicted a deterministic signal within MaxLooks")
}

func TestFixedConvictsDeterministicAtLook5(t *testing.T) {
	s := NewSeqTest(SeqFixed, 0, 0, 2)
	for look := 1; look <= s.MaxLooks; look++ {
		hf, hp, homf, homp := deterministicTable(look, 2)
		dec, p := s.Look(look, hf, hp, homf, homp)
		if dec == SeqConvict {
			if look != 5 {
				t.Fatalf("fixed convicted at look %d (p=%g), want 5", look, p)
			}
			return
		}
	}
	t.Fatal("fixed never convicted a deterministic signal")
}

// SPRT must convict no later than fixed on any trajectory: the full-alpha
// Fisher peek is part of its rule, so fixed's conviction condition is a
// subset of SPRT's. This is the invariant behind the equivalence suite.
func TestSPRTConvictsNoLaterThanFixed(t *testing.T) {
	sprt := NewSeqTest(SeqSPRT, 0, 0, 2)
	fixed := NewSeqTest(SeqFixed, 0, 0, 2)
	// Sweep trajectories where the hetero arm fails f of the first
	// look+1 trials and the homo arms fail g of theirs.
	for look := 1; look <= 8; look++ {
		n := int64(look + 1)
		for f := int64(0); f <= n; f++ {
			for g := int64(0); g <= 2*n; g++ {
				fd, _ := fixed.Look(look, f, n-f, g, 2*n-g)
				sd, _ := sprt.Look(look, f, n-f, g, 2*n-g)
				if fd == SeqConvict && sd != SeqConvict {
					t.Fatalf("look %d table (%d,%d,%d,%d): fixed convicts, sprt says %v",
						look, f, n-f, g, 2*n-g, sd)
				}
			}
		}
	}
}

func TestSPRTFutilityStopsFlaky(t *testing.T) {
	s := NewSeqTest(SeqSPRT, 0, 0, 2)
	// Uniform flakiness: both arms fail ~40% of trials. The adaptive
	// null tracks the homo rate, so the LLR drifts negative.
	for look := 1; look <= s.MaxLooks; look++ {
		n := int64(look + 1)
		hf := (2 * n) / 5
		homf := (4 * n) / 5
		dec, _ := s.Look(look, hf, n-hf, homf, 2*n-homf)
		if dec == SeqConvict {
			t.Fatalf("look %d: uniform flakiness convicted", look)
		}
		if dec == SeqFutile {
			if look > 4 {
				t.Fatalf("futility only at look %d, want <= 4", look)
			}
			return
		}
	}
	t.Fatal("SPRT never futility-stopped uniform flakiness")
}

func TestSPRTFutilityStopsAllPassing(t *testing.T) {
	s := NewSeqTest(SeqSPRT, 0, 0, 2)
	// Hetero arm never fails: each pass adds log(0.05/0.95) ≈ −2.94, so
	// the futility boundary (−3.0) is crossed by the second look.
	for look := 1; look <= 2; look++ {
		n := int64(look + 1)
		dec, _ := s.Look(look, 0, n, 0, 2*n)
		if dec == SeqConvict {
			t.Fatalf("look %d: all-passing instance convicted", look)
		}
		if dec == SeqFutile {
			return
		}
	}
	t.Fatal("SPRT did not futility-stop an all-passing instance within 2 looks")
}

func TestGSFCurtailmentIsOutcomeIdentical(t *testing.T) {
	s := NewSeqTest(SeqGSF, 0, 0, 2)
	// Whenever curtailment declares futility at look k, verify by
	// exhaustion that the most incriminating completion of the remaining
	// looks indeed crosses no remaining threshold.
	for look := 1; look < s.MaxLooks; look++ {
		n := int64(look + 1)
		for f := int64(0); f <= n; f++ {
			for g := int64(0); g <= 2*n; g++ {
				dec, _ := s.Look(look, f, n-f, g, 2*n-g)
				if dec != SeqFutile {
					continue
				}
				for l := look + 1; l <= s.MaxLooks; l++ {
					d := int64(l - look)
					best := FisherOneSided(f+d, n-f, g, 2*n-g+2*d)
					if best < s.SpendingThreshold(l) {
						t.Fatalf("look %d table (%d,%d,%d,%d): curtailed but best case at look %d has p=%g < a=%g",
							look, f, n-f, g, 2*n-g, l, best, s.SpendingThreshold(l))
					}
				}
			}
		}
	}
}

func TestSpendingScheduleSumsToAlpha(t *testing.T) {
	s := NewSeqTest(SeqGSF, 0, 0, 2)
	sum := 0.0
	prev := 0.0
	for k := 1; k <= s.MaxLooks; k++ {
		a := s.SpendingThreshold(k)
		if a <= prev {
			t.Fatalf("spending threshold not increasing: a_%d=%g <= a_%d=%g", k, a, k-1, prev)
		}
		prev = a
		sum += a
	}
	if math.Abs(sum-s.Alpha) > 1e-12 {
		t.Fatalf("spending increments sum to %g, want alpha=%g", sum, s.Alpha)
	}
	if got := s.SpendingThreshold(0); got != 0 {
		t.Fatalf("threshold for look 0 = %g, want 0", got)
	}
	if got := s.SpendingThreshold(s.MaxLooks + 1); got != 0 {
		t.Fatalf("threshold past the last look = %g, want 0", got)
	}
}

func TestSPRTStatisticAdaptiveNull(t *testing.T) {
	// Clean homo baseline: each hetero failure contributes log(19).
	if got, want := SPRTStatistic(1, 0, 0, 4), math.Log(0.95/0.05); math.Abs(got-want) > 1e-12 {
		t.Fatalf("clean-baseline LLR = %g, want %g", got, want)
	}
	// Homo arms failing at 50% raise the null: the same hetero failure
	// counts far less evidence.
	if clean, noisy := SPRTStatistic(4, 0, 0, 8), SPRTStatistic(4, 0, 4, 4); noisy >= clean {
		t.Fatalf("LLR with a noisy baseline (%g) not below clean baseline (%g)", noisy, clean)
	}
	// The null is capped below theta1, keeping the statistic finite and
	// positive per failure even if every homo trial fails.
	if got := SPRTStatistic(1, 0, 8, 0); got <= 0 || math.IsInf(got, 0) {
		t.Fatalf("LLR with an all-failing baseline = %g, want finite positive", got)
	}
}

func TestParseSeqMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SeqMode
	}{{"sprt", SeqSPRT}, {"gsf", SeqGSF}, {"fixed", SeqFixed}} {
		got, err := ParseSeqMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSeqMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round-trip: %q -> %q", tc.in, got.String())
		}
	}
	if _, err := ParseSeqMode("bogus"); err == nil {
		t.Fatal("ParseSeqMode accepted a bogus mode")
	}
}
