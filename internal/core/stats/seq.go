package stats

import (
	"fmt"
	"math"
)

// SeqMode selects the stopping rule applied to confirmation trials.
//
// The paper runs a fixed number of paired trials and then applies
// Fisher's exact test at significance 1e-4. That spends the full round
// budget on every flagged instance, including the two cheap-to-decide
// extremes: deterministic crashes (significant long before the budget)
// and uniformly flaky tests (hopeless long before the budget). A
// sequential test looks at the evidence after every round and stops as
// soon as the verdict is statistically decided, capping only the
// maximum — the classic sequential-analysis economics (Wald 1945)
// applied to configuration testing.
type SeqMode int

const (
	// SeqSPRT (the default) wraps the per-round Fisher peek in a
	// sequential probability ratio test with a conviction and a futility
	// boundary: deterministic failures convict in ~3 rounds, uniform
	// flakiness futility-stops in ~2-3, and only genuinely marginal
	// instances run long.
	SeqSPRT SeqMode = iota
	// SeqGSF is the group-sequential Fisher variant: each look k gets an
	// alpha-spending increment a_k with sum(a_k) = alpha, so the overall
	// type-I error stays at the paper's 1e-4 despite per-round looks —
	// the statistically honest correction for the peeking the fixed mode
	// performs without one. Convictions come later than SPRT's (the
	// per-look thresholds are stricter than alpha); futility stops come
	// from deterministic curtailment only.
	SeqGSF
	// SeqFixed is the ablation: the legacy behaviour, byte-for-byte — a
	// Fisher peek at full alpha after every round, no futility stop, the
	// full MaxRounds budget for everything that never reaches
	// significance.
	SeqFixed
)

// ParseSeqMode parses a -seq flag value.
func ParseSeqMode(s string) (SeqMode, error) {
	switch s {
	case "sprt":
		return SeqSPRT, nil
	case "gsf":
		return SeqGSF, nil
	case "fixed":
		return SeqFixed, nil
	default:
		return SeqSPRT, fmt.Errorf("stats: bad sequential mode %q (want sprt, gsf, or fixed)", s)
	}
}

// String names the mode for flags, wire configs, and ledgers.
func (m SeqMode) String() string {
	switch m {
	case SeqSPRT:
		return "sprt"
	case SeqGSF:
		return "gsf"
	case SeqFixed:
		return "fixed"
	default:
		return fmt.Sprintf("seqmode(%d)", int(m))
	}
}

// Decision is a sequential test's verdict at one look.
type Decision int

const (
	// SeqContinue: the evidence decides nothing yet; run another round.
	SeqContinue Decision = iota
	// SeqConvict: the heterogeneous failure is confirmed significant.
	SeqConvict
	// SeqFutile: no remaining sequence of trials can reach significance
	// (curtailment), or the likelihood ratio says the heterogeneous arm
	// fails no more often than the homogeneous baseline (SPRT futility);
	// further rounds are wasted budget.
	SeqFutile
)

// String names the decision for traces and tests.
func (d Decision) String() string {
	switch d {
	case SeqContinue:
		return "continue"
	case SeqConvict:
		return "convict"
	case SeqFutile:
		return "futile"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// SPRT design constants. The hypotheses are about the heterogeneous
// arm's failure probability theta: H1 says the parameter is hetero-unsafe
// and the arm fails (nearly) deterministically; H0 says the arm fails no
// more often than the homogeneous baseline. The null is adaptive — it
// tracks the observed homogeneous failure rate — so a uniformly flaky
// test (both arms failing at 30%) is scored against theta0 ~ 0.3, not
// against "never fails", which is what keeps flakiness from walking the
// statistic across the conviction boundary.
const (
	// sprtTheta1 is H1's heterogeneous failure probability. Not 1.0: a
	// real unsafe parameter can still pass the odd trial (timing), and
	// theta1 < 1 keeps the pass-term log finite.
	sprtTheta1 = 0.95
	// sprtTheta0Floor floors the adaptive null: with a clean homogeneous
	// baseline (zero failures) H0 still concedes a 5% background failure
	// rate, so each heterogeneous failure contributes log(19) ≈ 2.94 of
	// evidence rather than infinity.
	sprtTheta0Floor = 0.05
	// sprtTheta0Ceil caps the adaptive null below theta1 so the
	// per-trial evidence never degenerates to zero or flips sign.
	sprtTheta0Ceil = 0.9
	// sprtBeta is the target type-II error (miss rate) at H1; with
	// alpha it fixes Wald's boundaries.
	sprtBeta = 0.05
)

// SPRTStatistic returns the SPRT log-likelihood ratio for the
// heterogeneous arm's trials, scored against the adaptive null derived
// from the pooled homogeneous arms:
//
//	theta0 = clamp(homoFail / homoTrials, floor, ceil)
//	LLR    = heteroFail·ln(theta1/theta0) + heteroPass·ln((1−theta1)/(1−theta0))
func SPRTStatistic(heteroFail, heteroPass, homoFail, homoPass int64) float64 {
	theta0 := sprtTheta0Floor
	if n := homoFail + homoPass; n > 0 {
		theta0 = float64(homoFail) / float64(n)
	}
	if theta0 < sprtTheta0Floor {
		theta0 = sprtTheta0Floor
	}
	if theta0 > sprtTheta0Ceil {
		theta0 = sprtTheta0Ceil
	}
	return float64(heteroFail)*math.Log(sprtTheta1/theta0) +
		float64(heteroPass)*math.Log((1-sprtTheta1)/(1-theta0))
}

// SeqTest evaluates one instance's confirmation trials against a
// stopping rule. One SeqTest serves one instance: it is cheap (a few
// floats) and stateless between looks — every Look recomputes from the
// cumulative 2×2 table, so replaying the same table yields the same
// decisions no matter which execution path ran the trials.
type SeqTest struct {
	Mode  SeqMode
	Alpha float64
	// MaxLooks is the confirmation-round budget K: GSF spends its alpha
	// across exactly K looks, and curtailment projects the best case out
	// to look K.
	MaxLooks int
	// HeteroPerLook and HomoPerLook are the trials each confirmation
	// round adds per arm family (1 heterogeneous trial and one per
	// homogeneous arm); curtailment needs them to project future tables.
	HeteroPerLook int
	HomoPerLook   int

	convictLLR float64 // Wald's A = ln((1−β)/α)
	futileLLR  float64 // Wald's B = ln(β/(1−α))
}

// NewSeqTest builds a stopping rule. alpha <= 0 selects the paper's
// 1e-4; maxLooks <= 0 selects 8 (the runner's default round budget);
// homoPerLook <= 0 selects 2 (every generated assignment has two
// homogeneous arms).
func NewSeqTest(mode SeqMode, alpha float64, maxLooks, homoPerLook int) *SeqTest {
	if alpha <= 0 {
		alpha = DefaultSignificance
	}
	if maxLooks <= 0 {
		maxLooks = 8
	}
	if homoPerLook <= 0 {
		homoPerLook = 2
	}
	return &SeqTest{
		Mode:          mode,
		Alpha:         alpha,
		MaxLooks:      maxLooks,
		HeteroPerLook: 1,
		HomoPerLook:   homoPerLook,
		convictLLR:    math.Log((1 - sprtBeta) / alpha),
		futileLLR:     math.Log(sprtBeta / (1 - alpha)),
	}
}

// SpendingThreshold returns GSF's per-look significance threshold a_k:
// the increment of the power-family spending function s(t) = alpha·t²
// between looks k−1 and k over MaxLooks looks,
//
//	a_k = alpha · (k² − (k−1)²) / K² = alpha · (2k−1) / K².
//
// The increments sum to alpha, so rejecting look k when p_k < a_k keeps
// the overall type-I error at most alpha by the union bound — no matter
// how the looks correlate. The quadratic family back-loads the spend
// (the last look keeps (2K−1)/K² ≈ 23% of alpha for K=8), which is what
// lets a deterministic failure still convict within the budget; an even
// (Pocock-style) split would spend so little per look that a clean
// 1-vs-2-arm signal could never cross any threshold. Outside looks
// 1..MaxLooks nothing is left to spend: the threshold is 0.
func (s *SeqTest) SpendingThreshold(look int) float64 {
	if look < 1 || look > s.MaxLooks {
		return 0
	}
	k, kk := float64(look), float64(s.MaxLooks)
	return s.Alpha * (2*k - 1) / (kk * kk)
}

// Look evaluates the cumulative 2×2 table after confirmation round
// `look` (1-based) and returns the stopping decision plus the Fisher
// one-sided p-value at this look (the value reports carry regardless of
// mode).
func (s *SeqTest) Look(look int, heteroFail, heteroPass, homoFail, homoPass int64) (Decision, float64) {
	p := FisherOneSided(heteroFail, heteroPass, homoFail, homoPass)
	switch s.Mode {
	case SeqFixed:
		if p < s.Alpha {
			return SeqConvict, p
		}
		return SeqContinue, p
	case SeqGSF:
		if p < s.SpendingThreshold(look) {
			return SeqConvict, p
		}
		if s.curtailed(look, heteroFail, heteroPass, homoFail, homoPass) {
			return SeqFutile, p
		}
		return SeqContinue, p
	default: // SeqSPRT
		// The full-alpha Fisher peek is kept alongside the SPRT
		// boundaries: anything the fixed rule would convict at this look,
		// SPRT convicts no later — which is what makes the two modes
		// report the same parameter set on decided instances.
		if p < s.Alpha {
			return SeqConvict, p
		}
		llr := SPRTStatistic(heteroFail, heteroPass, homoFail, homoPass)
		if llr >= s.convictLLR {
			return SeqConvict, p
		}
		if llr <= s.futileLLR {
			return SeqFutile, p
		}
		return SeqContinue, p
	}
}

// curtailed reports deterministic futility: even if every remaining
// heterogeneous trial fails and every remaining homogeneous trial
// passes (the most incriminating future possible), no remaining look up
// to MaxLooks reaches its significance threshold. Stopping then cannot
// change the verdict, only save the trials — which is what makes
// curtailment the one futility rule that is *guaranteed* outcome-
// identical to running the full budget.
func (s *SeqTest) curtailed(look int, heteroFail, heteroPass, homoFail, homoPass int64) bool {
	for l := look + 1; l <= s.MaxLooks; l++ {
		d := int64(l - look)
		best := FisherOneSided(
			heteroFail+d*int64(s.HeteroPerLook), heteroPass,
			homoFail, homoPass+d*int64(s.HomoPerLook))
		var threshold float64
		if s.Mode == SeqGSF {
			threshold = s.SpendingThreshold(l)
		} else {
			threshold = s.Alpha
		}
		if best < threshold {
			return false
		}
	}
	return look < s.MaxLooks
}
