package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// syntheticApp builds a tiny application with one node type reading one
// parameter; its single test fails exactly when the node's value differs
// from the unit test's ("deterministic" mode), fails randomly ("flaky"),
// or fails under a specific homogeneous value ("homobad").
func syntheticApp(mode string) *harness.App {
	schema := func() *confkit.Registry {
		r := confkit.NewRegistry()
		r.Register(confkit.Param{Name: "sync.word", Kind: confkit.Enum,
			Default: "alpha", Candidates: []string{"alpha", "beta"}})
		return r
	}
	return &harness.App{
		Name:      "synthetic-" + mode,
		Schema:    schema,
		NodeTypes: []string{"Node"},
		Tests: []harness.UnitTest{{
			Name: "TestSync",
			Run: func(t *harness.T) {
				testConf := t.Env.RT.NewConf()
				t.Env.RT.StartInit("Node")
				nodeConf := testConf.RefToClone()
				t.Env.RT.StopInit()

				nodeVal := nodeConf.Get("sync.word")
				testVal := testConf.Get("sync.word")
				switch mode {
				case "deterministic":
					if nodeVal != testVal {
						t.Fatalf("node speaks %q, client speaks %q", nodeVal, testVal)
					}
				case "flaky":
					if t.Env.Float64() < 0.4 {
						t.Fatalf("simulated race")
					}
				case "homobad":
					// Fails whenever ANY participant uses "beta" — so the
					// homogeneous beta arm fails too and the instance is
					// unattributable under Definition 3.1.
					if nodeVal == "beta" || testVal == "beta" {
						t.Fatalf("beta mode is broken everywhere")
					}
				}
			},
		}},
	}
}

// instanceFor builds the canonical flip instance for the synthetic app.
func instanceFor(app *harness.App, r *Runner) (testgen.Assignment, *harness.UnitTest) {
	test := &app.Tests[0]
	pre := r.PreRun(test)
	gen := testgen.New(app.Schema())
	insts := gen.Instances(pre, testgen.InstancesOptions{})
	if len(insts) == 0 {
		panic("no instances generated for the synthetic app")
	}
	return gen.AssignFor(insts[0], &pre.Report), test
}

func TestDeterministicUnsafeConfirmed(t *testing.T) {
	t.Parallel()
	app := syntheticApp("deterministic")
	r := New(app, Options{})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "det")
	if res.Verdict != VerdictUnsafe {
		t.Fatalf("verdict = %v, want unsafe (msg %q)", res.Verdict, res.HeteroMsg)
	}
	if !res.FirstTrialSignal {
		t.Fatal("no first-trial signal for a deterministic bug")
	}
	// Under the default SPRT the conviction guarantee is the likelihood
	// boundary, reached by round 3 on an always-failing instance.
	if res.StopReason != StopConvicted {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, StopConvicted)
	}
	if res.Rounds > 3 {
		t.Fatalf("deterministic conviction took %d rounds, want <= 3", res.Rounds)
	}
	if res.HeteroMsg == "" {
		t.Fatal("no failure message recorded")
	}
}

func TestDeterministicUnsafeConfirmedFixed(t *testing.T) {
	t.Parallel()
	app := syntheticApp("deterministic")
	r := New(app, Options{Seq: stats.SeqFixed})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "det-fixed")
	if res.Verdict != VerdictUnsafe {
		t.Fatalf("verdict = %v, want unsafe (msg %q)", res.Verdict, res.HeteroMsg)
	}
	// Fixed-N convicts on the raw Fisher test, so the reported p-value
	// itself clears the significance bar.
	if res.PValue >= 1e-4 {
		t.Fatalf("p-value %g not significant", res.PValue)
	}
}

func TestSafeParameterPassesCheaply(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	r := New(app, Options{})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "safe")
	if res.Verdict != VerdictSafe {
		t.Fatalf("verdict = %v, want safe", res.Verdict)
	}
	// With gating, a passing first trial costs exactly 1 + len(homo) runs.
	if want := int64(1 + len(asn.Homo)); res.Executions != want {
		t.Fatalf("executions = %d, want %d (gate saves trials)", res.Executions, want)
	}
}

func TestFlakyTestFiltered(t *testing.T) {
	t.Parallel()
	app := syntheticApp("flaky")
	asn, test := instanceFor(app, New(app, Options{}))

	// Scan base seeds until one hits the first-trial signal (hetero
	// fails, homos pass); hypothesis testing must then refuse to
	// confirm. Base seeds, not labels: homogeneous-arm seeds are
	// canonical over the assignment, so within one base seed every label
	// shares the same homo outcomes.
	for i := 0; i < 64; i++ {
		r := New(app, Options{BaseSeed: int64(i)})
		res := r.RunAssignment(test, asn, "flaky")
		if !res.FirstTrialSignal {
			continue
		}
		if res.Verdict == VerdictUnsafe {
			t.Fatalf("flaky failure confirmed as unsafe (p=%g)", res.PValue)
		}
		if res.Verdict != VerdictFiltered && res.Verdict != VerdictSafe {
			t.Fatalf("verdict = %v", res.Verdict)
		}
		return
	}
	t.Skip("no first-trial signal in 64 base seeds; flake probability too low for this seed set")
}

func TestHomoInvalidDetected(t *testing.T) {
	t.Parallel()
	app := syntheticApp("homobad")
	r := New(app, Options{})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "homobad")
	if res.Verdict != VerdictHomoInvalid {
		t.Fatalf("verdict = %v, want homo-invalid", res.Verdict)
	}
}

func TestGateDisabledStillConverges(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	// Fixed mode: sequential futility would stop an all-passing instance
	// early, and this test measures the gate ablation's full cost.
	r := New(app, Options{DisableGate: true, MaxRounds: 3, Seq: stats.SeqFixed})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "nogate")
	if res.Verdict != VerdictSafe {
		t.Fatalf("verdict = %v, want safe", res.Verdict)
	}
	// Without gating every round runs: (1 + maxRounds) * (1 + homo arms).
	want := int64((1 + 3) * (1 + len(asn.Homo)))
	if res.Executions != want {
		t.Fatalf("executions = %d, want %d without gating", res.Executions, want)
	}
}

func TestGateDisabledFutilityStopsEarly(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	r := New(app, Options{DisableGate: true, MaxRounds: 3})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "nogate-sprt")
	if res.Verdict != VerdictSafe {
		t.Fatalf("verdict = %v, want safe", res.Verdict)
	}
	if res.StopReason != StopFutility {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, StopFutility)
	}
	// SPRT futility fires before the round budget is exhausted, so an
	// all-passing instance costs strictly less than the fixed budget.
	budget := int64((1 + 3) * (1 + len(asn.Homo)))
	if res.Executions >= budget {
		t.Fatalf("executions = %d, want < %d under sequential futility", res.Executions, budget)
	}
	if res.Trials != res.Executions {
		t.Fatalf("trials = %d, executions = %d; with no cache they must match", res.Trials, res.Executions)
	}
}

func TestRunPooledReportsHeteroFailureOnly(t *testing.T) {
	t.Parallel()
	app := syntheticApp("deterministic")
	r := New(app, Options{})
	asn, test := instanceFor(app, r)
	if failed, _ := r.RunPooledIn(obs.NoSpan, test, asn.Hetero, "pool"); !failed {
		t.Fatal("pooled heterogeneous run passed on a deterministic bug")
	}
	before := r.Executions()
	// A pooled run costs exactly one execution.
	r.RunPooledIn(obs.NoSpan, test, asn.Hetero, "pool2")
	if r.Executions() != before+1 {
		t.Fatalf("pooled run cost %d executions", r.Executions()-before)
	}
}

func TestSeedsDifferAcrossArmsAndRounds(t *testing.T) {
	t.Parallel()
	seen := map[int64]bool{}
	for _, arm := range []string{"hetero", "prerun", "pool"} {
		for round := 0; round < 4; round++ {
			s := seedFor(0, "label", arm, round)
			if seen[s] {
				t.Fatalf("seed collision at %s/%d", arm, round)
			}
			seen[s] = true
		}
	}
	if seedFor(0, "a", "hetero", 0) == seedFor(0, "b", "hetero", 0) {
		t.Fatal("labels do not differentiate seeds")
	}
	if seedFor(1, "a", "hetero", 0) == seedFor(2, "a", "hetero", 0) {
		t.Fatal("base seeds do not differentiate seeds")
	}
}

// TestCanonicalHomoSeedsIgnoreLabel pins the PR's correctness fix:
// Definition 3.1's homogeneous baseline is a property of (test,
// assignment, round), so two instances that need the same baseline must
// run the byte-identical trial regardless of their labels. The flaky
// synthetic test makes any seed difference visible as an outcome
// difference with probability 0.4 per run.
func TestCanonicalHomoSeedsIgnoreLabel(t *testing.T) {
	t.Parallel()
	app := syntheticApp("flaky")
	r := New(app, Options{DisableGate: true, MaxRounds: 4})
	asn, test := instanceFor(app, r)

	// Two passes over the same assignment stand in for two instances
	// with different labels: nothing label-dependent may enter the
	// canonical derivation, so the outcome sequences must be identical.
	outcomes := func() []string {
		var seq []string
		for round := 0; round <= 4; round++ {
			for i, arm := range asn.Homo {
				out, _, _ := r.runTrial(obs.NoSpan, new(Result), trial{test: test, recipe: arm, arm: homoArmName(i), round: round})
				seq = append(seq, fmt.Sprintf("%s/%d:%v", homoArmName(i), round, out.Failed))
			}
		}
		return seq
	}
	a := outcomes()
	b := outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical homo outcome diverged: %s vs %s", a[i], b[i])
		}
	}
}

// TestCacheSavesHomoArms: with a memo cache installed, a second instance
// over the same assignment reuses every homogeneous arm and re-executes
// only its heterogeneous arm.
func TestCacheSavesHomoArms(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	o := obs.New()
	r := New(app, Options{Cache: memo.NewCache(app.Name, nil, o)})
	asn, test := instanceFor(app, r)

	first := r.RunAssignment(test, asn, "inst-a")
	if first.Saved != 0 {
		t.Fatalf("first instance saved %d runs; nothing to reuse yet", first.Saved)
	}
	before := r.Executions()
	second := r.RunAssignment(test, asn, "inst-b")
	if want := int64(len(asn.Homo)); second.Saved != want {
		t.Fatalf("second instance saved %d runs, want %d (all homo arms)", second.Saved, want)
	}
	if got := r.Executions() - before; got != 1 {
		t.Fatalf("second instance executed %d runs, want 1 (hetero only)", got)
	}
	if second.Verdict != first.Verdict {
		t.Fatalf("cached verdict %v != uncached %v", second.Verdict, first.Verdict)
	}
	hits := o.Metrics.CounterValue(obs.MCacheHits, "app", app.Name, "scope", "local")
	misses := o.Metrics.CounterValue(obs.MCacheMisses, "app", app.Name)
	if hits != int64(len(asn.Homo)) || misses != int64(len(asn.Homo)) {
		t.Fatalf("cache counted %d hits and %d misses, want %d and %d", hits, misses, len(asn.Homo), len(asn.Homo))
	}
}

// TestRoundSpansRecordPerRoundHomoFailures pins the trace-attribute fix:
// each round span's homo_failures is that round's delta, not the
// cumulative count across rounds. In homobad mode the all-beta
// homogeneous arm fails every round, so a cumulative count would read
// 1, 2, 3, ... while the correct per-round delta is always 1. The
// hetero arm carries a beta value too, so hetero_failed must be present
// and true in every round — the symmetry check.
func TestRoundSpansRecordPerRoundHomoFailures(t *testing.T) {
	t.Parallel()
	app := syntheticApp("homobad")
	var buf bytes.Buffer
	o := obs.New()
	o.Tracer = obs.NewTracer(&buf)
	r := New(app, Options{DisableGate: true, MaxRounds: 3, Obs: o})
	asn, test := instanceFor(app, r)
	r.RunAssignment(test, asn, "rounds")

	rounds := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Name != "round" {
			continue
		}
		rounds++
		hf, ok := rec.Attrs["hetero_failed"].(bool)
		if !ok {
			t.Fatalf("round span missing hetero_failed bool: %v", rec.Attrs)
		}
		if !hf {
			t.Fatalf("hetero arm passed in homobad mode (it carries a beta value): %v", rec.Attrs)
		}
		failures, ok := rec.Attrs["homo_failures"].(float64)
		if !ok {
			t.Fatalf("round span missing homo_failures: %v", rec.Attrs)
		}
		if failures != 1 {
			t.Fatalf("round span homo_failures = %v, want per-round delta 1 (cumulative count regression)", failures)
		}
	}
	if want := 1 + 3; rounds != want {
		t.Fatalf("saw %d round spans, want %d", rounds, want)
	}
}

func TestPreRunCollectsUsage(t *testing.T) {
	t.Parallel()
	app := syntheticApp("none")
	r := New(app, Options{})
	pre := r.PreRun(&app.Tests[0])
	if pre.Report.NodesStarted["Node"] != 1 {
		t.Fatalf("pre-run nodes: %v", pre.Report.NodesStarted)
	}
	if !pre.Report.Usage["Node"]["sync.word"] {
		t.Fatalf("pre-run usage: %v", pre.Report.Usage)
	}
	if !pre.Report.Usage[agent.UnitTestEntity]["sync.word"] {
		t.Fatal("unit-test usage missing")
	}
}

func TestHomoArmNamesAreDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 30; i++ {
		name := homoArmName(i)
		if seen[name] {
			t.Fatalf("homoArmName(%d) = %q repeats an earlier arm name", i, name)
		}
		seen[name] = true
	}
	if homoArmName(0) != "homoA" || homoArmName(1) != "homoB" || homoArmName(2) != "homoC" {
		t.Fatalf("unexpected arm names: %q %q %q", homoArmName(0), homoArmName(1), homoArmName(2))
	}
}

func TestBudgetExhaustedStaysUnconvicted(t *testing.T) {
	t.Parallel()
	app := syntheticApp("deterministic")
	// A round budget of 3 is too small for Fisher significance on a
	// deterministic signal (p = 1/C(12,4) ≈ 2e-3 > 1e-4): the instance
	// exhausts its budget and stays unconvicted — no round runs past it.
	r := New(app, Options{MaxRounds: 3, Seq: stats.SeqFixed})
	asn, test := instanceFor(app, r)
	res := r.RunAssignment(test, asn, "marginal")
	if res.Verdict == VerdictUnsafe {
		t.Fatal("instance convicted without budget for the needed rounds")
	}
	if res.StopReason != StopBudget {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, StopBudget)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (the budget)", res.Rounds)
	}
}

// countingBackend is a second cache tier that remembers what it was asked:
// the store a resubmitted campaign meets again.
type countingBackend struct {
	mu   sync.Mutex
	m    map[memo.Key]memo.Result
	puts []memo.Key
}

func (b *countingBackend) Get(k memo.Key) (memo.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, ok := b.m[k]
	return res, ok
}

func (b *countingBackend) Put(k memo.Key, res memo.Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = res
	b.puts = append(b.puts, k)
}

// TestTrialCachePolicy pins which trials meet the execution cache and how
// (DESIGN.md §9), over CacheLabelSeeded off/on × evidence capture off/on ×
// cache off/on. One "campaign" is a pre-run, one instance and one pooled
// run of a convicted (deterministic) or safe (none) synthetic test; it
// runs twice with a fresh runner and memo.Cache over the same backend,
// the way an unchanged campaign is resubmitted to a persistent tier.
//
//	pre-run          always executes, never Put
//	homo arm, pool   cold: executes and is Put; warm: replayed
//	hetero arm       without CacheLabelSeeded: like a pre-run; with it: like a
//	                 homo arm, but a capture trial executes for real and is
//	                 Put (Cache.Record) all the same
func TestTrialCachePolicy(t *testing.T) {
	t.Parallel()
	const base = 7
	for _, mode := range []string{"deterministic", "none"} {
		for _, labelSeeded := range []bool{false, true} {
			for _, capture := range []bool{false, true} {
				for _, cacheOn := range []bool{false, true} {
					name := fmt.Sprintf("%s/label=%v/capture=%v/cache=%v", mode, labelSeeded, capture, cacheOn)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						app := syntheticApp(mode)
						backend := &countingBackend{m: make(map[memo.Key]memo.Result)}
						var rounds int64
						for pass, warm := range []bool{false, true} {
							var trace bytes.Buffer
							o := obs.New()
							o.Tracer = obs.NewTracer(&trace)
							opts := Options{BaseSeed: base, CacheLabelSeeded: labelSeeded, Obs: o}
							if cacheOn {
								opts.Cache = memo.NewCache(app.Name, backend, o)
							}
							if capture {
								opts.Evidence = forensics.NewRecorder(app.Name, -1, o)
							}
							r := New(app, opts)
							asn, test := instanceFor(app, r) // the pre-run
							res := r.RunAssignment(test, asn, "inst")
							beforePool := r.Executions()
							r.RunPooledIn(obs.NoSpan, test, asn.Hetero, "pool")
							poolRan := r.Executions() - beforePool

							wantVerdict := VerdictSafe
							if mode == "deterministic" {
								wantVerdict = VerdictUnsafe
							}
							if res.Verdict != wantVerdict {
								t.Fatalf("pass %d: verdict %v, want %v", pass, res.Verdict, wantVerdict)
							}
							rounds = int64(res.Rounds) + 1
							replays := warm && cacheOn
							// A capture trial executes for real: round 0, and
							// later rounds only until one trial has failed —
							// round 0 fails when convicted, and a safe
							// instance has no later round.
							hetero, homo, pool := rounds, 2*rounds, int64(1)
							if replays {
								homo, pool = 0, 0
								switch {
								case !labelSeeded:
								case capture:
									hetero = 1
								default:
									hetero = 0
								}
							}
							ran := func(arm string) int64 {
								return o.Metrics.CounterValue(obs.MExecutions, "app", app.Name, "arm", arm, "outcome", "pass") +
									o.Metrics.CounterValue(obs.MExecutions, "app", app.Name, "arm", arm, "outcome", "fail")
							}
							if got := ran("prerun"); got != 1 {
								t.Errorf("pass %d: %d pre-run executions, want 1", pass, got)
							}
							if got := ran("hetero"); got != hetero {
								t.Errorf("pass %d: %d hetero executions, want %d", pass, got, hetero)
							}
							if got := ran("homoA") + ran("homoB"); got != homo {
								t.Errorf("pass %d: %d homo executions, want %d", pass, got, homo)
							}
							if got := ran("pool"); got != pool || poolRan != pool {
								t.Errorf("pass %d: %d pooled executions (runner counted %d), want %d", pass, got, poolRan, pool)
							}
							if res.Executions != hetero+homo || res.Saved != 3*rounds-hetero-homo {
								t.Errorf("pass %d: instance executed %d saved %d, want %d and %d",
									pass, res.Executions, res.Saved, hetero+homo, 3*rounds-hetero-homo)
							}
							if got := r.Executions(); got != 1+hetero+homo+pool {
								t.Errorf("pass %d: runner executed %d, want %d", pass, got, 1+hetero+homo+pool)
							}
							if capture && (res.Evidence == nil || len(res.Evidence.Reads) == 0) {
								t.Errorf("pass %d: no captured read trace: %+v", pass, res.Evidence)
							}

							// One cache-hit span per reuse.
							recs, err := obs.ReadTrace(&trace)
							if err != nil {
								t.Fatal(err)
							}
							var hits int64
							for _, rec := range recs {
								if rec.Name == "cache-hit" {
									hits++
								}
							}
							if want := res.Saved + 1 - pool; hits != want {
								t.Errorf("pass %d: %d cache-hit spans, want %d", pass, hits, want)
							}

							// Which keys reached the backend: the same set
							// after either pass, every one exactly once
							// except a capture trial's, which Records again.
							want := make(map[memo.Key]bool)
							if cacheOn {
								hh := asn.Hetero.Digest()
								want[memo.Key{App: app.Name, Test: test.Name, Assign: hh, Seed: memo.SeedFor(base, test.Name, hh, 0)}] = true
								for round := 0; round < int(rounds); round++ {
									for _, arm := range asn.Homo {
										h := arm.Digest()
										want[memo.Key{App: app.Name, Test: test.Name, Assign: h, Seed: memo.SeedFor(base, test.Name, h, round)}] = true
									}
									if labelSeeded {
										want[memo.Key{App: app.Name, Test: test.Name, Assign: hh, Seed: seedFor(base, "inst", "hetero", round)}] = true
									}
								}
							}
							got := make(map[memo.Key]bool)
							for _, k := range backend.puts {
								got[k] = true
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("pass %d: backend holds %d keys, want %d:\n got %v\nwant %v", pass, len(got), len(want), got, want)
							}
							wantPuts := len(want)
							if replays && labelSeeded && capture {
								wantPuts++
							}
							if len(backend.puts) != wantPuts {
								t.Errorf("pass %d: %d Puts, want %d", pass, len(backend.puts), wantPuts)
							}
						}
					})
				}
			}
		}
	}
}
