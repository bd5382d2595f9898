// Package report renders campaign results as the paper's tables (Tables
// 1–5 analogs) in plain text and JSON, shared by the CLI tools and the
// benchmark harness.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
)

// Table1 prints per-application statistics (paper Table 1): unit tests and
// application-specific parameters.
func Table1(w io.Writer, apps []*harness.App) {
	fmt.Fprintf(w, "Table 1 — application statistics\n")
	fmt.Fprintf(w, "%-12s %12s %12s %15s %12s\n", "app", "#unit tests", "#parameters", "#seeded-unsafe", "#FP-traps")
	for _, app := range apps {
		schema := app.Schema()
		fmt.Fprintf(w, "%-12s %12d %12d %15d %12d\n", app.Name, len(app.Tests), schema.Len(),
			schema.TruthCount(confkit.SafetyUnsafe), schema.TruthCount(confkit.SafetyFalsePositive))
	}
}

// Table2 prints the node types per application (paper Table 2).
func Table2(w io.Writer, apps []*harness.App) {
	fmt.Fprintf(w, "Table 2 — node types\n")
	for _, app := range apps {
		fmt.Fprintf(w, "%-12s %s\n", app.Name, strings.Join(app.NodeTypes, ", "))
	}
}

// Table4 prints the instrumentation effort (paper Table 4).
func Table4(w io.Writer, apps []*harness.App) {
	fmt.Fprintf(w, "Table 4 — modified lines to apply ZebraConf\n")
	fmt.Fprintf(w, "%-12s %s\n", "app", "node-class + conf-class annotations")
	for _, app := range apps {
		fmt.Fprintf(w, "%-12s %d + %d\n", app.Name, app.Annotations.NodeLines, app.Annotations.ConfLines)
	}
}

// Table5 prints the instance-reduction pipeline for one campaign (paper
// Table 5).
func Table5(w io.Writer, res *campaign.Result) {
	fmt.Fprintf(w, "Table 5 — test instances for %s\n", res.App)
	fmt.Fprintf(w, "  %-28s %12d\n", "Original", res.Counts.Original)
	fmt.Fprintf(w, "  %-28s %12d\n", "After pre-running unit tests", res.Counts.AfterPreRun)
	fmt.Fprintf(w, "  %-28s %12d\n", "After removing uncertainty", res.Counts.AfterUncertainty)
	fmt.Fprintf(w, "  %-28s %12d\n", "Executed", res.Counts.Executed)
	if res.Counts.ExecutionsSaved > 0 {
		total := res.Counts.Executed + res.Counts.ExecutionsSaved
		fmt.Fprintf(w, "  %-28s %12d (%.0f%% of %d)\n", "Saved by execution cache",
			res.Counts.ExecutionsSaved, 100*float64(res.Counts.ExecutionsSaved)/float64(total), total)
	}
}

// Findings prints the campaign's per-parameter verdicts, scored against
// ground truth the way the paper's manual analysis scored reports
// (Table 3 + §7.1).
func Findings(w io.Writer, res *campaign.Result) {
	fmt.Fprintf(w, "Findings for %s: %d reported (%d true, %d false positives), %d missed\n",
		res.App, len(res.Reported), res.TruePositives, res.FalsePositives, len(res.Missed))
	for _, r := range res.Reported {
		marker := "TRUE "
		if r.Truth != confkit.SafetyUnsafe {
			marker = "FALSE"
		}
		if r.StopReason != "" {
			fmt.Fprintf(w, "  [%s] %-55s p=%.2g tests=%d rounds=%d trials=%d stop=%s\n",
				marker, r.Param, r.MinP, len(r.Tests), r.Rounds, r.Trials, r.StopReason)
		} else {
			fmt.Fprintf(w, "  [%s] %-55s p=%.2g tests=%d\n", marker, r.Param, r.MinP, len(r.Tests))
		}
		if r.Why != "" {
			fmt.Fprintf(w, "         why: %s\n", r.Why)
		}
		if r.Example != "" {
			fmt.Fprintf(w, "         e.g: %s\n", clip(r.Example, 140))
		}
	}
	if len(res.Missed) > 0 {
		fmt.Fprintf(w, "  missed unsafe parameters: %s\n", strings.Join(res.Missed, ", "))
	}
	if len(res.SkippedTests) > 0 {
		fmt.Fprintf(w, "  WARNING: %d requested or pre-run test(s) skipped (unknown name or phase-2 lookup failure): %s\n",
			len(res.SkippedTests), strings.Join(res.SkippedTests, ", "))
	}
	if len(res.QuarantinedItems) > 0 {
		fmt.Fprintf(w, "  WARNING: %d work item(s) abandoned after repeated worker crashes/timeouts (coverage gap): %s\n",
			len(res.QuarantinedItems), strings.Join(res.QuarantinedItems, ", "))
	}
	if res.LeakedGoroutines > 0 {
		fmt.Fprintf(w, "  WARNING: %d unit-test goroutine(s) abandoned after timeouts; they kept running past their tests\n",
			res.LeakedGoroutines)
	}
}

// Mapping prints the §6.2 mapping statistics.
func Mapping(w io.Writer, res *campaign.Result) {
	fmt.Fprintf(w, "Mapping statistics for %s: sharing %.1f%% of %d conf-using tests, %d/%d tests with uncertain objects (%d objects of %d)\n",
		res.App, 100*res.SharingRate(), res.ConfUsingTests,
		res.UncertainTests, res.NumTests, res.TotalUncertain, res.TotalConfs)
}

// Hypothesis prints the §7.2 hypothesis-testing statistics.
func Hypothesis(w io.Writer, res *campaign.Result) {
	fmt.Fprintf(w, "Hypothesis testing for %s: %d first-trial signals, %d filtered as nondeterministic, %d homogeneous-invalid, %d confirmation trials\n",
		res.App, res.FirstTrialSignals, res.FilteredByHypothesis, res.HomoInvalid, res.ConfirmationTrials)
}

// Full prints everything for one campaign.
func Full(w io.Writer, res *campaign.Result) {
	Table5(w, res)
	Findings(w, res)
	Mapping(w, res)
	Hypothesis(w, res)
	fmt.Fprintf(w, "Elapsed: %v\n", res.Elapsed)
}

// JSON writes campaign results for reportgen: the bytes of a
// json.Encoder with SetIndent("", "  "), newline included. The compact
// document streams through a canonjson.Indenter, which indents it on its
// way to w, so the indented document is never held.
func JSON(w io.Writer, results []*campaign.Result) error {
	iw := canonjson.NewIndenter(w)
	if err := json.NewEncoder(iw).Encode(results); err != nil {
		return err
	}
	return iw.Flush()
}

// Markdown renders one campaign as a Markdown section for EXPERIMENTS.md.
func Markdown(w io.Writer, res *campaign.Result) {
	fmt.Fprintf(w, "### %s\n\n", res.App)
	fmt.Fprintf(w, "| stage | instances |\n|---|---|\n")
	fmt.Fprintf(w, "| Original | %d |\n", res.Counts.Original)
	fmt.Fprintf(w, "| After pre-run | %d |\n", res.Counts.AfterPreRun)
	fmt.Fprintf(w, "| After uncertainty | %d |\n", res.Counts.AfterUncertainty)
	fmt.Fprintf(w, "| Executed | %d |\n", res.Counts.Executed)
	fmt.Fprintf(w, "| Saved by execution cache | %d |\n\n", res.Counts.ExecutionsSaved)
	fmt.Fprintf(w, "Reported: %d (%d true / %d FP), missed: %d. Sharing %.1f%%. First-trial %d, filtered %d.\n\n",
		len(res.Reported), res.TruePositives, res.FalsePositives, len(res.Missed),
		100*res.SharingRate(), res.FirstTrialSignals, res.FilteredByHypothesis)
	if len(res.Reported) > 0 {
		fmt.Fprintf(w, "| parameter | verdict | why |\n|---|---|---|\n")
		for _, r := range res.Reported {
			verdict := "true problem"
			if r.Truth != confkit.SafetyUnsafe {
				verdict = "false positive"
			}
			fmt.Fprintf(w, "| `%s` | %s | %s |\n", r.Param, verdict, clip(r.Why, 120))
		}
		fmt.Fprintln(w)
	}
}

// Explain renders the campaign's verdict-forensics triage report as
// Markdown: one section per reported parameter carrying the evidence of
// its first convicting instance — canonical assignment, round-0 arms,
// trial counts, the first divergent config read, a harness-log excerpt,
// and the copy-pasteable repro command. This is the paper's §7.1 manual
// triage (57 reports hand-analyzed down to 41 true problems) made
// data-driven. Shared by `zebraconf -mode explain` and reportgen
// -explain, so the interactive and the archived reports render
// identically. param filters to one parameter ("" = all); naming a
// parameter the campaign did not report is an error, so scripts
// grepping the output fail loudly instead of reading an empty report.
func Explain(w io.Writer, res *campaign.Result, param string) error {
	reports := res.Reported
	if param != "" {
		var filtered []campaign.ParamReport
		for _, r := range res.Reported {
			if r.Param == param {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("report: parameter %q was not reported by the %s campaign", param, res.App)
		}
		reports = filtered
	}
	fmt.Fprintf(w, "# Verdict forensics — %s\n\n", res.App)
	fmt.Fprintf(w, "%d reported parameter(s): %d true problem(s), %d false positive(s) against seeded ground truth.\n\n",
		len(res.Reported), res.TruePositives, res.FalsePositives)
	for _, r := range reports {
		explainParam(w, r)
	}
	return nil
}

func explainParam(w io.Writer, r campaign.ParamReport) {
	fmt.Fprintf(w, "## `%s`\n\n", r.Param)
	verdict := "true problem"
	if r.Truth != confkit.SafetyUnsafe {
		verdict = "false positive"
	}
	fmt.Fprintf(w, "- Ground truth: **%s** (%s)\n", r.Truth, verdict)
	if r.Why != "" {
		fmt.Fprintf(w, "- Why: %s\n", r.Why)
	}
	fmt.Fprintf(w, "- Confirming tests (%d): %s\n", len(r.Tests), strings.Join(r.Tests, ", "))
	fmt.Fprintf(w, "- Min p-value: %.3g\n", r.MinP)
	if r.StopReason != "" {
		fmt.Fprintf(w, "- Confirmation: %d round(s), %d trials, stopped: %s\n", r.Rounds, r.Trials, r.StopReason)
	}
	ev := r.Evidence
	if ev == nil {
		fmt.Fprintf(w, "\n_No evidence record (campaign ran with -evidence-max 0)._\n\n")
		return
	}
	fmt.Fprintf(w, "- Convicting instance: `%s` — test `%s`, confirmation round %d, seed %d\n",
		ev.Instance, ev.Test, ev.Round, ev.Seed)
	fmt.Fprintf(w, "- Repro: `%s`\n", ev.Repro)
	fmt.Fprintf(w, "- Trials: hetero %d fail / %d pass, homo %d fail / %d pass\n",
		ev.HeteroFail, ev.HeteroPass, ev.HomoFail, ev.HomoPass)
	if ev.Msg != "" {
		fmt.Fprintf(w, "- Failure: %s\n", clip(ev.Msg, 200))
	}
	if ev.VerdictOnly {
		fmt.Fprintf(w, "\n_Record degraded to verdict-only: the campaign-wide -evidence-max budget was exhausted before this instance (log and read trace stripped)._\n\n")
		return
	}
	if len(ev.Assign) > 0 {
		fmt.Fprintf(w, "\nHeterogeneous assignment:\n\n")
		fmt.Fprintf(w, "| entity | parameter | assigned value |\n|---|---|---|\n")
		for _, kv := range ev.Assign {
			fmt.Fprintf(w, "| %s[%d] | `%s` | `%s` |\n", kv.Entity, kv.Index, kv.Param, kv.Value)
		}
	}
	if len(ev.Arms) > 0 {
		fmt.Fprintf(w, "\nRound-0 arms:\n\n")
		fmt.Fprintf(w, "| arm | seed | outcome | execution |\n|---|---|---|---|\n")
		for _, a := range ev.Arms {
			outcome := "pass"
			if a.Failed {
				outcome = "fail"
			}
			src := "ran here"
			if a.Cached {
				src = "reused from cache (digest " + clip(a.Digest, 12) + ")"
			} else if a.Digest != "" {
				src = "ran here (digest " + clip(a.Digest, 12) + ")"
			}
			fmt.Fprintf(w, "| %s | %d | %s | %s |\n", a.Name, a.Seed, outcome, src)
		}
	}
	if first, earlier, ok := ev.DivergentPair(); ok {
		fmt.Fprintf(w, "\nFirst divergent read: #%d %s\n", ev.FirstDivergent, first.String())
		fmt.Fprintf(w, "(diverges from the earlier %s)\n", earlier.String())
	} else {
		fmt.Fprintf(w, "\nFirst divergent read: none observed (%d reads recorded", len(ev.Reads))
		if ev.ReadsDropped > 0 {
			fmt.Fprintf(w, ", %d dropped past the cap", ev.ReadsDropped)
		}
		fmt.Fprintf(w, ")\n")
	}
	if logs := ev.RenderLog(); len(logs) > 0 {
		fmt.Fprintf(w, "\nHarness log:\n\n```\n")
		for _, l := range logs {
			fmt.Fprintln(w, l)
		}
		fmt.Fprintf(w, "```\n")
	}
	fmt.Fprintln(w)
}

// Summary aggregates several campaigns into the paper's headline numbers
// (57 reported, 41 true).
type Summary struct {
	Reported        int
	TruePositives   int
	FalsePositives  int
	Missed          int
	Executed        int64
	ExecutionsSaved int64
	FirstTrial      int
	Filtered        int
	SkippedTests    int
}

// Summarize folds campaign results.
func Summarize(results []*campaign.Result) Summary {
	var s Summary
	for _, r := range results {
		s.Reported += len(r.Reported)
		s.TruePositives += r.TruePositives
		s.FalsePositives += r.FalsePositives
		s.Missed += len(r.Missed)
		s.Executed += r.Counts.Executed
		s.ExecutionsSaved += r.Counts.ExecutionsSaved
		s.FirstTrial += r.FirstTrialSignals
		s.Filtered += r.FilteredByHypothesis
		s.SkippedTests += len(r.SkippedTests)
	}
	return s
}

// UniqueParams counts distinct reported parameters across campaigns (the
// shared-library parameters appear in several apps).
func UniqueParams(results []*campaign.Result) (total, trueOnes int) {
	seen := map[string]confkit.Safety{}
	for _, r := range results {
		for _, p := range r.Reported {
			seen[p.Param] = p.Truth
		}
	}
	for _, truth := range seen {
		total++
		if truth == confkit.SafetyUnsafe {
			trueOnes++
		}
	}
	return total, trueOnes
}

// OverallMissed lists seeded-unsafe parameters no campaign reported: the
// union-level miss count, the fair analog of the paper's aggregate result
// (a parameter found through any application's suite counts as found).
func OverallMissed(results []*campaign.Result, schemas []*confkit.Registry) []string {
	reported := map[string]bool{}
	for _, r := range results {
		for _, p := range r.Reported {
			reported[p.Param] = true
		}
	}
	missed := map[string]bool{}
	for _, schema := range schemas {
		for _, p := range schema.Params() {
			if p.Truth == confkit.SafetyUnsafe && !reported[p.Name] {
				missed[p.Name] = true
			}
		}
	}
	var out []string
	for p := range missed {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// SortResults orders campaigns by app name for stable output.
func SortResults(results []*campaign.Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].App < results[j].App })
}

func clip(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
