// Command reportgen renders archived campaign JSON (written by `zebraconf
// -json`): as the Markdown tables EXPERIMENTS.md embeds, or with -explain
// as the verdict-forensics triage report — which `zebraconf -mode explain`
// can only produce by re-running the campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/report"
)

func main() {
	var (
		in      = flag.String("in", "campaign.json", "campaign JSON produced by zebraconf -json")
		explain = flag.Bool("explain", false, "render the verdict-forensics triage report instead of the results tables")
		param   = flag.String("param", "", "with -explain: report only this parameter")
	)
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	var results []*campaign.Result
	if err := json.NewDecoder(f).Decode(&results); err != nil {
		fmt.Fprintf(os.Stderr, "reportgen: decode %s: %v\n", *in, err)
		os.Exit(1)
	}
	report.SortResults(results)

	if *explain {
		// Same renderer as `zebraconf -mode explain`: the archived JSON
		// carries the evidence records, so triage works offline too.
		for _, res := range results {
			if err := report.Explain(os.Stdout, res, *param); err != nil {
				fmt.Fprintln(os.Stderr, "reportgen:", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("## Campaign results")
	fmt.Println()
	for _, res := range results {
		report.Markdown(os.Stdout, res)
	}
	s := report.Summarize(results)
	uniq, trueOnes := report.UniqueParams(results)
	fmt.Printf("**Overall:** %d reports, %d distinct parameters (%d true problems, %d false positives as scored by the registries' ground truth), %d unit-test executions.\n",
		s.Reported, uniq, trueOnes, uniq-trueOnes, s.Executed)
}
