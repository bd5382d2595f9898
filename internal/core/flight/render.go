package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// sparkRunes are the eighth-block glyphs sparklines quantize into.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values (each in [0, max]) as a block-glyph strip,
// downsampling to width columns by averaging. Shared by -mode profile and
// -mode watch.
func Sparkline(values []float64, max float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if max <= 0 {
		for _, v := range values {
			if v > max {
				max = v
			}
		}
		if max <= 0 {
			max = 1
		}
	}
	if width > len(values) {
		width = len(values)
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		lo, hi := c*len(values)/width, (c+1)*len(values)/width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		avg := sum / float64(hi-lo) / max
		if avg < 0 {
			avg = 0
		}
		if avg > 1 {
			avg = 1
		}
		idx := int(avg * float64(len(sparkRunes)))
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

func fmtUS(us int64) string {
	s := float64(us) / 1e6
	switch {
	case s >= 60:
		return fmt.Sprintf("%dm%04.1fs", int(s)/60, s-float64(int(s)/60*60))
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.0fms", s*1000)
	}
}

// topItems is how many critical-path / straggler rows the report shows.
const topItems = 10

// RenderProfile writes the Markdown/ASCII profile report.
func RenderProfile(w io.Writer, a *Analysis) {
	fmt.Fprintf(w, "# Campaign profile\n\n")
	fmt.Fprintf(w, "makespan %s", fmtUS(a.MakespanUS))
	if a.CriticalPathUS > 0 && a.MakespanUS > 0 {
		fmt.Fprintf(w, " · critical path %s (%.0f%% of makespan)",
			fmtUS(a.CriticalPathUS), 100*float64(a.CriticalPathUS)/float64(a.MakespanUS))
	}
	fmt.Fprintf(w, "\n")

	if len(a.Phases) > 0 {
		fmt.Fprintf(w, "\n## Phases\n\n")
		names := make([]string, 0, len(a.Phases))
		for p := range a.Phases {
			names = append(names, p)
		}
		// Campaign order, not lexical: prerun gates instances gates scoring.
		order := map[string]int{"prerun": 0, "instances": 1, "scoring": 2}
		sort.Slice(names, func(i, j int) bool {
			oi, iok := order[names[i]]
			oj, jok := order[names[j]]
			if iok && jok {
				return oi < oj
			}
			if iok != jok {
				return iok
			}
			return names[i] < names[j]
		})
		total := float64(a.MakespanUS) / 1e6
		for _, p := range names {
			secs := a.Phases[p]
			bar := ""
			if total > 0 {
				n := int(secs / total * 30)
				if n > 30 {
					n = 30
				}
				bar = strings.Repeat("█", n)
			}
			fmt.Fprintf(w, "  %-10s %8.2fs  %s\n", p, secs, bar)
		}
	}

	if len(a.CriticalPath) > 0 {
		fmt.Fprintf(w, "\n## Critical path\n\n")
		fmt.Fprintf(w, "The run's longest wait chain: each step is what the level above\nwas serialized behind (%d steps total; structural levels first,\nthen the steps that own the most un-blamed time).\n\n", len(a.CriticalPath))
		// The structural spine: campaign, phases, distribute/workers.
		var deeper int
		for _, step := range a.CriticalPath {
			if step.Depth > 2 {
				deeper++
				continue
			}
			indent := strings.Repeat("  ", step.Depth)
			fmt.Fprintf(w, "%s%s  %s (self %s)", indent, step.Name, fmtUS(step.DurUS), fmtUS(step.SelfUS))
			if step.Test != "" {
				fmt.Fprintf(w, "  test=%s", step.Test)
			}
			if step.Param != "" {
				fmt.Fprintf(w, "  param=%s", step.Param)
			}
			if step.Item != 0 {
				fmt.Fprintf(w, "  item=%d", step.Item)
			}
			fmt.Fprintf(w, "\n")
		}
		if deeper > 0 {
			fmt.Fprintf(w, "  … %d deeper steps folded into the table below\n", deeper)
		}
		// Top contributors by self time: the steps to attack to shorten
		// the run, with the span attrs a repro needs.
		top := make([]PathStep, len(a.CriticalPath))
		copy(top, a.CriticalPath)
		sort.Slice(top, func(i, j int) bool { return top[i].SelfUS > top[j].SelfUS })
		if len(top) > topItems {
			top = top[:topItems]
		}
		fmt.Fprintf(w, "\nTop critical-path contributors (by self time):\n\n")
		for _, step := range top {
			fmt.Fprintf(w, "  %9s  %-10s", fmtUS(step.SelfUS), step.Name)
			if step.Test != "" {
				fmt.Fprintf(w, "  test=%s", step.Test)
			}
			if step.Param != "" {
				fmt.Fprintf(w, "  param=%s", step.Param)
			}
			if step.Item != 0 {
				fmt.Fprintf(w, "  item=%d", step.Item)
			}
			fmt.Fprintf(w, "\n")
		}
	}

	if len(a.Items) > 0 {
		fmt.Fprintf(w, "\n## Slowest items\n\n")
		fmt.Fprintf(w, "p50 %.2fs · p95 %.2fs · %d items", a.ItemP50, a.ItemP95, len(a.Items))
		if a.QueueWaitP95 > 0 {
			fmt.Fprintf(w, " · queue-wait p95 %.2fs", a.QueueWaitP95)
		}
		fmt.Fprintf(w, "\n\n")
		n := len(a.Items)
		if n > topItems {
			n = topItems
		}
		for _, it := range a.Items[:n] {
			fmt.Fprintf(w, "  %8.2fs  %s", it.Seconds, it.Test)
			if it.Worker >= 0 {
				fmt.Fprintf(w, "  worker=%d", it.Worker)
			}
			fmt.Fprintf(w, "\n")
		}
		if len(a.Items) > n {
			fmt.Fprintf(w, "  … %d more (full distribution in the perf series)\n", len(a.Items)-n)
		}
		fmt.Fprintf(w, "\nRepro one item's verdicts: zebraconf -mode explain -param <param> (see test rows above)\n")
	}

	if len(a.Workers) > 0 {
		fmt.Fprintf(w, "\n## Worker utilization\n\n")
		for _, ws := range a.Workers {
			name := fmt.Sprintf("worker %d", ws.Slot)
			if ws.Slot < 0 {
				name = "pool"
			}
			pct := 0.0
			if a.MakespanUS > 0 {
				pct = 100 * float64(ws.BusyUS) / float64(a.MakespanUS)
			}
			fmt.Fprintf(w, "  %-9s %5.1f%% busy  %s  %d items\n", name, pct, Sparkline(ws.Timeline, 1, 30), ws.Items)
		}
	}

	if len(a.UtilSeries) > 0 {
		fmt.Fprintf(w, "\n## Sampler series (%d samples)\n\n", len(a.UtilSeries))
		fmt.Fprintf(w, "  slots busy  %s\n", Sparkline(a.UtilSeries, 1, 48))
		fmt.Fprintf(w, "  cache hits  %s\n", Sparkline(a.CacheSeries, 1, 48))
		fmt.Fprintf(w, "  heap bytes  %s\n", Sparkline(a.HeapSeries, 0, 48))
	}

	sv := a.Savings
	if sv.ExecutionsSaved > 0 || len(sv.CacheHits) > 0 || sv.TrialsSavedEarly > 0 || sv.TrialsReallocated > 0 {
		fmt.Fprintf(w, "\n## Savings attribution\n\n")
		if sv.ExecutionsSaved > 0 {
			fmt.Fprintf(w, "  executions saved       %d\n", sv.ExecutionsSaved)
		}
		if len(sv.CacheHits) > 0 {
			scopes := make([]string, 0, len(sv.CacheHits))
			for s := range sv.CacheHits {
				scopes = append(scopes, s)
			}
			sort.Strings(scopes)
			for _, s := range scopes {
				fmt.Fprintf(w, "  cache hits (%s)%s %d\n", s, strings.Repeat(" ", 8-len(s)), sv.CacheHits[s])
			}
		}
		if sv.TrialsSavedEarly > 0 {
			fmt.Fprintf(w, "  trials saved (early)   %d\n", sv.TrialsSavedEarly)
		}
		if sv.TrialsReallocated > 0 {
			fmt.Fprintf(w, "  trials reallocated     %d\n", sv.TrialsReallocated)
		}
	}
}
