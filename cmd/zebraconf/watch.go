package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"zebraconf/internal/core/flight"
	"zebraconf/internal/obs"
)

// runWatch implements -mode watch: poll a running campaign's status API
// (-http on the campaign process, -http-addr here) and render a live
// terminal dashboard. Exits 0 when the campaign reports done — or when
// the server goes away after at least one successful poll, which is how
// a finished campaign normally looks from outside (the debug server
// shuts down with the process). A first poll that fails is an error:
// the address is wrong or nothing is running there.
func runWatch(addr string, interval time.Duration) int {
	if addr == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode watch needs -http-addr (the campaign's -http address)")
		return 2
	}
	base := normalizeAddr(addr)
	if interval <= 0 {
		interval = time.Second
	}
	client := &http.Client{Timeout: 5 * time.Second}
	polled := false
	for {
		var cs obs.CampaignStatus
		if err := getJSON(client, base+"/api/campaign", &cs); err != nil {
			if polled {
				fmt.Fprintf(os.Stderr, "[watch] %s is gone — campaign ended\n", base)
				return 0
			}
			fmt.Fprintf(os.Stderr, "zebraconf: polling %s: %v\n", base, err)
			return 1
		}
		var ws []obs.WorkerStatus
		_ = getJSON(client, base+"/api/workers", &ws) // workers are optional (in-process runs)
		// Perf is doubly optional: sampling may be off (503), and older
		// campaign builds predate the endpoint entirely (404). Either way
		// the dashboard just omits the sparkline rows.
		var pa obs.PerfAPI
		if err := getJSON(client, base+"/api/perf", &pa); err != nil {
			pa.History = nil
		}
		polled = true
		renderWatch(os.Stdout, base, cs, ws, pa)
		if cs.Done {
			return 0
		}
		time.Sleep(interval)
	}
}

// normalizeAddr turns the forms users paste (":6060", "host:6060", a
// full URL) into a base URL.
func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func renderWatch(w io.Writer, base string, cs obs.CampaignStatus, ws []obs.WorkerStatus, pa obs.PerfAPI) {
	// Home the cursor and clear: a repaint, not a scroll.
	fmt.Fprint(w, "\x1b[H\x1b[2J")
	state := cs.Phase
	if cs.Done {
		state = "done"
	}
	fmt.Fprintf(w, "zebraconf watch · %s · app %s · phase %s\n\n", base, orDash(cs.App), state)

	items := cs.ItemsQueued + cs.ItemsRunning + cs.ItemsDone
	fmt.Fprintf(w, "  items      %s %d/%d done · %d running · %d queued\n",
		bar(cs.ItemsDone, items, 24), cs.ItemsDone, items, cs.ItemsRunning, cs.ItemsQueued)
	fmt.Fprintf(w, "  instances  %d/%d\n", cs.InstancesDone, cs.Instances)
	fmt.Fprintf(w, "  execs      %d (%.1f/s) · cache %.1f%% (%d saved)\n",
		cs.Executions, cs.ExecRate, 100*cs.CacheHitRate, cs.ExecutionsSaved)
	fmt.Fprintf(w, "  verdicts   safe=%d unsafe=%d filtered=%d homo-invalid=%d · %d unsafe params\n",
		cs.Safe, cs.Unsafe, cs.Filtered, cs.HomoInvalid, cs.UnsafeParams)
	fmt.Fprintf(w, "  elapsed    %s", fmtSecs(cs.ElapsedSeconds))
	if cs.Done {
		fmt.Fprintf(w, " · finished\n")
	} else if cs.EtaSeconds > 0 {
		fmt.Fprintf(w, " · eta %s\n", fmtSecs(cs.EtaSeconds))
	} else {
		fmt.Fprintf(w, " · eta —\n")
	}

	if len(pa.History) > 0 {
		util := make([]float64, len(pa.History))
		cache := make([]float64, len(pa.History))
		for i, s := range pa.History {
			util[i] = s.Utilization()
			cache[i] = s.CacheHitRate()
		}
		fmt.Fprintf(w, "  util       %s %.0f%% busy · cache %s (%d samples @ %dms)\n",
			flight.Sparkline(util, 1, 24), 100*util[len(util)-1],
			flight.Sparkline(cache, 1, 24), pa.Samples, pa.PeriodMS)
	}

	if len(ws) > 0 {
		fmt.Fprintf(w, "\n  %-5s %-8s %-9s %9s %7s %7s %6s %8s %6s\n",
			"slot", "pid", "state", "last-hb", "items", "execs", "gor", "heap", "stall")
		for _, wk := range ws {
			hb := "—"
			if wk.LastHeartbeatS >= 0 {
				hb = fmt.Sprintf("%.1fs ago", wk.LastHeartbeatS)
			}
			fmt.Fprintf(w, "  %-5d %-8d %-9s %9s %7d %7d %6d %8s %6d\n",
				wk.Slot, wk.PID, wk.State, hb, wk.ItemsDone, wk.Executions,
				wk.Goroutines, fmtBytes(wk.HeapBytes), wk.Stalls)
		}
	}
}

func bar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat(" ", width) + "]"
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(" ", width-fill) + "]"
}

func fmtSecs(s float64) string {
	d := time.Duration(s * float64(time.Second)).Round(time.Second)
	return d.String()
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
