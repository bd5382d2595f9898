package main

import (
	"fmt"
	"os"
	"runtime/debug"

	"zebraconf/internal/core/ledger"
)

// buildVersion labels the zebraconf_build_info metric. Module builds
// carry a VCS-stamped version; plain `go build` in a work tree reports
// devel.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// runDiff implements -mode diff: compare two ledger records and report
// reported-set regressions and makespan deltas. Exit 0 when the
// reported sets are identical, 1 on any delta, 2 on usage errors.
func runDiff(dir, app, runs string) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode diff needs -ledger <dir>")
		return 2
	}
	filter := app
	if filter == "all" {
		filter = ""
	}
	if filter == "" && runs == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode diff compares one app's runs; pass a single -app (or explicit -diff-runs)")
		return 2
	}
	recs, err := ledger.Read(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 2
	}
	a, b, err := ledger.PickPair(recs, filter, runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 2
	}
	d := ledger.Diff(a, b)
	d.Render(os.Stdout)
	if d.Clean() {
		return 0
	}
	return 1
}
