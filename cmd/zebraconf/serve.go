package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/core/server"
	"zebraconf/internal/obs"
)

// runServe implements -mode serve: the campaign-as-a-service daemon.
// It blocks until SIGINT/SIGTERM, draining the queue and aborting the
// running campaign on the way out. Every campaign's workers share the
// disk cache under stateDir.
func runServe(listen, token, stateDir string, cacheMax int64) int {
	observer := obs.New()
	observer.GaugeSet(obs.MBuildInfo, 1, "version", buildVersion(), "go", runtime.Version())
	cmd, err := workerCmd(filepath.Join(stateDir, "cache"), cacheMax)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf serve:", err)
		return 1
	}
	srv, err := server.New(server.Options{
		Addr:      listen,
		Token:     token,
		StateDir:  stateDir,
		WorkerCmd: cmd,
		Resolve:   apps.ByName,
		Obs:       observer,
		Logw:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf serve:", err)
		return 1
	}
	if token == "" {
		fmt.Fprintln(os.Stderr, "[zebraconf serve] warning: no -token; the API is unauthenticated (loopback testing only)")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "[zebraconf serve] signal received; shutting down")
		srv.Close()
		close(closed)
	}()
	if err := srv.Serve(nil); err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf serve:", err)
		srv.Close()
		return 1
	}
	<-closed
	return 0
}

// runSubmit implements -mode submit: POST one campaign and print its ID
// on stdout (one token, machine-readable — scripts capture it for
// -mode watch/cancel). With -wait it then polls to a terminal state.
func runSubmit(base, token string, spec launch.Spec, wait bool, every time.Duration) int {
	if base == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode submit needs -server URL")
		return 2
	}
	if spec.App == "" || spec.App == "all" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode submit submits one campaign; pass a single -app")
		return 2
	}
	cl := &server.Client{Base: normalizeAddr(base), Token: token}
	id, err := cl.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 1
	}
	fmt.Println(id)
	fmt.Fprintf(os.Stderr, "[zebraconf] submitted campaign %s (app %s) to %s\n", id, spec.App, base)
	if !wait {
		return 0
	}
	d, err := cl.Wait(id, every, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[zebraconf] campaign %s: %s\n", id, d.State)
	if d.State != server.StateDone {
		if d.Error != "" {
			fmt.Fprintln(os.Stderr, "zebraconf:", d.Error)
		}
		return 1
	}
	return 0
}

// runCancelCampaign implements -mode cancel.
func runCancelCampaign(base, token, id string) int {
	if base == "" || id == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode cancel needs -server URL and -campaign ID")
		return 2
	}
	cl := &server.Client{Base: normalizeAddr(base), Token: token}
	state, err := cl.Cancel(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[zebraconf] campaign %s: %s\n", id, state)
	return 0
}

// runWatchServer implements -mode watch -server URL -campaign ID:
// the same live dashboard as the -http-addr path, fed from the campaign
// service's detail endpoint instead of a run-local debug server.
func runWatchServer(base, token, id string, interval time.Duration) int {
	if id == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode watch -server needs -campaign ID")
		return 2
	}
	if interval <= 0 {
		interval = time.Second
	}
	cl := &server.Client{Base: normalizeAddr(base), Token: token}
	for {
		d, err := cl.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zebraconf:", err)
			return 1
		}
		header := fmt.Sprintf("%s/%s [%s]", normalizeAddr(base), id, d.State)
		if d.State == server.StateQueued && d.QueuePosition > 0 {
			header += fmt.Sprintf(" queue #%d", d.QueuePosition)
		}
		if d.Status != nil {
			// The service detail carries no sampler history; the sparkline
			// rows only render on the run-local -http-addr path.
			renderWatch(os.Stdout, header, *d.Status, d.Workers, obs.PerfAPI{})
		}
		switch d.State {
		case server.StateDone:
			return 0
		case server.StateFailed, server.StateCancelled:
			if d.Error != "" {
				fmt.Fprintln(os.Stderr, "zebraconf:", d.Error)
			}
			return 1
		}
		time.Sleep(interval)
	}
}
