package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// publishOnce guards the process-global expvar name: expvar panics on
// duplicate Publish, and tests may start several debug servers.
var publishOnce sync.Once

// PerfAPI is the /api/perf response: the sampler ring, oldest first,
// with the newest sample last ("current").
type PerfAPI struct {
	// PeriodMS is the sampling period in milliseconds.
	PeriodMS int64 `json:"period_ms"`
	// Samples counts every sample taken, including ring-evicted ones.
	Samples int `json:"samples"`
	// History is the ring contents, oldest first.
	History []PerfSample `json:"history"`
}

// ServeDebug starts an HTTP debug server on addr exposing:
//
//	/metrics       Prometheus text exposition of o.Metrics
//	/api/campaign  live campaign snapshot (phase, counts, ETA)
//	/api/workers   per-worker health (heartbeats, stalls, in-flight)
//	/api/params    live unsafe-parameter verdict table
//	/debug/vars    expvar (including a zebraconf_metrics snapshot)
//	/debug/pprof   the standard pprof handlers
//
// The /api endpoints answer 503 until the observer carries a Status
// tracker. It returns the bound listener address (useful with ":0") and
// a shutdown function. The server is best-effort: handler errors are
// dropped, and Serve runs on its own goroutine.
func ServeDebug(addr string, o *Observer) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	var reg *Registry
	if o != nil {
		reg = o.Metrics
	}

	publishOnce.Do(func() {
		expvar.Publish("zebraconf_metrics", expvar.Func(func() any {
			if reg == nil {
				return ""
			}
			var b strings.Builder
			_ = reg.WritePrometheus(&b)
			return b.String()
		}))
	})

	apiJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	withStatus := func(render func() any) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			if o == nil || o.Status == nil {
				http.Error(w, `{"error":"live status tracking is not enabled"}`, http.StatusServiceUnavailable)
				return
			}
			apiJSON(w, render())
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if reg == nil {
			http.Error(w, "metrics registry not enabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/api/campaign", withStatus(func() any { return o.Campaign() }))
	// Both tables render as [] when empty: withStatus has checked the
	// tracker is there, and its snapshots are never nil slices.
	mux.HandleFunc("/api/workers", withStatus(func() any { return o.Workers() }))
	mux.HandleFunc("/api/params", withStatus(func() any { return o.Params() }))
	mux.HandleFunc("/api/perf", func(w http.ResponseWriter, _ *http.Request) {
		var sampler *Sampler
		if o != nil {
			sampler = o.Sampler
		}
		if sampler == nil {
			http.Error(w, `{"error":"perf sampling is not enabled"}`, http.StatusServiceUnavailable)
			return
		}
		apiJSON(w, PerfAPI{
			PeriodMS: sampler.Period().Milliseconds(),
			Samples:  sampler.Count(),
			History:  sampler.Snapshots(),
		})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
