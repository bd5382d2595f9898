package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sort"
	"time"

	"zebraconf/internal/core/launch"
	"zebraconf/internal/obs"
)

// CampaignSummary is one GET /api/campaigns row.
type CampaignSummary struct {
	ID          string `json:"id"`
	App         string `json:"app"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// QueuePosition is 1-based among still-queued campaigns; 0 otherwise.
	QueuePosition int    `json:"queue_position,omitempty"`
	RunID         string `json:"run_id,omitempty"`
	Error         string `json:"error,omitempty"`
}

// ReportedParam is one reported parameter in a finished campaign's
// detail — the REST rendering of campaign.ParamReport.
type ReportedParam struct {
	Param string   `json:"param"`
	Truth string   `json:"truth"`
	Tests []string `json:"tests,omitempty"`
	MinP  float64  `json:"min_p,omitempty"`
}

// Counts summarizes a finished campaign's execution economics.
type Counts struct {
	Executions      int64   `json:"executions"`
	ExecutionsSaved int64   `json:"executions_saved"`
	TruePositives   int     `json:"true_positives"`
	FalsePositives  int     `json:"false_positives"`
	MakespanSeconds float64 `json:"makespan_seconds"`
}

// CampaignDetail is the GET /api/campaigns/{id} payload: the summary
// plus the live PR 6 status API views (status/workers/params come from
// the campaign's own observer) and, once done, the reported set and
// counts. RunID links the server ledger record so `-mode diff` works
// across submitted runs.
type CampaignDetail struct {
	CampaignSummary
	Request  launch.Spec         `json:"request"`
	Status   *obs.CampaignStatus `json:"status,omitempty"`
	Workers  []obs.WorkerStatus  `json:"workers,omitempty"`
	Params   []obs.ParamStatus   `json:"params,omitempty"`
	Reported []ReportedParam     `json:"reported,omitempty"`
	Counts   *Counts             `json:"counts,omitempty"`
}

// ServiceStatus is the GET /api/status payload.
type ServiceStatus struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Campaigns     int     `json:"campaigns"`
	QueueDepth    int     `json:"queue_depth"`
	Running       string  `json:"running,omitempty"` // running campaign ID
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339)
}

func (c *Campaign) summary(queuePos int) CampaignSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CampaignSummary{
		ID:            c.id,
		App:           c.spec.App,
		State:         c.state,
		SubmittedAt:   fmtTime(c.submitted),
		StartedAt:     fmtTime(c.started),
		FinishedAt:    fmtTime(c.finished),
		QueuePosition: queuePos,
		RunID:         c.runID,
		Error:         c.errMsg,
	}
}

func (c *Campaign) detail(queuePos int) CampaignDetail {
	d := CampaignDetail{CampaignSummary: c.summary(queuePos)}
	c.mu.Lock()
	d.Request = c.spec
	o, res := c.o, c.res
	c.mu.Unlock()
	cs := o.Campaign()
	d.Status = &cs
	d.Workers = o.Workers()
	d.Params = o.Params()
	if res != nil {
		d.Reported = make([]ReportedParam, 0, len(res.Reported))
		for _, p := range res.Reported {
			d.Reported = append(d.Reported, ReportedParam{
				Param: p.Param,
				Truth: p.Truth.String(),
				Tests: p.Tests,
				MinP:  p.MinP,
			})
		}
		d.Counts = &Counts{
			Executions:      res.Counts.Executed,
			ExecutionsSaved: res.Counts.ExecutionsSaved,
			TruePositives:   res.TruePositives,
			FalsePositives:  res.FalsePositives,
			MakespanSeconds: res.Elapsed.Seconds(),
		}
	}
	return d
}

// queuePositions maps campaign ID → 1-based position in the FIFO queue.
func (s *Server) queuePositions() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := make(map[string]int, len(s.queue))
	for i, c := range s.queue {
		pos[c.id] = i + 1
	}
	return pos
}

// Serve binds the REST API and blocks until the listener fails or Close
// shuts it down (returning nil then). The returned-by-reference bound
// address is reported through ready, when non-nil, once listening.
func (s *Server) Serve(ready chan<- string) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.handler()}
	s.mu.Lock()
	closed := s.closed
	s.shutdown = func() {
		srv.Close()
	}
	s.mu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	s.logf("REST API on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/campaigns", s.handleList)
	mux.HandleFunc("GET /api/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if s.opts.Obs != nil && s.opts.Obs.Metrics != nil {
			s.opts.Obs.Metrics.WritePrometheus(w)
		}
	})
	return s.auth(mux)
}

// auth guards /api/* behind the shared bearer token. /metrics stays
// open: the exposition format is the Prometheus-scraper convention and
// carries no campaign payloads.
func (s *Server) auth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.opts.Token != "" && len(r.URL.Path) >= 5 && r.URL.Path[:5] == "/api/" {
			if r.Header.Get("Authorization") != "Bearer "+s.opts.Token {
				apiError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func apiJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func apiError(w http.ResponseWriter, code int, msg string) {
	apiJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := launch.DecodeSpec(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return
	}
	apiJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": StateQueued})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	pos := s.queuePositions()
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	cs := make([]*Campaign, 0, len(ids))
	for _, id := range ids {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]CampaignSummary, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.summary(pos[c.id]))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	apiJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		apiError(w, http.StatusNotFound, "no such campaign: "+id)
		return
	}
	apiJSON(w, http.StatusOK, c.detail(s.queuePositions()[id]))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.Cancel(id)
	if err != nil {
		apiError(w, http.StatusNotFound, err.Error())
		return
	}
	apiJSON(w, http.StatusOK, map[string]string{"id": id, "state": state})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	campaigns := len(s.campaigns)
	depth := len(s.queue)
	running := ""
	for _, id := range s.order {
		c := s.campaigns[id]
		c.mu.Lock()
		if c.state == StateRunning {
			running = c.id
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	apiJSON(w, http.StatusOK, ServiceStatus{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Campaigns:     campaigns,
		QueueDepth:    depth,
		Running:       running,
	})
}
