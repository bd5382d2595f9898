package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"zebraconf/internal/core/launch"
)

// Client drives the REST API — shared by `zebraconf -mode
// submit|watch|cancel` and the integration tests.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Token is sent as the Authorization bearer when non-empty.
	Token string
	// HTTP overrides the default client (tests inject timeouts).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, strings.TrimRight(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("server: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts one campaign and returns its ID.
func (c *Client) Submit(spec launch.Spec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/api/campaigns", spec, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// List fetches the queue view.
func (c *Client) List() ([]CampaignSummary, error) {
	var out []CampaignSummary
	err := c.do(http.MethodGet, "/api/campaigns", nil, &out)
	return out, err
}

// Get fetches one campaign's detail.
func (c *Client) Get(id string) (CampaignDetail, error) {
	var out CampaignDetail
	err := c.do(http.MethodGet, "/api/campaigns/"+id, nil, &out)
	return out, err
}

// Cancel cancels one campaign and returns its resulting state.
func (c *Client) Cancel(id string) (string, error) {
	var out struct {
		State string `json:"state"`
	}
	if err := c.do(http.MethodDelete, "/api/campaigns/"+id, nil, &out); err != nil {
		return "", err
	}
	return out.State, nil
}

// Status fetches the server-level snapshot.
func (c *Client) Status() (ServiceStatus, error) {
	var out ServiceStatus
	err := c.do(http.MethodGet, "/api/status", nil, &out)
	return out, err
}

// Wait polls until the campaign reaches a terminal state (or the
// timeout elapses; 0 waits forever).
func (c *Client) Wait(id string, every, timeout time.Duration) (CampaignDetail, error) {
	if every <= 0 {
		every = time.Second
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		d, err := c.Get(id)
		if err != nil {
			return d, err
		}
		switch d.State {
		case StateDone, StateFailed, StateCancelled:
			return d, nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return d, fmt.Errorf("server: campaign %s still %s after %s", id, d.State, timeout)
		}
		time.Sleep(every)
	}
}
