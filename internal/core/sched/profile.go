package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// profileVersion is the on-disk format version; a file with a different
// version is rejected rather than misread.
const profileVersion = 1

// profileAlpha is the EWMA weight of the newest observation. Durations
// drift with host load and code changes, so recent campaigns should
// dominate, but a single noisy run should not erase history.
const profileAlpha = 0.5

// Estimate is one (app, test) duration estimate: an exponentially
// weighted moving average of observed work-item wall clocks, in seconds,
// and the number of observations folded in. TrialSeconds and Trials are
// the per-trial decomposition — EWMA of seconds-per-trial and of the
// item's trial count — so predictions track sequential stopping instead
// of skewing when round counts shrink: a whole-item EWMA learned under
// 8-round confirmation over-predicts forever once early stopping cuts
// most items to 2-3 rounds. Both are additive fields: profiles written
// before trial accounting load with them zero and predictions fall back
// to Seconds.
type Estimate struct {
	Seconds      float64 `json:"seconds"`
	Samples      int64   `json:"samples"`
	TrialSeconds float64 `json:"trial_seconds,omitempty"`
	Trials       float64 `json:"trials,omitempty"`
}

// Profile is a persistent store of per-(app, unit test) work-item
// durations, the scheduler's prediction source. It is concurrency-safe:
// campaign workers record completions into it while the dispatcher reads
// predictions out. The on-disk format is a small versioned JSON document
// ({"version":1,"apps":{app:{test:{seconds,samples}}}}); maps marshal
// with sorted keys, so saving the same profile twice produces identical
// bytes.
type Profile struct {
	mu   sync.Mutex
	apps map[string]map[string]*Estimate
}

type profileFile struct {
	Version int                             `json:"version"`
	Apps    map[string]map[string]*Estimate `json:"apps"`
}

// NewProfile returns an empty profile (every prediction misses).
func NewProfile() *Profile {
	return &Profile{apps: make(map[string]map[string]*Estimate)}
}

// LoadProfile reads a profile from path. A missing file is not an
// error — it is the cold-campaign case and yields an empty profile — but
// a present-and-unreadable one is.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewProfile(), nil
	}
	if err != nil {
		return nil, err
	}
	var f profileFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sched: profile %s: %w", path, err)
	}
	if f.Version != profileVersion {
		return nil, fmt.Errorf("sched: profile %s: version %d, want %d", path, f.Version, profileVersion)
	}
	p := NewProfile()
	for app, tests := range f.Apps {
		m := make(map[string]*Estimate, len(tests))
		for test, e := range tests {
			if e != nil && e.Seconds >= 0 {
				cp := *e
				m[test] = &cp
			}
		}
		p.apps[app] = m
	}
	return p, nil
}

// Record folds one observed work-item duration into the estimate.
func (p *Profile) Record(app, test string, seconds float64) {
	p.RecordTrials(app, test, seconds, 0)
}

// RecordTrials folds one observed work-item duration and its unit-test
// trial count into the estimate. trials == 0 means "unknown" (an item
// that generated no instances, or a caller without trial accounting) and
// updates only the whole-item average.
func (p *Profile) RecordTrials(app, test string, seconds float64, trials int64) {
	if p == nil || seconds < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.apps[app]
	if m == nil {
		m = make(map[string]*Estimate)
		p.apps[app] = m
	}
	e := m[test]
	if e == nil {
		e = &Estimate{Seconds: seconds, Samples: 1}
		if trials > 0 {
			e.TrialSeconds = seconds / float64(trials)
			e.Trials = float64(trials)
		}
		m[test] = e
		return
	}
	e.Seconds = profileAlpha*seconds + (1-profileAlpha)*e.Seconds
	e.Samples++
	if trials > 0 {
		perTrial := seconds / float64(trials)
		if e.Trials == 0 {
			e.TrialSeconds = perTrial
			e.Trials = float64(trials)
		} else {
			e.TrialSeconds = profileAlpha*perTrial + (1-profileAlpha)*e.TrialSeconds
			e.Trials = profileAlpha*float64(trials) + (1-profileAlpha)*e.Trials
		}
	}
}

// Predict returns the estimated duration for one (app, test), and
// whether the profile has ever observed it. When the per-trial
// decomposition is warm it predicts per-trial cost × expected trials —
// tracking sequential stopping — else the whole-item EWMA.
func (p *Profile) Predict(app, test string) (seconds float64, ok bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.apps[app][test]; e != nil {
		if e.TrialSeconds > 0 && e.Trials > 0 {
			return e.TrialSeconds * e.Trials, true
		}
		return e.Seconds, true
	}
	return 0, false
}

// Len returns the number of (app, test) estimates held.
func (p *Profile) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.apps {
		n += len(m)
	}
	return n
}

// Save writes the profile to path atomically (temp file + rename), so a
// campaign killed mid-save never leaves a torn profile for the next run.
func (p *Profile) Save(path string) error {
	p.mu.Lock()
	data, err := json.MarshalIndent(profileFile{Version: profileVersion, Apps: p.apps}, "", "  ")
	p.mu.Unlock()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profile-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
