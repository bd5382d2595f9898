package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress prints the live campaign snapshot to a writer (normally
// stderr) on a fixed interval: instances done/total, executions per
// second, and the running verdict tallies. It keeps no state of its own:
// Observer.Event starts it on campaign_start and stops it on
// campaign_finish, and every line is Observer.Campaign() — the numbers
// /api/campaign and -mode watch show. A nil *Progress does nothing.
type Progress struct {
	w        io.Writer
	interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewProgress returns a reporter writing to w every interval (default
// 2s when interval <= 0).
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Progress{w: w, interval: interval}
}

// begin starts the render loop over o's campaign snapshots.
func (p *Progress) begin(o *Observer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop(o, p.stop, p.done)
}

// finish stops the render loop and prints a final summary line.
func (p *Progress) finish(o *Observer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	p.render(o.Campaign(), "done")
}

func (p *Progress) loop(o *Observer, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.render(o.Campaign(), "…")
		}
	}
}

func (p *Progress) render(cs CampaignStatus, tag string) {
	fmt.Fprintf(p.w, "[zebraconf %s] %d/%d instances · %d execs (%.1f/s) · cache %.1f%% (%d saved) · safe=%d unsafe=%d filtered=%d homo-invalid=%d · %.1fs %s\n",
		cs.App, cs.InstancesDone, cs.Instances, cs.Executions, cs.ExecRate,
		100*cs.CacheHitRate, cs.ExecutionsSaved,
		cs.Safe, cs.Unsafe, cs.Filtered, cs.HomoInvalid,
		cs.ElapsedSeconds, tag)
}
