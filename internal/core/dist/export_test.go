package dist

import "time"

// WithLimits sets the two limits only tests change: the per-item deadline,
// which is also a new worker's ready deadline (zero keeps
// DefaultItemTimeout), and a halt once maxItems items are resolved (zero
// never halts), which leaves a checkpoint to resume from. Call it before
// the run starts.
func (c *Coordinator) WithLimits(itemTimeout time.Duration, maxItems int) *Coordinator {
	c.itemTimeout, c.maxItems = itemTimeout, maxItems
	return c
}
