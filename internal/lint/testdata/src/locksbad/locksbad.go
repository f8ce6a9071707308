// Package locksbad seeds lock-discipline violations for the locks
// analyzer — Lock without a dominating release and channel sends inside
// critical sections — alongside the disciplined shapes (defer,
// straight-line release, conditional release-on-every-path).
package locksbad

import "sync"

// Counter is the canonical lock-guarded struct.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Incr follows the defer discipline.
func (c *Counter) Incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Get releases on the straight-line path.
func (c *Counter) Get() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

// Reset releases conditionally, but on every path.
func (c *Counter) Reset(hard bool) {
	c.mu.Lock()
	if hard {
		c.n = 0
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

// LeakOnReturn can return with the lock still held.
func (c *Counter) LeakOnReturn(skip bool) {
	c.mu.Lock() // want:locks
	if skip {
		return
	}
	c.mu.Unlock()
}

// NeverUnlocked locks and forgets.
func (c *Counter) NeverUnlocked() {
	c.mu.Lock() // want:locks
	c.n++
}

// SendLocked sends on a channel inside the critical section: a blocked
// receiver deadlocks the lock.
func (c *Counter) SendLocked(ch chan<- int) {
	c.mu.Lock()
	ch <- c.n // want:locks
	c.mu.Unlock()
}
