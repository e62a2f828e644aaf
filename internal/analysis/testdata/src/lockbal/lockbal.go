// Fixture for the lockbal analyzer: mutexes not unlocked on every
// path, locked twice, or held across blocking operations.
package lockbal

import (
	"net/http"
	"sync"
)

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// EarlyReturnLeak unlocks on the happy path only: the error return
// leaves the mutex held.
func (c *counter) EarlyReturnLeak(fail bool) error {
	c.mu.Lock()
	if fail {
		return errFail // want `c\.mu is still locked on this return path`
	}
	c.mu.Unlock()
	return nil
}

// DoubleLock self-deadlocks: the second Lock waits on the first.
func (c *counter) DoubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want `c\.mu is locked twice on this path with no unlock between`
	c.n++
	c.mu.Unlock()
	c.mu.Unlock()
}

// HeldAcrossReceive blocks on a channel while holding the lock: every
// other goroutine contending for c.mu stalls until the receive fires.
func (c *counter) HeldAcrossReceive(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = <-ch // want `c\.mu is held across a channel receive`
}

// HeldAcrossSelect holds the lock across a select with no default.
func (c *counter) HeldAcrossSelect(a, b chan int) {
	c.mu.Lock()
	select { // want `c\.mu is held across a select with no default clause`
	case v := <-a:
		c.n = v
	case v := <-b:
		c.n = v
	}
	c.mu.Unlock()
}

// HeldAcrossHTTP performs an http.Client round-trip under the lock.
func (c *counter) HeldAcrossHTTP(cl *http.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := cl.Get("http://example.com/") // want `c\.mu is held across an http\.Client round-trip \(Get\)`
	if err == nil {
		resp.Body.Close()
	}
}

// FallsOffLocked never unlocks at all and falls off the end of the
// body with the lock held.
func (c *counter) FallsOffLocked() { // want `c\.mu is still locked when the function falls off the end of its body`
	c.mu.Lock()
	c.n++
}

// RLockLeak leaks the read lock on one branch.
func (c *counter) RLockLeak(skip bool) int {
	c.rw.RLock()
	if skip {
		return 0 // want `c\.rw \(RLock\) is still locked on this return path`
	}
	n := c.n
	c.rw.RUnlock()
	return n
}

// DeferUnlock is the canonical clean pattern: the deferred unlock
// discharges every return path.
func (c *counter) DeferUnlock(fail bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if fail {
		return errFail
	}
	return nil
}

// BranchUnlock unlocks explicitly on both paths: clean.
func (c *counter) BranchUnlock(fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errFail
	}
	c.n++
	c.mu.Unlock()
	return nil
}

// GroupLeader drops a lock whose unlock is deferred, waits without it,
// and relocks it: the defer still covers every return, and the receive
// runs with the lock released. Clean.
func (c *counter) GroupLeader(ch chan int, fail func() bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.n < 10 {
		if fail() {
			return errFail
		}
		c.mu.Unlock()
		v := <-ch
		c.mu.Lock()
		c.n += v
	}
	return nil
}

// TryRelock retakes a released lock with TryLock, falling back to Lock:
// the defer covers both outcomes. Clean.
func (c *counter) TryRelock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Unlock()
	if c.mu.TryLock() {
		c.n++
		return
	}
	c.mu.Lock()
	c.n++
}

// RelockNoDefer is the same unlock/relock loop without the defer: both
// returns leave the mutex held.
func (c *counter) RelockNoDefer(ch chan int, fail func() bool) error {
	c.mu.Lock()
	for c.n < 10 {
		if fail() {
			return errFail // want `c\.mu is still locked on this return path`
		}
		c.mu.Unlock()
		v := <-ch
		c.mu.Lock()
		c.n += v
	}
	return nil // want `c\.mu is still locked on this return path`
}

// TryLockGuard only holds the lock inside the guarded branch: clean.
func (c *counter) TryLockGuard() {
	if c.mu.TryLock() {
		c.n++
		c.mu.Unlock()
	}
}

// NonBlockingSelect holds the lock across a select WITH a default
// clause, which never blocks: clean.
func (c *counter) NonBlockingSelect(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-ch:
		c.n = v
	default:
	}
}

// Suppressed holds the lock across a receive with a written reason.
func (c *counter) Suppressed(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// lint:ignore lockbal fixture demonstrates a deliberate handoff under lock
	c.n = <-ch
}

var errFail = errOf("fail")

type errOf string

func (e errOf) Error() string { return string(e) }
