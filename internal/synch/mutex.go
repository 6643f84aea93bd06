// Package synch provides simulated synchronization between threads and
// implements the paper's §4 remedy for priority inversion under an SFQ
// leaf: "priority inversion can be avoided by transferring the weight of
// the blocked thread to the thread that is blocking it. Such a transfer
// will ensure that the blocking thread will have a weight (and hence, the
// CPU allocation) that is at least as large as the weight of the blocked
// thread."
//
// A Mutex hands ownership to waiters in FIFO order. While a thread waits,
// its weight is donated to the current owner (when the leaf scheduler is
// SFQ and transfer is enabled), and re-donated if ownership changes before
// the waiter gets its turn.
package synch

import (
	"fmt"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Mutex is a simulated lock. It is driven from thread programs via
// TryLock/Unlock; blocking and waking go through the machine.
type Mutex struct {
	machine *cpu.Machine
	sfq     *sched.SFQ // non-nil: donate waiter weights to the owner
	name    string

	owner     *sched.Thread
	waiters   []*sched.Thread
	donations map[*sched.Thread]sched.Donation // by waiter

	// Contentions counts TryLock calls that had to wait.
	Contentions int
}

// NewMutex returns a mutex for threads running on m. If leaf is non-nil,
// waiter weights are transferred to the owner for the duration of the
// wait (the paper's priority-inversion avoidance); it must be the SFQ
// scheduler of the leaf class the participating threads share.
func NewMutex(name string, m *cpu.Machine, leaf *sched.SFQ) *Mutex {
	if m == nil {
		panic("synch: nil machine")
	}
	return &Mutex{
		machine:   m,
		sfq:       leaf,
		name:      name,
		donations: make(map[*sched.Thread]sched.Donation),
	}
}

// Owner returns the current owner, or nil.
func (mu *Mutex) Owner() *sched.Thread { return mu.owner }

// Waiters returns the number of queued waiters.
func (mu *Mutex) Waiters() int { return len(mu.waiters) }

// TryLock attempts to take the mutex for t. On success (the mutex was
// free) it returns true. Otherwise t is queued, its weight is donated to
// the owner, and false is returned — the calling program must then return
// cpu.Block(); when the mutex is handed over, t is woken already owning
// it.
func (mu *Mutex) TryLock(t *sched.Thread) bool {
	if t == nil {
		panic("synch: TryLock(nil)")
	}
	if mu.owner == t {
		panic(fmt.Sprintf("synch: %v relocking %s", t, mu.name))
	}
	if mu.owner == nil {
		mu.owner = t
		return true
	}
	for _, w := range mu.waiters {
		if w == t {
			panic(fmt.Sprintf("synch: %v already waiting on %s", t, mu.name))
		}
	}
	mu.waiters = append(mu.waiters, t)
	mu.Contentions++
	if mu.sfq != nil {
		mu.donations[t] = mu.sfq.Donate(t, mu.owner)
	}
	return false
}

// Unlock releases the mutex, which t must own. Donations made to t are
// revoked; the first waiter (if any) becomes the owner, receives the
// remaining waiters' donations, and is woken.
func (mu *Mutex) Unlock(t *sched.Thread) {
	if mu.owner != t {
		panic(fmt.Sprintf("synch: %v unlocking %s owned by %v", t, mu.name, mu.owner))
	}
	if mu.sfq != nil {
		for w, d := range mu.donations {
			mu.sfq.Revoke(d)
			delete(mu.donations, w)
		}
	}
	if len(mu.waiters) == 0 {
		mu.owner = nil
		return
	}
	next := mu.waiters[0]
	mu.waiters = mu.waiters[1:]
	mu.owner = next
	if mu.sfq != nil {
		for _, w := range mu.waiters {
			mu.donations[w] = mu.sfq.Donate(w, next)
		}
	}
	if !mu.machine.Wake(next) {
		panic(fmt.Sprintf("synch: handing %s to %v which is not blocked", mu.name, next))
	}
}

// CriticalLoop is a program that repeatedly acquires Mutex, computes CS
// inside the critical section, releases, computes Outside, then sleeps
// Think. Outside and Think may be zero. AcquireDelays records, per
// acquisition, how long the thread waited for the lock.
type CriticalLoop struct {
	Mutex   *Mutex
	Thread  *sched.Thread
	CS      sched.Work
	Outside sched.Work
	Think   sim.Time
	// Rounds bounds the number of lock/unlock cycles; 0 means forever.
	Rounds int

	// AcquireDelays[i] is the wall time between requesting and holding
	// the lock the i-th time.
	AcquireDelays []sim.Time

	phase       loopPhase
	requestedAt sim.Time
	done        int
}

type loopPhase int

const (
	phAcquire loopPhase = iota
	phWokenOwner
	phCSDone
	phOutsideDone
)

// Next implements cpu.Program. Each call is the completion of the
// previous action; the phase names what that previous action was about to
// achieve.
func (c *CriticalLoop) Next(now sim.Time) cpu.Action {
	if c.Mutex == nil || c.Thread == nil || c.CS <= 0 {
		panic("synch: CriticalLoop misconfigured")
	}
	for {
		switch c.phase {
		case phAcquire:
			if c.Rounds > 0 && c.done >= c.Rounds {
				return cpu.Exit()
			}
			c.requestedAt = now
			if c.Mutex.TryLock(c.Thread) {
				c.AcquireDelays = append(c.AcquireDelays, 0)
				c.phase = phCSDone
				return cpu.Compute(c.CS)
			}
			// Blocked; Unlock hands us ownership and wakes us.
			c.phase = phWokenOwner
			return cpu.Block()
		case phWokenOwner:
			if c.Mutex.Owner() != c.Thread {
				panic(fmt.Sprintf("synch: %v woke without owning %s", c.Thread, c.Mutex.name))
			}
			c.AcquireDelays = append(c.AcquireDelays, now-c.requestedAt)
			c.phase = phCSDone
			return cpu.Compute(c.CS)
		case phCSDone:
			c.Mutex.Unlock(c.Thread)
			c.done++
			c.phase = phOutsideDone
			if c.Outside > 0 {
				return cpu.Compute(c.Outside)
			}
		case phOutsideDone:
			c.phase = phAcquire
			if c.Think > 0 {
				return cpu.Sleep(c.Think)
			}
		}
	}
}
