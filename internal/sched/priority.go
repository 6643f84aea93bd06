package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// Priority is a preemptive static-priority scheduler (higher Priority
// first, round-robin within a level). §3 item 4 of the paper names this
// family as the cheaper alternative that fails the requirements:
// "Although static priority algorithms have lower complexity, they
// provide no protection, and hence, have been found to be unsatisfactory
// for multimedia operating systems [15]" — the ablation-protection
// experiment demonstrates the starvation that sentence refers to.
//
// The tag queue's Tag is the complement of the priority read at enqueue:
// ^p orders exactly in reverse of p for every int (where -p overflows at
// math.MinInt), so higher priorities pop first, and Seq round-robins
// equal priorities FIFO.
type Priority struct {
	tagQueue[int, struct{}]
	quantum sim.Time
}

// NewPriority returns a static-priority scheduler; quantum <= 0 selects
// DefaultQuantum (the quantum only round-robins equal priorities).
func NewPriority(quantum sim.Time) *Priority {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Priority{quantum: quantum}
}

// Name implements Scheduler.
func (s *Priority) Name() string { return "priority" }

// Enqueue implements Scheduler. The thread's Priority field is read at
// enqueue time.
func (s *Priority) Enqueue(t *Thread, now sim.Time) {
	e := s.admit(t, "priority")
	e.Tag = ^t.Priority
	s.push(e)
}

// Pick implements Scheduler.
func (s *Priority) Pick(now sim.Time) *Thread { return s.head() }

// Quantum implements Scheduler.
func (s *Priority) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler: equal priorities round-robin via the
// refreshed sequence number; higher priorities simply keep running.
func (s *Priority) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("priority: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(&e.Tagged)
		return
	}
	s.requeue(e)
}

// Preempts implements Scheduler: a strictly higher-priority wakeup
// preempts immediately.
func (s *Priority) Preempts(running, woken *Thread, now sim.Time) bool {
	return s.preempts(running, woken)
}

// Forget drops state for an exited thread.
func (s *Priority) Forget(t *Thread) { s.forget(t, "priority") }
