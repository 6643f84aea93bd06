package sched

import "hsfq/internal/sim"

// RoundRobin is a single-queue round-robin scheduler with a fixed quantum.
// It stands in for the "unmodified kernel" baseline of the paper's Fig. 7
// overhead experiment: the cheapest predictable scheduler against which the
// hierarchical scheduler's cost is compared.
type RoundRobin struct {
	threadQueue
	quantum sim.Time
}

// NewRoundRobin returns a round-robin scheduler; quantum <= 0 selects
// DefaultQuantum.
func NewRoundRobin(quantum sim.Time) *RoundRobin {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &RoundRobin{threadQueue: threadQueue{who: "rr"}, quantum: quantum}
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "rr" }

// Pick implements Scheduler: the head of the queue.
func (r *RoundRobin) Pick(now sim.Time) *Thread { return r.head() }

// Quantum implements Scheduler.
func (r *RoundRobin) Quantum(t *Thread, now sim.Time) sim.Time { return r.quantum }

// Charge implements Scheduler: the charged thread rotates to the tail if it
// stays runnable.
func (r *RoundRobin) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	x := r.front(t)
	r.list.Remove(x)
	if runnable {
		r.list.PushBack(x)
	}
}

// Preempts implements Scheduler: round-robin never preempts mid-quantum.
func (r *RoundRobin) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// FIFO is a run-to-block scheduler: the thread at the head of the queue
// runs until it blocks or exits. It models the SVR4 fixed-priority "system"
// discipline within a single priority and is useful as a degenerate
// baseline in fairness tests.
type FIFO struct {
	threadQueue
}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{threadQueue{who: "fifo"}} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Pick implements Scheduler.
func (f *FIFO) Pick(now sim.Time) *Thread { return f.head() }

// Quantum implements Scheduler: effectively unbounded; FIFO threads run
// until they block.
func (f *FIFO) Quantum(t *Thread, now sim.Time) sim.Time { return sim.Time(1 << 62) }

// Charge implements Scheduler: the head keeps its place unless it blocked.
func (f *FIFO) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	x := f.front(t)
	if !runnable {
		f.list.Remove(x)
	}
}

// Preempts implements Scheduler.
func (f *FIFO) Preempts(running, woken *Thread, now sim.Time) bool { return false }
