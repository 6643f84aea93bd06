// Package sched defines the scheduling entities shared by the whole
// repository — threads, work units, and the Scheduler interface — together
// with the leaf scheduling algorithms evaluated in the paper: SFQ,
// round-robin, FIFO, fixed priority, EDF, Rate Monotonic, an SVR4-style
// time-sharing class, lottery, stride, and EEVDF.
//
// A Scheduler manages the runnable set of threads and answers one question:
// which thread runs next, and for how long. The simulated CPU
// (internal/cpu) drives a Scheduler through a strict protocol:
//
//	Enqueue(t)                 t became runnable
//	t := Pick()                choose the thread to run
//	q := Quantum(t)            how long it may run
//	... CPU runs t ...
//	Charge(t, used, runnable)  account the CPU time actually consumed
//
// Pick never removes the thread from the runnable set; Charge with
// runnable=false does, and nothing else does: a thread blocks or exits
// only while it runs, and changes class only while blocked. Between a
// Pick and its matching Charge no other Pick occurs. This mirrors the
// paper's kernel implementation, where hsfq_schedule() selects a thread,
// hsfq_update() is invoked with the duration for which the thread
// executed, and hsfq_sleep() follows the update of a thread that
// blocked.
package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// Work is an amount of CPU service, measured in instructions, the unit the
// paper uses ("let the work done by the CPU for a thread be measured by the
// number of instructions executed for the thread").
type Work int64

// ThreadState is the lifecycle state of a thread.
type ThreadState int

// Thread lifecycle states.
const (
	StateNew ThreadState = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateExited
)

var stateNames = [...]string{"new", "runnable", "running", "blocked", "exited"}

func (s ThreadState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thread is a schedulable entity. Algorithm-specific bookkeeping (tags,
// priorities, passes) is kept inside each scheduler in a Table keyed by
// the thread's ID, so the same Thread can move between leaf classes, as
// hsfq_move allows.
type Thread struct {
	// ID is unique within every machine, structure and leaf the thread
	// is registered with, and fixed once it is registered: each of them
	// keeps its per-thread state in ID order.
	ID   int
	Name string

	// Weight is the thread's share of its scheduler's bandwidth, the phi_f
	// of the paper. Proportional-share schedulers (SFQ, lottery, stride,
	// EEVDF) honor it; the others ignore it.
	Weight float64

	// Priority is used by fixed-priority schedulers; higher runs first.
	Priority int

	// Period and RelDeadline describe periodic real-time threads. Rate
	// Monotonic derives priorities from Period; EDF uses absolute deadlines
	// of Period-spaced jobs. RelDeadline defaults to Period when zero.
	Period      sim.Time
	RelDeadline sim.Time

	// State is maintained by the CPU machine, not by schedulers.
	State ThreadState

	// Accounting, maintained by the CPU machine.
	Done     Work     // total work completed
	Segments int      // completed run segments
	ReadyAt  sim.Time // when the thread last became runnable
	WokeAt   sim.Time // when the thread last transitioned blocked->runnable
	Waited   sim.Time // total time spent runnable but not running
}

// NewThread returns a thread with the given identity and weight. Weight
// must be positive; scheduling tags divide by it.
func NewThread(id int, name string, weight float64) *Thread {
	if weight <= 0 {
		panic(fmt.Sprintf("sched: thread %q with non-positive weight %v", name, weight))
	}
	return &Thread{ID: id, Name: name, Weight: weight}
}

func (t *Thread) String() string {
	if t == nil {
		return "<idle>"
	}
	return fmt.Sprintf("%s#%d", t.Name, t.ID)
}

// Deadline returns the relative deadline of the thread's jobs: RelDeadline
// if set, else Period.
func (t *Thread) Deadline() sim.Time {
	if t.RelDeadline > 0 {
		return t.RelDeadline
	}
	return t.Period
}

// Scheduler is the contract between the CPU machine and any scheduling
// algorithm, leaf or hierarchical.
type Scheduler interface {
	// Name identifies the algorithm, e.g. "sfq" or "svr4-ts".
	Name() string

	// Enqueue adds a thread to the runnable set. Called when a thread is
	// created runnable or wakes from sleep. Enqueueing a thread that is
	// already runnable is a bug and panics.
	Enqueue(t *Thread, now sim.Time)

	// Pick returns the thread that should run next, or nil if the runnable
	// set is empty. The thread stays in the runnable set; the caller must
	// follow up with Charge for the same thread before the next Pick.
	Pick(now sim.Time) *Thread

	// Quantum returns the maximum CPU time the picked thread may consume
	// before the scheduler is consulted again.
	Quantum(t *Thread, now sim.Time) sim.Time

	// Charge accounts used CPU service to t after a run segment. If
	// runnable is false the thread blocked or exited and leaves the
	// runnable set, the only way a thread leaves it; the actual quantum
	// length is known only here, the property SFQ exploits ("the length
	// of quantum is required only when it finishes execution").
	Charge(t *Thread, used Work, now sim.Time, runnable bool)

	// Preempts reports whether the wakeup of thread woken must cut short
	// the current run segment of thread running.
	Preempts(running, woken *Thread, now sim.Time) bool

	// Len returns the number of runnable threads.
	Len() int
}

// DefaultQuantum is the quantum used by schedulers that do not take an
// explicit one. The paper's experiments use 10–25 ms quanta.
const DefaultQuantum = 10 * sim.Millisecond
