package sched

import (
	"fmt"
	"math"

	"hsfq/internal/sim"
)

// EDF is an Earliest Deadline First scheduler for hard real-time leaf
// classes (§1: "Conventional schedulers such as the Earliest Deadline First
// ... are suitable for such applications").
//
// A thread's job deadline is assigned when it is enqueued: now +
// t.Deadline(). Periodic programs wake the thread exactly at each release,
// so the deadline of job j released at r_j is r_j + D. Threads with no
// period and no relative deadline are treated as background (infinite
// deadline). The tag queue's Tag is the absolute deadline of the
// thread's current job.
type EDF struct {
	tagQueue[sim.Time, struct{}]
	quantum sim.Time
}

// NewEDF returns an EDF scheduler. quantum bounds how long a job may run
// before the scheduler re-examines the queue; <= 0 means jobs run until
// they block or a wakeup preempts them.
func NewEDF(quantum sim.Time) *EDF {
	if quantum <= 0 {
		quantum = sim.Time(1 << 62)
	}
	return &EDF{quantum: quantum}
}

// Name implements Scheduler.
func (s *EDF) Name() string { return "edf" }

// Deadline returns the absolute deadline of t's current job, or the maximum
// time if t is background or not runnable.
func (s *EDF) Deadline(t *Thread) sim.Time {
	if e := s.entries.Get(t); e != nil && e.Queued() {
		return e.Tag
	}
	return sim.Time(math.MaxInt64)
}

// Enqueue implements Scheduler.
func (s *EDF) Enqueue(t *Thread, now sim.Time) {
	e := s.admit(t, "edf")
	if d := t.Deadline(); d > 0 {
		e.Tag = now + d
	} else {
		e.Tag = sim.Time(math.MaxInt64)
	}
	s.push(e)
}

// Pick implements Scheduler: earliest absolute deadline first.
func (s *EDF) Pick(now sim.Time) *Thread { return s.head() }

// Quantum implements Scheduler.
func (s *EDF) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler. EDF keeps the job's deadline across
// preemptions; a blocked job gets a fresh deadline at its next release.
func (s *EDF) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("edf: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(&e.Tagged)
	}
}

// Preempts implements Scheduler: a woken job with an earlier deadline
// preempts immediately.
func (s *EDF) Preempts(running, woken *Thread, now sim.Time) bool {
	return s.preempts(running, woken)
}

// SchedulableEDF reports whether a set of periodic demands (compute time
// per period) is schedulable under EDF on a dedicated CPU: sum(C_i/T_i) <=
// 1 (Liu & Layland). Used by the QoS manager's deterministic admission
// control for hard real-time classes.
func SchedulableEDF(compute, period []sim.Time) bool {
	if len(compute) != len(period) {
		panic("sched: SchedulableEDF with mismatched slice lengths")
	}
	u := 0.0
	for i := range compute {
		if period[i] <= 0 {
			return false
		}
		u += float64(compute[i]) / float64(period[i])
	}
	return u <= 1.0
}
