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
// deadline).
type EDF struct {
	quantum sim.Time
	entries Table[*edfEntry]
	heap    sim.Heap[*edfEntry]
	seq     uint64
}

type edfEntry struct {
	t        *Thread
	deadline sim.Time
	seq      uint64
	idx      int
}

// HeapLess implements sim.HeapItem: earliest deadline first, FIFO among
// equal deadlines.
func (e *edfEntry) HeapLess(o *edfEntry) bool {
	if e.deadline != o.deadline {
		return e.deadline < o.deadline
	}
	return e.seq < o.seq
}

// HeapIndex implements sim.HeapItem.
func (e *edfEntry) HeapIndex() *int { return &e.idx }

// NewEDF returns an EDF scheduler. quantum bounds how long a job may run
// before the scheduler re-examines the queue; <= 0 means jobs run until
// they block or a wakeup preempts them.
func NewEDF(quantum sim.Time) *EDF {
	if quantum <= 0 {
		quantum = sim.Time(1 << 62)
	}
	return &EDF{quantum: quantum}
}

// entryFor returns t's entry, creating it on first contact.
func (s *EDF) entryFor(t *Thread) *edfEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &edfEntry{t: t, idx: -1}
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *EDF) Name() string { return "edf" }

// Deadline returns the absolute deadline of t's current job, or the maximum
// time if t is background or not runnable.
func (s *EDF) Deadline(t *Thread) sim.Time {
	if e := s.entries.Get(t); e != nil && e.idx != -1 {
		return e.deadline
	}
	return sim.Time(math.MaxInt64)
}

// Enqueue implements Scheduler.
func (s *EDF) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.idx != -1 {
		panic(fmt.Sprintf("edf: Enqueue of runnable thread %v", t))
	}
	if d := t.Deadline(); d > 0 {
		e.deadline = now + d
	} else {
		e.deadline = sim.Time(math.MaxInt64)
	}
	e.seq = s.seq
	s.seq++
	s.heap.Push(e)
}

// Remove implements Scheduler.
func (s *EDF) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("edf: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(e.idx)
}

// Pick implements Scheduler: earliest absolute deadline first.
func (s *EDF) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	return s.heap.Min().t
}

// Quantum implements Scheduler.
func (s *EDF) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler. EDF keeps the job's deadline across
// preemptions; a blocked job gets a fresh deadline at its next release.
func (s *EDF) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("edf: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(e.idx)
	}
}

// Preempts implements Scheduler: a woken job with an earlier deadline
// preempts immediately.
func (s *EDF) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || re.idx == -1 || we.idx == -1 {
		return false
	}
	return we.deadline < re.deadline
}

// Len implements Scheduler.
func (s *EDF) Len() int { return s.heap.Len() }

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
