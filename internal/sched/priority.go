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
type Priority struct {
	quantum sim.Time
	entries Table[*prioEntry]
	heap    sim.Heap[*prioEntry]
	seq     uint64
}

type prioEntry struct {
	t    *Thread
	prio int
	seq  uint64
	idx  int
}

// HeapLess implements sim.HeapItem: higher priority first, FIFO within a
// level.
func (e *prioEntry) HeapLess(o *prioEntry) bool {
	if e.prio != o.prio {
		return e.prio > o.prio
	}
	return e.seq < o.seq
}

// HeapIndex implements sim.HeapItem.
func (e *prioEntry) HeapIndex() *int { return &e.idx }

// NewPriority returns a static-priority scheduler; quantum <= 0 selects
// DefaultQuantum (the quantum only round-robins equal priorities).
func NewPriority(quantum sim.Time) *Priority {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Priority{quantum: quantum}
}

// entryFor returns t's entry, creating it on first contact.
func (s *Priority) entryFor(t *Thread) *prioEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &prioEntry{t: t, idx: -1}
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *Priority) Name() string { return "priority" }

// Enqueue implements Scheduler. The thread's Priority field is read at
// enqueue time.
func (s *Priority) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.idx != -1 {
		panic(fmt.Sprintf("priority: Enqueue of runnable thread %v", t))
	}
	e.prio = t.Priority
	e.seq = s.seq
	s.seq++
	s.heap.Push(e)
}

// Remove implements Scheduler.
func (s *Priority) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("priority: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(e.idx)
}

// Pick implements Scheduler.
func (s *Priority) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	return s.heap.Min().t
}

// Quantum implements Scheduler.
func (s *Priority) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler: equal priorities round-robin via the
// refreshed sequence number; higher priorities simply keep running.
func (s *Priority) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("priority: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(e.idx)
		return
	}
	e.seq = s.seq
	s.seq++
	s.heap.Fix(e.idx)
}

// Preempts implements Scheduler: a strictly higher-priority wakeup
// preempts immediately.
func (s *Priority) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || re.idx == -1 || we.idx == -1 {
		return false
	}
	return we.prio > re.prio
}

// Len implements Scheduler.
func (s *Priority) Len() int { return s.heap.Len() }

// Forget drops state for an exited thread.
func (s *Priority) Forget(t *Thread) {
	if e := s.entries.Get(t); e != nil {
		if e.idx != -1 {
			panic(fmt.Sprintf("priority: Forget of runnable thread %v", t))
		}
		s.entries.Delete(t)
	}
}
