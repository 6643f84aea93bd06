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
	heap    sim.TagHeap[int, *prioEntry]
	seq     uint64
}

// prioEntry is one thread's queue position. Tag is the complement of the
// priority read at enqueue: ^p orders exactly in reverse of p for every
// int (where -p overflows at math.MinInt), so higher priorities pop
// first. Seq round-robins equal priorities FIFO. The entry is queued
// while the thread is runnable.
type prioEntry struct {
	sim.Tagged[int, *prioEntry]
	t *Thread
}

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
		e = &prioEntry{t: t}
		e.Item = e
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
	if e.Queued() {
		panic(fmt.Sprintf("priority: Enqueue of runnable thread %v", t))
	}
	e.Tag = ^t.Priority
	e.Seq = s.seq
	s.seq++
	s.heap.Push(&e.Tagged)
}

// Remove implements Scheduler.
func (s *Priority) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("priority: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(&e.Tagged)
}

// Pick implements Scheduler.
func (s *Priority) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	return s.heap.Min().Item.t
}

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
	e.Seq = s.seq
	s.seq++
	s.heap.Fix(&e.Tagged)
}

// Preempts implements Scheduler: a strictly higher-priority wakeup
// preempts immediately.
func (s *Priority) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || !re.Queued() || !we.Queued() {
		return false
	}
	return we.Tag < re.Tag
}

// Len implements Scheduler.
func (s *Priority) Len() int { return s.heap.Len() }

// Forget drops state for an exited thread.
func (s *Priority) Forget(t *Thread) {
	if e := s.entries.Get(t); e != nil {
		if e.Queued() {
			panic(fmt.Sprintf("priority: Forget of runnable thread %v", t))
		}
		s.entries.Delete(t)
	}
}
