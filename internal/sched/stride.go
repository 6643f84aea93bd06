package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// Stride is Waldspurger & Weihl's deterministic proportional-share
// scheduler (MIT TM-528), the fix for lottery scheduling's short-interval
// unfairness and, as the paper's related work notes, a variant of WFQ.
// Each thread advances a pass value by used/weight; the minimum pass runs.
// On wakeup a thread resumes from max(own pass, global pass), so it cannot
// bank credit while asleep.
type Stride struct {
	quantum sim.Time
	entries Table[*strideEntry]
	heap    sim.TagHeap[*strideEntry]
	global  float64 // pass of the most recently dispatched thread
	seq     uint64
	total   float64
}

// strideEntry is one thread's pass. Tag is the pass; Seq breaks ties FIFO
// among equal passes; the entry is queued while the thread is runnable.
type strideEntry struct {
	sim.Tagged[*strideEntry]
	t *Thread
}

// NewStride returns a stride scheduler; quantum <= 0 selects
// DefaultQuantum.
func NewStride(quantum sim.Time) *Stride {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Stride{quantum: quantum}
}

// entryFor returns t's entry, creating it on first contact.
func (s *Stride) entryFor(t *Thread) *strideEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &strideEntry{t: t}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *Stride) Name() string { return "stride" }

// Pass returns t's current pass value, for tests.
func (s *Stride) Pass(t *Thread) float64 {
	if e := s.entries.Get(t); e != nil {
		return e.Tag
	}
	return 0
}

// Enqueue implements Scheduler.
func (s *Stride) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.Queued() {
		panic(fmt.Sprintf("stride: Enqueue of runnable thread %v", t))
	}
	if e.Tag < s.global {
		e.Tag = s.global
	}
	e.Seq = s.seq
	s.seq++
	s.heap.Push(&e.Tagged)
	s.total += t.Weight
}

// Remove implements Scheduler.
func (s *Stride) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("stride: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(&e.Tagged)
	s.total -= t.Weight
}

// Pick implements Scheduler: minimum pass first.
func (s *Stride) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	e := s.heap.Min()
	s.global = e.Tag
	return e.Item.t
}

// Quantum implements Scheduler.
func (s *Stride) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler: pass advances in proportion to the service
// actually consumed, the natural generalization of "pass += stride" to
// variable-length quanta.
func (s *Stride) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("stride: Charge of non-runnable thread %v", t))
	}
	e.Tag += float64(used) / t.Weight
	if runnable {
		e.Seq = s.seq
		s.seq++
		s.heap.Fix(&e.Tagged)
	} else {
		s.heap.Remove(&e.Tagged)
		s.total -= t.Weight
	}
}

// Preempts implements Scheduler.
func (s *Stride) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// Len implements Scheduler.
func (s *Stride) Len() int { return s.heap.Len() }

// TotalWeight implements WeightedLen.
func (s *Stride) TotalWeight() float64 { return s.total }
