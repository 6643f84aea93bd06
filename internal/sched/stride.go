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
//
// The tag queue's Tag is the pass.
type Stride struct {
	tagQueue[float64, struct{}]
	quantum sim.Time
	global  float64 // pass of the most recently dispatched thread
	total   float64
}

// NewStride returns a stride scheduler; quantum <= 0 selects
// DefaultQuantum.
func NewStride(quantum sim.Time) *Stride {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Stride{quantum: quantum}
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
	e := s.admit(t, "stride")
	if e.Tag < s.global {
		e.Tag = s.global
	}
	s.push(e)
	s.total += t.Weight
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
		s.requeue(e)
	} else {
		s.heap.Remove(&e.Tagged)
		s.total -= t.Weight
	}
}

// Preempts implements Scheduler.
func (s *Stride) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// TotalWeight returns the total weight of the runnable threads.
func (s *Stride) TotalWeight() float64 { return s.total }
