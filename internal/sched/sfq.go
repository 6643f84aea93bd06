package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// SFQ is the Start-time Fair Queuing scheduler of the paper (§3), used both
// as a leaf scheduler and, via internal/core, as the algorithm that
// schedules every intermediate node of the hierarchy.
//
// Each thread f carries a start tag S_f and a finish tag F_f. When quantum
// j is requested, S_f = max(v(t), F_f); when it completes after l
// instructions, F_f = S_f + l/phi_f. Threads run in increasing start-tag
// order. The virtual time v(t) is the start tag of the thread in service
// while the scheduler is busy, and the maximum finish tag ever assigned
// while it is idle.
//
// The hot path is allocation- and map-free: per-thread entries live in an
// ID-ordered Table, which keeps tag state across sleeps and hsfq_move
// round-trips, and the runnable set is an intrusive sim.TagHeap.
type SFQ struct {
	quantum   sim.Time
	entries   Table[*sfqEntry]
	heap      sim.TagHeap[float64, *sfqEntry]
	inService *sfqEntry
	maxFinish float64
	seq       uint64
	total     float64        // total effective weight of runnable threads
	donated   Table[float64] // priority-inversion weight transfers (§4)
}

// sfqEntry is one thread's tags. Tag is the start tag S; Seq breaks ties
// FIFO among equal start tags; the entry is queued while the thread is
// runnable.
type sfqEntry struct {
	sim.Tagged[float64, *sfqEntry]
	t       *Thread
	finish  float64
	quantum sim.Time // per-thread override; 0 selects the scheduler default
}

// NewSFQ returns an SFQ scheduler granting the given quantum per
// scheduling decision; quantum <= 0 selects DefaultQuantum.
func NewSFQ(quantum sim.Time) *SFQ {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &SFQ{quantum: quantum}
}

// entryFor returns t's entry, creating it on first contact.
func (s *SFQ) entryFor(t *Thread) *sfqEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &sfqEntry{t: t}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// SetThreadQuantum overrides the quantum for one thread. SFQ's fairness
// and delay bounds (Eqs. 3 and 8) are expressed in per-thread maximum
// quantum lengths l_f^max, so giving latency-sensitive threads shorter
// quanta tightens exactly their terms of the bound. A zero duration
// restores the scheduler default.
func (s *SFQ) SetThreadQuantum(t *Thread, q sim.Time) {
	if q < 0 {
		panic(fmt.Sprintf("sfq: negative quantum for %v", t))
	}
	s.entryFor(t).quantum = q
}

// Name implements Scheduler.
func (s *SFQ) Name() string { return "sfq" }

// VirtualTime returns v(t): the start tag of the thread in service, the
// minimum runnable start tag between decisions, or the maximum finish tag
// ever assigned while idle.
func (s *SFQ) VirtualTime() float64 {
	if s.inService != nil {
		return s.inService.Tag
	}
	if s.heap.Len() > 0 {
		return s.heap.Min().Tag
	}
	return s.maxFinish
}

// Tags returns the current start and finish tags of t. Threads that have
// never been enqueued report zero tags.
func (s *SFQ) Tags(t *Thread) (start, finish float64) {
	if e := s.entries.Get(t); e != nil {
		return e.Tag, e.finish
	}
	return 0, 0
}

// Enqueue implements Scheduler. The thread is stamped with
// S = max(v(now), F), so a thread returning from sleep cannot claim service
// for the time it was absent.
func (s *SFQ) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.Queued() {
		panic(fmt.Sprintf("sfq: Enqueue of runnable thread %v", t))
	}
	e.Tag = sim.Maxf(s.VirtualTime(), e.finish)
	e.Seq = s.seq
	s.seq++
	s.heap.Push(&e.Tagged)
	s.total += s.EffectiveWeight(t)
}

// Remove implements Scheduler.
func (s *SFQ) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("sfq: Remove of non-runnable thread %v", t))
	}
	if s.inService == e {
		panic(fmt.Sprintf("sfq: Remove of in-service thread %v", t))
	}
	s.heap.Remove(&e.Tagged)
	s.total -= s.EffectiveWeight(t)
}

// Pick implements Scheduler: the runnable thread with the minimum start
// tag, ties broken in arrival order.
func (s *SFQ) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	s.inService = s.heap.Min().Item
	return s.inService.t
}

// entryOf returns t's entry, or nil: the in-service entry when it holds t,
// which is every Quantum and Charge of a picked thread, else a table
// lookup.
func (s *SFQ) entryOf(t *Thread) *sfqEntry {
	if e := s.inService; e != nil && e.t == t {
		return e
	}
	return s.entries.Get(t)
}

// Quantum implements Scheduler.
func (s *SFQ) Quantum(t *Thread, now sim.Time) sim.Time {
	if e := s.entryOf(t); e != nil && e.quantum != 0 {
		return e.quantum
	}
	return s.quantum
}

// Charge implements Scheduler: the completed quantum's finish tag is
// F = S + used/phi (Eq. 2), and if the thread stays runnable its next
// quantum is stamped immediately with S = max(v, F). Since v equals the
// charged thread's own start tag while it is in service and F >= S, that
// reduces to S = F for a continuing thread, exactly as in the paper's
// worked example.
func (s *SFQ) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entryOf(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("sfq: Charge of non-runnable thread %v", t))
	}
	e.finish = e.Tag + float64(used)/s.EffectiveWeight(t)
	if e.finish > s.maxFinish {
		s.maxFinish = e.finish
	}
	s.inService = nil
	if runnable {
		e.Tag = e.finish
		e.Seq = s.seq
		s.seq++
		s.heap.Fix(&e.Tagged)
	} else {
		s.heap.Remove(&e.Tagged)
		s.total -= s.EffectiveWeight(t)
	}
}

// Preempts implements Scheduler. SFQ is quantum-driven: a wakeup never cuts
// a quantum short; the new thread competes at the next decision point. This
// is what bounds the paper's Fig. 9 scheduling latency by the quantum.
func (s *SFQ) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// Len implements Scheduler.
func (s *SFQ) Len() int { return s.heap.Len() }

// TotalWeight implements WeightedLen.
func (s *SFQ) TotalWeight() float64 { return s.total }

// Forget discards tag state for an exited thread so the entry table does
// not grow without bound in long simulations.
func (s *SFQ) Forget(t *Thread) {
	if e := s.entries.Get(t); e != nil {
		if e.Queued() {
			panic(fmt.Sprintf("sfq: Forget of runnable thread %v", t))
		}
		s.entries.Delete(t)
	}
}
