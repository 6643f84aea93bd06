package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// EEVDF is the Earliest Eligible Virtual Deadline First scheduler of
// Stoica, Abdel-Wahab & Jeffay (RTSS '96), cited in the paper's related
// work as a contemporaneous proportionate-share algorithm. Each runnable
// thread holds a request of nominal size reqWork; the request is eligible
// at virtual time ve and has virtual deadline vd = ve + reqWork/weight.
// System virtual time advances by used/totalWeight as work is served; the
// scheduler runs the eligible request with the earliest virtual deadline.
type EEVDF struct {
	quantum sim.Time
	reqWork Work
	entries Table[*eevdfEntry]
	heap    sim.TagHeap[float64, *eevdfEntry] // ordered by (vd, seq); eligibility filtered at Pick
	vtime   float64
	total   float64
	seq     uint64
	picked  *eevdfEntry
}

// eevdfEntry is one thread's request. Tag is the virtual deadline vd;
// Seq breaks ties FIFO among equal deadlines; the entry is queued while
// the thread is runnable.
type eevdfEntry struct {
	sim.Tagged[float64, *eevdfEntry]
	t      *Thread
	ve     float64 // virtual eligible time
	served Work    // progress within the current request
}

// NewEEVDF returns an EEVDF scheduler. reqWork is the nominal request size
// in work units (typically quantum x CPU rate); it must be positive.
func NewEEVDF(quantum sim.Time, reqWork Work) *EEVDF {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if reqWork <= 0 {
		panic("eevdf: non-positive request size")
	}
	return &EEVDF{quantum: quantum, reqWork: reqWork}
}

// entryFor returns t's entry, creating it on first contact.
func (s *EEVDF) entryFor(t *Thread) *eevdfEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &eevdfEntry{t: t}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *EEVDF) Name() string { return "eevdf" }

// VirtualTime returns the system virtual time, for tests.
func (s *EEVDF) VirtualTime() float64 { return s.vtime }

// Enqueue implements Scheduler: a joining thread's request becomes
// eligible no earlier than the current virtual time, so sleeping banks no
// credit.
func (s *EEVDF) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.Queued() {
		panic(fmt.Sprintf("eevdf: Enqueue of runnable thread %v", t))
	}
	if e.ve < s.vtime {
		e.ve = s.vtime
	}
	e.Tag = e.ve + float64(s.reqWork)/t.Weight
	e.served = 0
	e.Seq = s.seq
	s.seq++
	s.heap.Push(&e.Tagged)
	s.total += t.Weight
}

// Remove implements Scheduler.
func (s *EEVDF) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("eevdf: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(&e.Tagged)
	s.total -= t.Weight
}

// Pick implements Scheduler: the eligible request with the earliest
// virtual deadline. If no request is eligible (possible after sleeps), the
// virtual clock jumps forward to the earliest eligible time, keeping the
// scheduler work-conserving.
func (s *EEVDF) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	best := s.eligibleMinVD()
	if best == nil {
		// Jump virtual time to the earliest eligible request.
		items := s.heap.Items()
		minVE := items[0].Item.ve
		for _, x := range items {
			if x.Item.ve < minVE {
				minVE = x.Item.ve
			}
		}
		s.vtime = minVE
		best = s.eligibleMinVD()
	}
	s.picked = best
	return best.t
}

func (s *EEVDF) eligibleMinVD() *eevdfEntry {
	// The heap is ordered by vd; scan for the first eligible entry. The
	// scan is O(n) in the worst case but the heap order makes the common
	// case (heap top eligible) O(1).
	var best *eevdfEntry
	for _, x := range s.heap.Items() {
		if x.Item.ve > s.vtime {
			continue
		}
		if best == nil || x.Before(&best.Tagged) {
			best = x.Item
		}
	}
	return best
}

// Quantum implements Scheduler.
func (s *EEVDF) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler. Only the picked thread may be charged, so
// its entry is the picked one.
func (s *EEVDF) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.picked
	if e == nil || e.t != t || !e.Queued() {
		panic(fmt.Sprintf("eevdf: Charge of thread %v that was not picked", t))
	}
	s.picked = nil
	if s.total > 0 {
		s.vtime += float64(used) / s.total
	}
	e.served += used
	for e.served >= s.reqWork {
		// Request fulfilled: issue the next one back to back.
		e.served -= s.reqWork
		e.ve = e.Tag
		e.Tag = e.ve + float64(s.reqWork)/t.Weight
	}
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
func (s *EEVDF) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// Len implements Scheduler.
func (s *EEVDF) Len() int { return s.heap.Len() }

// TotalWeight implements WeightedLen.
func (s *EEVDF) TotalWeight() float64 { return s.total }
