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
//
// The tag queue's Tag is the virtual deadline vd, so its heap orders
// requests by (vd, seq); Pick filters them for eligibility.
type EEVDF struct {
	tagQueue[float64, eevdfRequest]
	quantum sim.Time
	reqWork Work
	vtime   float64
	total   float64
	picked  *tagEntry[float64, eevdfRequest]
}

// eevdfRequest is what EEVDF keeps of a thread's request beside its
// virtual deadline.
type eevdfRequest struct {
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

// Name implements Scheduler.
func (s *EEVDF) Name() string { return "eevdf" }

// VirtualTime returns the system virtual time, for tests.
func (s *EEVDF) VirtualTime() float64 { return s.vtime }

// Enqueue implements Scheduler: a joining thread's request becomes
// eligible no earlier than the current virtual time, so sleeping banks no
// credit.
func (s *EEVDF) Enqueue(t *Thread, now sim.Time) {
	e := s.admit(t, "eevdf")
	if e.x.ve < s.vtime {
		e.x.ve = s.vtime
	}
	e.Tag = e.x.ve + float64(s.reqWork)/t.Weight
	e.x.served = 0
	s.push(e)
	s.total += t.Weight
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
		minVE := items[0].Item.x.ve
		for _, x := range items {
			if x.Item.x.ve < minVE {
				minVE = x.Item.x.ve
			}
		}
		s.vtime = minVE
		best = s.eligibleMinVD()
	}
	s.picked = best
	return best.t
}

// eligibleMinVD returns the eligible request with the earliest (vd, Seq),
// or nil; the heap must not be empty. The heap top has the earliest of
// all, so an eligible top, the common case, is the answer in O(1); only
// an ineligible top costs a scan of the rest.
func (s *EEVDF) eligibleMinVD() *tagEntry[float64, eevdfRequest] {
	items := s.heap.Items()
	if top := items[0].Item; top.x.ve <= s.vtime {
		return top
	}
	var best *tagEntry[float64, eevdfRequest]
	for _, x := range items[1:] {
		if x.Item.x.ve > s.vtime {
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
	e.x.served += used
	for e.x.served >= s.reqWork {
		// Request fulfilled: issue the next one back to back.
		e.x.served -= s.reqWork
		e.x.ve = e.Tag
		e.Tag = e.x.ve + float64(s.reqWork)/t.Weight
	}
	if runnable {
		s.requeue(e)
	} else {
		s.heap.Remove(&e.Tagged)
		s.total -= t.Weight
	}
}

// Preempts implements Scheduler.
func (s *EEVDF) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// TotalWeight returns the total weight of the runnable threads.
func (s *EEVDF) TotalWeight() float64 { return s.total }
