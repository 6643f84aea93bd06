package core

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// This file implements sched.Scheduler for Structure: the recursive
// hsfq_schedule walk, the hsfq_update tag propagation with the hsfq_sleep
// marking folded into it, and the hsfq_setrun marking of §4.

var _ sched.Scheduler = (*Structure)(nil)

// Name implements sched.Scheduler.
func (s *Structure) Name() string { return "hsfq" }

// Len implements sched.Scheduler: the number of runnable threads in the
// whole structure.
func (s *Structure) Len() int { return s.runnable }

// Enqueue implements sched.Scheduler. The thread joins its leaf's runnable
// set; if it is the first runnable thread of the leaf, the leaf — and any
// newly eligible ancestors — are marked runnable, the hsfq_setrun walk:
// "this function has to traverse the path from the leaf up the tree only
// until a node that is already runnable is found".
func (s *Structure) Enqueue(t *sched.Thread, now sim.Time) {
	n := s.byThread.Get(t)
	if n == nil {
		panic(fmt.Sprintf("core: Enqueue of unattached thread %v", t))
	}
	wasRunnable := n.leaf.Len() > 0
	n.leaf.Enqueue(t, now)
	s.runnable++
	if !wasRunnable {
		s.setRun(n)
	}
}

// setRun marks n runnable and walks up while parents become newly
// eligible. A node (re)entering its parent's runnable set is stamped with
// S = max(v(parent), F): it cannot claim credit for time spent ineligible.
func (s *Structure) setRun(n *Node) {
	for n.parent != nil && !n.run.Queued() {
		p := n.parent
		wasRunnable := p.runq.Len() > 0
		n.run.Tag = sim.Maxf(p.VirtualTime(), n.finish)
		n.run.Seq = s.seq
		s.seq++
		p.runq.Push(&n.run)
		if wasRunnable {
			return
		}
		n = p
	}
}

// Pick implements sched.Scheduler, the hsfq_schedule walk: "traverses the
// scheduling structure by always selecting the child node with the
// smallest start tag until a leaf node is selected", then delegates to the
// leaf's scheduler-specific function to choose a thread.
func (s *Structure) Pick(now sim.Time) *sched.Thread {
	n := s.root
	for !n.IsLeaf() {
		if n.runq.Len() == 0 {
			if n == s.root {
				return nil
			}
			panic(fmt.Sprintf("core: runnable intermediate node %q with no runnable children", s.PathOf(n.id)))
		}
		n = n.runq.Min().Item
	}
	t := n.leaf.Pick(now)
	if t == nil {
		panic(fmt.Sprintf("core: runnable leaf %q picked no thread", s.PathOf(n.id)))
	}
	s.picked, s.pickedAt = t, n
	return t
}

// Quantum implements sched.Scheduler: the quantum is a property of the
// thread's leaf class.
func (s *Structure) Quantum(t *sched.Thread, now sim.Time) sim.Time {
	n := s.pickedAt
	if t != s.picked {
		if n = s.byThread.Get(t); n == nil {
			panic(fmt.Sprintf("core: Quantum of unattached thread %v", t))
		}
	}
	return n.leaf.Quantum(t, now)
}

// Charge implements sched.Scheduler, the hsfq_update path: "when a thread
// blocks or is preempted, the finish and the start tags of all the
// ancestors of the node to which the thread belongs have to be updated ...
// with the duration for which the thread executed".
//
// For each node from the leaf to the root: F = S + used/weight (Eq. 2);
// if the node remains eligible its next quantum starts immediately, so
// S = max(v, F), which reduces to F because v equals the node's own start
// tag while it is in service and F >= S; if it became ineligible it
// leaves its parent's runnable heap (the hsfq_sleep case folded into the
// update).
//
// The picked thread is charged at the leaf it was picked from: Move,
// Detach and LoadState keep it attached there until this charge.
func (s *Structure) Charge(t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	n := s.pickedAt
	if t != s.picked {
		if s.picked != nil {
			panic(fmt.Sprintf("core: Charge of %v but %v was picked", t, s.picked))
		}
		if n = s.byThread.Get(t); n == nil {
			panic(fmt.Sprintf("core: Charge of unattached thread %v", t))
		}
	}
	s.picked, s.pickedAt = nil, nil

	n.leaf.Charge(t, used, now, runnable)
	if !runnable {
		s.runnable--
	}

	stillRunnable := n.leaf.Len() > 0
	for n.parent != nil {
		p := n.parent
		n.finish = n.run.Tag + float64(used)/n.weight
		if n.finish > p.maxFinish {
			p.maxFinish = n.finish
		}
		if stillRunnable {
			if !n.run.Queued() {
				panic(fmt.Sprintf("core: charged node %q not on parent's runnable heap", s.PathOf(n.id)))
			}
			// S = max(v(t), F) with v(t) = this node's own start tag, and
			// F >= S because used >= 0: the max reduces to F.
			n.run.Tag = n.finish
			n.run.Seq = s.seq
			s.seq++
			// A single-child runnable set (common on chain-shaped
			// hierarchies) cannot reorder; skip the sift entirely.
			if p.runq.Len() > 1 {
				p.runq.Fix(&n.run)
			}
		} else if n.run.Queued() {
			p.runq.Remove(&n.run)
		}
		stillRunnable = p.runq.Len() > 0
		n = p
	}
}

// Preempts implements sched.Scheduler. Preemption is a leaf-local policy:
// if the woken thread shares the running thread's leaf, the leaf scheduler
// decides (EDF/RM/SVR4 preempt, SFQ does not); across leaves there is no
// preemption — the woken class gains the CPU at the next quantum boundary,
// which is what bounds Fig. 9's scheduling latency by the quantum length.
func (s *Structure) Preempts(running, woken *sched.Thread, now sim.Time) bool {
	rl := s.byThread.Get(running)
	wl := s.byThread.Get(woken)
	if rl == nil || wl == nil || rl != wl {
		return false
	}
	return rl.leaf.Preempts(running, woken, now)
}
