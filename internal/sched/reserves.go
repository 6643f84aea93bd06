package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// Reserves implements Processor Capacity Reserves in the style of Mercer,
// Savage & Tokuda [13], one of the multimedia schedulers the paper's
// related work says "can be employed as leaf class scheduler in our
// framework". Each thread holds a reserve (C, T): every period T its
// budget refills to C; threads with budget remaining are scheduled
// earliest-replenishment-first (the usual deadline-ordered reserve
// discipline), and threads whose budget is depleted fall to a background
// round-robin band until their next replenishment.
//
// These are *soft* reserves: a depleted thread keeps running in the
// background band (Mercer's hard variant would park it until the next
// replenishment, which needs a timed wake the passive Scheduler interface
// cannot request).
//
// The contrast with SFQ as a leaf scheduler — the comparison the paper
// defers to future work and the A10 ablation runs — is that a reserve is
// a *budget*: demand above C_i in a period is served at background
// priority only, whereas SFQ's weights share whatever bandwidth exists in
// proportion, with no per-period cliff.
type Reserves struct {
	quantum sim.Time
	entries Table[*resEntry]
	heap    sim.TagHeap[sim.Time, *resEntry] // runnable, with budget, by next replenishment
	bg      runList[*resEntry]               // runnable, without budget, round robin
	count   int
	picked  *resEntry
}

// resEntry is one thread's reserve. Tag is the next replenishment
// instant, -1 until the first enqueue anchors it. Seq is the thread ID
// with its sign bit flipped, so equal instants go to the lower ID for
// every int. The entry is queued while it is in the reserved band, and
// bg is queued while it is in the background band.
type resEntry struct {
	sim.Tagged[sim.Time, *resEntry]
	bg link[*resEntry]
	t  *Thread

	capacity Work     // C: budget per period, in work units
	period   sim.Time // T

	budget   Work // remaining budget this period
	runnable bool
}

// NewReserves returns a reserve-based scheduler; quantum <= 0 selects
// DefaultQuantum. Threads without a reserve run in the background band.
func NewReserves(quantum sim.Time) *Reserves {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Reserves{quantum: quantum}
}

// Name implements Scheduler.
func (s *Reserves) Name() string { return "reserves" }

// SetReserve grants t a reserve of capacity work units every period. It
// must be set before the thread first runs; the first period starts at
// the thread's first enqueue.
func (s *Reserves) SetReserve(t *Thread, capacity Work, period sim.Time) {
	if capacity <= 0 || period <= 0 {
		panic(fmt.Sprintf("reserves: bad reserve C=%d T=%v", capacity, period))
	}
	e := s.entry(t)
	if e.runnable {
		panic(fmt.Sprintf("reserves: SetReserve on runnable thread %v", t))
	}
	e.capacity = capacity
	e.period = period
	e.budget = capacity
	e.Tag = -1 // anchored at first enqueue
}

// Budget returns t's remaining budget this period, for tests.
func (s *Reserves) Budget(t *Thread) Work { return s.entry(t).budget }

// entry returns t's entry, creating it on first contact.
func (s *Reserves) entry(t *Thread) *resEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &resEntry{t: t}
		e.Item, e.Seq = e, uint64(t.ID)^1<<63
		e.bg.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// refresh applies any replenishments due by now.
func (e *resEntry) refresh(now sim.Time) {
	if e.capacity == 0 {
		return
	}
	if e.Tag < 0 {
		e.Tag = now + e.period
		return
	}
	for now >= e.Tag {
		e.budget = e.capacity
		e.Tag += e.period
	}
}

// Enqueue implements Scheduler.
func (s *Reserves) Enqueue(t *Thread, now sim.Time) {
	e := s.entry(t)
	if e.runnable {
		panic(fmt.Sprintf("reserves: Enqueue of runnable thread %v", t))
	}
	e.runnable = true
	e.refresh(now)
	s.place(e)
	s.count++
}

// place puts an entry in the reserved heap or the background queue
// according to its budget.
func (s *Reserves) place(e *resEntry) {
	if e.capacity > 0 && e.budget > 0 {
		s.heap.Push(&e.Tagged)
	} else {
		s.bg.PushBack(&e.bg)
	}
}

// unlink removes a runnable entry from whichever band holds it.
func (s *Reserves) unlink(e *resEntry) {
	switch {
	case e.Queued():
		s.heap.Remove(&e.Tagged)
	case e.bg.Queued():
		s.bg.Remove(&e.bg)
	default:
		panic(fmt.Sprintf("reserves: thread %v not queued", e.t))
	}
}

// Pick implements Scheduler: reserved threads (budget in hand) run before
// any background thread; within the reserved band the earliest
// replenishment runs first. Replenishments due by now are applied first,
// possibly promoting background threads.
func (s *Reserves) Pick(now sim.Time) *Thread {
	// Promote background entries whose reserves refilled.
	for x := s.bg.Front(); x != nil; {
		e := x.Item
		x = x.Next()
		e.refresh(now)
		if e.capacity > 0 && e.budget > 0 {
			s.bg.Remove(&e.bg)
			s.heap.Push(&e.Tagged)
		}
	}
	if s.heap.Len() > 0 {
		s.picked = s.heap.Min().Item
		return s.picked.t
	}
	if x := s.bg.Front(); x != nil {
		s.picked = x.Item
		return s.picked.t
	}
	return nil
}

// Quantum implements Scheduler: a reserved thread may run until its
// budget or the quantum expires, whichever is smaller in service time;
// the machine converts work to time, so return the quantum and let Charge
// clip the budget.
func (s *Reserves) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler.
func (s *Reserves) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.runnable || s.picked != e {
		panic(fmt.Sprintf("reserves: Charge of thread %v that was not picked", t))
	}
	s.picked = nil
	s.unlink(e)
	if e.capacity > 0 {
		e.budget -= used
		if e.budget < 0 {
			e.budget = 0
		}
		e.refresh(now)
	}
	if !runnable {
		e.runnable = false
		s.count--
		return
	}
	s.place(e)
}

// Preempts implements Scheduler: a reserved wakeup preempts a background
// thread (budgeted work is the priority band), but not another reserved
// one.
func (s *Reserves) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || !re.runnable || !we.runnable {
		return false
	}
	runningReserved := re.capacity > 0 && re.budget > 0
	wokenReserved := we.capacity > 0 && we.budget > 0
	return wokenReserved && !runningReserved
}

// Len implements Scheduler.
func (s *Reserves) Len() int { return s.count }

// Forget drops state for an exited thread.
func (s *Reserves) Forget(t *Thread) {
	if e := s.entries.Get(t); e != nil {
		if e.runnable {
			panic(fmt.Sprintf("reserves: Forget of runnable thread %v", t))
		}
		s.entries.Delete(t)
	}
}
