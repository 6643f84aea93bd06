package sched

import (
	"fmt"
	"math"

	"hsfq/internal/sim"
)

// RM is a Rate Monotonic scheduler: fixed priorities, shorter period runs
// first. The paper's Fig. 9 experiment schedules two periodic threads with
// RM inside one leaf of the hierarchy; this implementation reproduces that
// leaf. Threads without a period fall back to their explicit Priority
// (higher first), below all periodic threads.
type RM struct {
	quantum sim.Time
	entries Table[*rmEntry]
	heap    sim.Heap[*rmEntry]
	seq     uint64
}

type rmEntry struct {
	t   *Thread
	key rmKey
	seq uint64
	idx int
}

// rmKey orders periodic threads by period (ascending) ahead of aperiodic
// threads by priority (descending).
type rmKey struct {
	period sim.Time // MaxInt64 for aperiodic
	prio   int
}

func (a rmKey) less(b rmKey) bool {
	if a.period != b.period {
		return a.period < b.period
	}
	return a.prio > b.prio
}

// HeapLess implements sim.HeapItem: highest rate-monotonic priority first,
// FIFO among equal keys.
func (e *rmEntry) HeapLess(o *rmEntry) bool {
	if e.key != o.key {
		return e.key.less(o.key)
	}
	return e.seq < o.seq
}

// HeapIndex implements sim.HeapItem.
func (e *rmEntry) HeapIndex() *int { return &e.idx }

// NewRM returns a Rate Monotonic scheduler. quantum <= 0 means
// run-until-block (preemption still occurs on higher-priority wakeups);
// the paper's Fig. 9 uses 25 ms quanta.
func NewRM(quantum sim.Time) *RM {
	if quantum <= 0 {
		quantum = sim.Time(1 << 62)
	}
	return &RM{quantum: quantum}
}

// entryFor returns t's entry, creating it on first contact.
func (s *RM) entryFor(t *Thread) *rmEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &rmEntry{t: t, idx: -1}
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *RM) Name() string { return "rm" }

func rmKeyFor(t *Thread) rmKey {
	if t.Period > 0 {
		return rmKey{period: t.Period, prio: t.Priority}
	}
	return rmKey{period: sim.Time(math.MaxInt64), prio: t.Priority}
}

// Enqueue implements Scheduler.
func (s *RM) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.idx != -1 {
		panic(fmt.Sprintf("rm: Enqueue of runnable thread %v", t))
	}
	e.key = rmKeyFor(t)
	e.seq = s.seq
	s.seq++
	s.heap.Push(e)
}

// Remove implements Scheduler.
func (s *RM) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("rm: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(e.idx)
}

// Pick implements Scheduler: highest rate-monotonic priority first.
func (s *RM) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	return s.heap.Min().t
}

// Quantum implements Scheduler.
func (s *RM) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler.
func (s *RM) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || e.idx == -1 {
		panic(fmt.Sprintf("rm: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(e.idx)
	}
}

// Preempts implements Scheduler: a higher-priority wakeup preempts.
func (s *RM) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || re.idx == -1 || we.idx == -1 {
		return false
	}
	return we.key.less(re.key)
}

// Len implements Scheduler.
func (s *RM) Len() int { return s.heap.Len() }

// SchedulableRM reports whether periodic demands are schedulable under Rate
// Monotonic by the Liu & Layland sufficient bound:
// sum(C_i/T_i) <= n(2^(1/n)-1). It is conservative: task sets above the
// bound may still be schedulable (up to 1.0 for harmonic periods).
func SchedulableRM(compute, period []sim.Time) bool {
	if len(compute) != len(period) {
		panic("sched: SchedulableRM with mismatched slice lengths")
	}
	n := len(compute)
	if n == 0 {
		return true
	}
	u := 0.0
	for i := range compute {
		if period[i] <= 0 {
			return false
		}
		u += float64(compute[i]) / float64(period[i])
	}
	bound := float64(n) * (math.Pow(2, 1/float64(n)) - 1)
	return u <= bound
}
