package sched

import (
	"encoding/binary"
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
	heap    sim.TagHeap[string, *rmEntry]
	seq     uint64
}

// rmEntry is one thread's queue position. period and prio are its key,
// read at enqueue: periodic threads rank by period (ascending) ahead of
// aperiodic ones, whose period is math.MaxInt64, and equal periods rank
// by priority (descending). Tag encodes that key as an order-preserving
// string (see setKey); Seq breaks ties FIFO. The entry is queued while
// the thread is runnable.
type rmEntry struct {
	sim.Tagged[string, *rmEntry]
	t      *Thread
	period sim.Time
	prio   int
}

// setKey sets e's key. Tag is 16 bytes, the big-endian period and then
// the big-endian complement of the priority, each with its sign bit
// flipped, so comparing two tags as strings compares the keys exactly.
// The tag is rebuilt only when the key changes, so re-enqueueing a
// thread allocates nothing.
func (e *rmEntry) setKey(period sim.Time, prio int) {
	if e.Tag != "" && period == e.period && prio == e.prio {
		return
	}
	e.period, e.prio = period, prio
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(period)^1<<63)
	binary.BigEndian.PutUint64(b[8:], uint64(^prio)^1<<63)
	e.Tag = string(b[:])
}

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
		e = &rmEntry{t: t}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Name implements Scheduler.
func (s *RM) Name() string { return "rm" }

// Enqueue implements Scheduler.
func (s *RM) Enqueue(t *Thread, now sim.Time) {
	e := s.entryFor(t)
	if e.Queued() {
		panic(fmt.Sprintf("rm: Enqueue of runnable thread %v", t))
	}
	period := t.Period
	if period <= 0 {
		period = sim.Time(math.MaxInt64)
	}
	e.setKey(period, t.Priority)
	e.Seq = s.seq
	s.seq++
	s.heap.Push(&e.Tagged)
}

// Remove implements Scheduler.
func (s *RM) Remove(t *Thread, now sim.Time) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("rm: Remove of non-runnable thread %v", t))
	}
	s.heap.Remove(&e.Tagged)
}

// Pick implements Scheduler: highest rate-monotonic priority first.
func (s *RM) Pick(now sim.Time) *Thread {
	if s.heap.Len() == 0 {
		return nil
	}
	return s.heap.Min().Item.t
}

// Quantum implements Scheduler.
func (s *RM) Quantum(t *Thread, now sim.Time) sim.Time { return s.quantum }

// Charge implements Scheduler.
func (s *RM) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("rm: Charge of non-runnable thread %v", t))
	}
	if !runnable {
		s.heap.Remove(&e.Tagged)
	}
}

// Preempts implements Scheduler: a higher-priority wakeup preempts.
func (s *RM) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || !re.Queued() || !we.Queued() {
		return false
	}
	return we.Tag < re.Tag
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
