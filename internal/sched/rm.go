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
	tagQueue[string, rmRank]
	quantum sim.Time
}

// rmRank is a thread's rate-monotonic key, read at enqueue: periodic
// threads rank by period (ascending) ahead of aperiodic ones, whose
// period is math.MaxInt64, and equal periods rank by priority
// (descending). The tag queue's Tag encodes it as an order-preserving
// string (see setRMKey).
type rmRank struct {
	period sim.Time
	prio   int
}

// setRMKey sets e's key. Tag is 16 bytes, the big-endian period and then
// the big-endian complement of the priority, each with its sign bit
// flipped, so comparing two tags as strings compares the keys exactly.
// The tag is rebuilt only when the key changes, so re-enqueueing a
// thread allocates nothing.
func setRMKey(e *tagEntry[string, rmRank], period sim.Time, prio int) {
	if e.Tag != "" && period == e.x.period && prio == e.x.prio {
		return
	}
	e.x = rmRank{period, prio}
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

// Name implements Scheduler.
func (s *RM) Name() string { return "rm" }

// Enqueue implements Scheduler.
func (s *RM) Enqueue(t *Thread, now sim.Time) {
	e := s.admit(t, "rm")
	period := t.Period
	if period <= 0 {
		period = sim.Time(math.MaxInt64)
	}
	setRMKey(e, period, t.Priority)
	s.push(e)
}

// Pick implements Scheduler: highest rate-monotonic priority first.
func (s *RM) Pick(now sim.Time) *Thread { return s.head() }

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
	return s.preempts(running, woken)
}

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
