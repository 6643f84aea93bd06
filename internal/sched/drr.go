package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// DRR is a dynamic-quantum round robin in the spirit of arxiv 1309.3096:
// a single FIFO of runnable threads, but each thread's quantum adapts to
// its observed burst lengths instead of staying fixed. After every charged
// segment the thread's quantum moves halfway toward the observed burst,
//
//	q' = clamp((q + burst) / 2, base/8, base*8)
//
// so short-burst (interactive) threads converge to short quanta — they are
// revisited more often — while CPU-bound threads converge to long quanta
// and amortize switch cost. The adaptation is monotone: the quantum moves
// toward the burst and never past it, a property the seeded trials in
// drr_prop_test.go pin down.
//
// The queue is one runList and Charge re-stamps any enqueued thread (no
// remembered pick, no head-only accounting), so DRR is safe for the
// multicore dequeue-on-dispatch protocol and allocation-free in steady
// state.
type DRR struct {
	base    sim.Time // initial quantum and the center of the clamp band
	minQ    sim.Time // base / drrAdaptRange, floored at 1
	maxQ    sim.Time // base * drrAdaptRange
	ips     int64    // CPU speed, to convert charged Work to time
	list    runList[*drrEntry]
	entries Table[*drrEntry]
}

// drrAdaptRange bounds how far a thread's quantum may drift from the base
// in either direction.
const drrAdaptRange = 8

// DRRQuantumOverflows reports whether the base quantum's adaptation band
// [base/8, base*8] would overflow sim.Time. Zero selects the same default
// as NewDRR, which panics on exactly the values this reports —
// simconfig.Validate rejects them up front.
func DRRQuantumOverflows(base sim.Time) bool {
	if base <= 0 {
		base = DefaultQuantum
	}
	return base > sim.Time(1<<62)/drrAdaptRange
}

// drrEntry is one thread's adaptive quantum; it is queued while the
// thread is runnable.
type drrEntry struct {
	link[*drrEntry]
	t       *Thread
	quantum sim.Time
}

// NewDRR returns a dynamic-quantum round-robin scheduler. base is the
// initial per-thread quantum (<= 0 selects DefaultQuantum); quanta adapt
// within [base/8, base*8]. ips is the CPU speed in instructions per
// second, needed to measure observed burst lengths.
func NewDRR(base sim.Time, ips int64) *DRR {
	if DRRQuantumOverflows(base) {
		panic(fmt.Sprintf("drr: base quantum %v overflows the adaptation band", base))
	}
	if base <= 0 {
		base = DefaultQuantum
	}
	if ips <= 0 {
		panic("drr: non-positive instruction rate")
	}
	minQ := base / drrAdaptRange
	if minQ < 1 {
		minQ = 1
	}
	return &DRR{
		base: base,
		minQ: minQ,
		maxQ: base * drrAdaptRange,
		ips:  ips,
	}
}

// Name implements Scheduler.
func (s *DRR) Name() string { return "drr" }

// Bounds returns the clamp band of the adaptive quantum, for tests.
func (s *DRR) Bounds() (lo, hi sim.Time) { return s.minQ, s.maxQ }

// ThreadQuantum returns t's current adaptive quantum, for tests.
func (s *DRR) ThreadQuantum(t *Thread) sim.Time { return s.entry(t).quantum }

// entry returns t's entry, creating it on first contact.
func (s *DRR) entry(t *Thread) *drrEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &drrEntry{t: t, quantum: s.base}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Enqueue implements Scheduler: tail of the round-robin queue.
func (s *DRR) Enqueue(t *Thread, now sim.Time) {
	e := s.entry(t)
	if e.Queued() {
		panic(fmt.Sprintf("drr: Enqueue of runnable thread %v", t))
	}
	s.list.PushBack(&e.link)
}

// Pick implements Scheduler: the head of the queue.
func (s *DRR) Pick(now sim.Time) *Thread {
	if x := s.list.Front(); x != nil {
		return x.Item.t
	}
	return nil
}

// Quantum implements Scheduler: the thread's adaptive quantum.
func (s *DRR) Quantum(t *Thread, now sim.Time) sim.Time { return s.entry(t).quantum }

// Charge implements Scheduler: the quantum moves halfway toward the
// observed burst (clamped to the adaptation band) and the thread rotates
// to the tail. A zero-length charge — the dequeue-on-dispatch protocol's
// removal step, or a wakeup racing a dispatch — keeps both the quantum and
// the queue position.
func (s *DRR) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("drr: Charge of non-runnable thread %v", t))
	}
	s.list.Remove(&e.link)
	if used > 0 {
		burst := timeFor(s.ips, used)
		q := (e.quantum + burst) / 2
		if q < s.minQ {
			q = s.minQ
		}
		if q > s.maxQ {
			q = s.maxQ
		}
		e.quantum = q
	}
	if !runnable {
		return
	}
	if used > 0 {
		s.list.PushBack(&e.link)
	} else {
		s.list.PushFront(&e.link)
	}
}

// Preempts implements Scheduler: round robin never preempts mid-quantum.
func (s *DRR) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// Len implements Scheduler.
func (s *DRR) Len() int { return s.list.Len() }
