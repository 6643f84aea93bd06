package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// MLFQ is a multilevel feedback queue with starvation aging, the classic
// time-sharing heuristic the SVR4 dispatch table approximates and the
// multilevel variant of arxiv 1309.3096's dynamic round robin. Level 0 is
// the highest priority; each lower level doubles the quantum:
//
//   - A new thread enters level 0.
//   - Consuming a full level quantum demotes the thread one level (tail).
//   - Yielding or blocking before the quantum expires keeps the level, so
//     interactive threads float at the top. This is the textbook gaming
//     surface: a CPU hog that sleeps just before expiry is never demoted
//     (see internal/adversary, which encodes exactly that attack).
//   - A thread that has waited longer than the aging bound is boosted back
//     to level 0, which bounds starvation: every runnable thread reaches
//     the top level within one aging period and is then served after at
//     most the level-0 round-robin backlog.
//
// Each level is a runList, as each SVR4 priority is. Unlike SVR4, MLFQ's
// Charge re-stamps any enqueued thread (no remembered pick, no head-only
// accounting), so it is safe for the multicore dequeue-on-dispatch
// protocol. It is allocation-free in steady state.
type MLFQ struct {
	levels []runList[*mlfqEntry]
	base   sim.Time // level-0 quantum; level i gets base << i
	aging  sim.Time // runnable wait that triggers a boost to level 0
	ips    int64    // CPU speed, to convert charged Work to time

	entries Table[*mlfqEntry]
	count   int
}

// MLFQMaxLevels bounds the level count; with doubling quanta more levels
// than this would overflow sim.Time for any useful base quantum.
const MLFQMaxLevels = 16

// MLFQDefaultLevels and mlfqDefaultAging are the defaults selected by
// zero-valued constructor arguments. MLFQDefaultLevels is exported so
// simconfig.Validate can apply the overflow rule to configs that rely on
// the default.
const (
	MLFQDefaultLevels = 4
	mlfqDefaultAging  = sim.Second
)

// MLFQQuantumOverflows reports whether the base quantum cannot be doubled
// across the given level count without overflowing sim.Time. Zero values
// select the same defaults as NewMLFQ, which panics on exactly the
// combinations this reports — simconfig.Validate rejects them up front.
func MLFQQuantumOverflows(levels int, base sim.Time) bool {
	if levels == 0 {
		levels = MLFQDefaultLevels
	}
	if levels < 1 || levels > MLFQMaxLevels {
		return true
	}
	if base <= 0 {
		base = DefaultQuantum
	}
	return base > sim.Time(1<<62)>>(levels-1)
}

// mlfqEntry is one thread's level; it is queued on its level's list
// while the thread is runnable.
type mlfqEntry struct {
	link[*mlfqEntry]
	t        *Thread
	level    int
	waitFrom sim.Time // when enqueued on its run queue
}

// NewMLFQ returns a multilevel feedback queue scheduler. levels is the
// number of priority levels (0 selects 4; must be <= MLFQMaxLevels). base
// is the level-0 quantum, doubled per level (<= 0 selects DefaultQuantum).
// aging is the runnable-wait bound that boosts a thread back to level 0
// (0 selects one second). ips is the CPU speed in instructions per second,
// needed to decide whether a charge consumed the full level quantum.
func NewMLFQ(levels int, base, aging sim.Time, ips int64) *MLFQ {
	if MLFQQuantumOverflows(levels, base) {
		panic(fmt.Sprintf("mlfq: levels %d / base quantum %v out of range", levels, base))
	}
	if levels == 0 {
		levels = MLFQDefaultLevels
	}
	if base <= 0 {
		base = DefaultQuantum
	}
	if aging == 0 {
		aging = mlfqDefaultAging
	}
	if aging < 0 {
		panic(fmt.Sprintf("mlfq: negative aging bound %v", aging))
	}
	if ips <= 0 {
		panic("mlfq: non-positive instruction rate")
	}
	return &MLFQ{
		levels: make([]runList[*mlfqEntry], levels),
		base:   base,
		aging:  aging,
		ips:    ips,
	}
}

// Name implements Scheduler.
func (s *MLFQ) Name() string { return "mlfq" }

// NumLevels returns the number of priority levels, for tests.
func (s *MLFQ) NumLevels() int { return len(s.levels) }

// LevelQuantum returns the quantum of the given level, for tests.
func (s *MLFQ) LevelQuantum(level int) sim.Time { return s.base << level }

// Level returns t's current level, for tests and traces.
func (s *MLFQ) Level(t *Thread) int { return s.entry(t).level }

// entry returns t's entry, creating it on first contact.
func (s *MLFQ) entry(t *Thread) *mlfqEntry {
	e := s.entries.Get(t)
	if e == nil {
		e = &mlfqEntry{t: t}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Enqueue implements Scheduler. The thread re-enters at its current level:
// blocking early never demotes, which is the interactivity heuristic (and
// the gaming surface the adversary suite attacks).
func (s *MLFQ) Enqueue(t *Thread, now sim.Time) {
	e := s.entry(t)
	if e.Queued() {
		panic(fmt.Sprintf("mlfq: Enqueue of runnable thread %v", t))
	}
	s.insert(e, now, tailInsert)
}

// insert queues e on its level's list, its wait starting at now.
func (s *MLFQ) insert(e *mlfqEntry, now sim.Time, front bool) {
	if front {
		s.levels[e.level].PushFront(&e.link)
	} else {
		s.levels[e.level].PushBack(&e.link)
	}
	e.waitFrom = now
	s.count++
}

func (s *MLFQ) unlink(e *mlfqEntry) {
	s.levels[e.level].Remove(&e.link)
	s.count--
}

// Pick implements Scheduler: the head of the highest non-empty level,
// after boosting any thread that has waited past the aging bound (the lazy
// equivalent of MLFQ's periodic priority-boost scan).
func (s *MLFQ) Pick(now sim.Time) *Thread {
	s.applyAging(now)
	for i := range s.levels {
		if x := s.levels[i].Front(); x != nil {
			return x.Item.t
		}
	}
	return nil
}

// applyAging boosts threads whose runnable wait exceeds the aging bound
// back to the tail of level 0 as the sweep finds them. Sweep order is
// level-major, queue order within a level, so the boost order — and
// therefore the resulting level-0 FIFO — is deterministic.
func (s *MLFQ) applyAging(now sim.Time) {
	for i := 1; i < len(s.levels); i++ {
		for x := s.levels[i].Front(); x != nil; {
			e := x.Item
			x = x.Next()
			if now-e.waitFrom >= s.aging {
				s.unlink(e)
				e.level = 0
				s.insert(e, now, tailInsert)
			}
		}
	}
}

// Quantum implements Scheduler: the level quantum, doubling per level so
// demoted CPU hogs run longer but less often.
func (s *MLFQ) Quantum(t *Thread, now sim.Time) sim.Time {
	return s.base << s.entry(t).level
}

// Charge implements Scheduler. Full-quantum consumption demotes the thread
// one level (tail); a shorter charge keeps the level but still rotates the
// thread to the tail of its queue, so identical CPU-bound threads whose
// compute actions end mid-quantum round-robin fairly instead of the head
// re-winning every decision. Only a zero-work charge — the multicore
// dequeue-on-dispatch removal step, or a wakeup racing a dispatch — keeps
// the queue position. Accounting depends only on the thread's own entry —
// any enqueued thread can be charged — which is what makes the leaf safe
// for the dequeue-on-dispatch protocol.
func (s *MLFQ) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() {
		panic(fmt.Sprintf("mlfq: Charge of non-runnable thread %v", t))
	}
	s.unlink(e)
	if !runnable {
		return
	}
	if used <= 0 {
		s.insert(e, now, frontInsert)
		return
	}
	if timeFor(s.ips, used) >= s.base<<e.level {
		if e.level < len(s.levels)-1 {
			e.level++
		}
	}
	s.insert(e, now, tailInsert)
}

// Preempts implements Scheduler: a wakeup at a higher level (lower index)
// cuts the running thread short, so interactive threads get the CPU as
// soon as they wake — the behavior the interactive-vs-batch experiment
// measures against svr4.
func (s *MLFQ) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || !re.Queued() || !we.Queued() {
		return false
	}
	return we.level < re.level
}

// Len implements Scheduler.
func (s *MLFQ) Len() int { return s.count }
