package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// Lottery is Waldspurger & Weihl's randomized proportional-share scheduler
// (OSDI '94), discussed in the paper's related work: each decision draws a
// ticket uniformly at random, so allocation is fair only in expectation and
// only over long intervals — the limitation the A3 ablation experiment
// demonstrates against stride and SFQ.
//
// A thread's ticket count is its Weight; fractional weights are honored.
type Lottery struct {
	threadQueue
	quantum sim.Time
	rng     *sim.Rand
	total   float64
	picked  *Thread
}

// NewLottery returns a lottery scheduler drawing randomness from rng, which
// must not be shared with other consumers if deterministic replay is
// desired. quantum <= 0 selects DefaultQuantum.
func NewLottery(quantum sim.Time, rng *sim.Rand) *Lottery {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if rng == nil {
		panic("lottery: nil rng")
	}
	return &Lottery{threadQueue: threadQueue{who: "lottery"}, quantum: quantum, rng: rng}
}

// Name implements Scheduler.
func (l *Lottery) Name() string { return "lottery" }

// Enqueue implements Scheduler.
func (l *Lottery) Enqueue(t *Thread, now sim.Time) {
	l.threadQueue.Enqueue(t, now)
	l.total += t.Weight
}

// Pick implements Scheduler: hold a lottery over the runnable tickets,
// walking the queue in order to the thread holding the drawn one. A draw
// that floating-point slack lands past the last ticket goes to the last
// thread.
func (l *Lottery) Pick(now sim.Time) *Thread {
	x := l.list.Front()
	if x == nil {
		return nil
	}
	draw := l.rng.Float64() * l.total
	acc := 0.0
	for ; x.Next() != nil; x = x.Next() {
		acc += x.Item.Weight
		if draw < acc {
			break
		}
	}
	l.picked = x.Item
	return l.picked
}

// Quantum implements Scheduler.
func (l *Lottery) Quantum(t *Thread, now sim.Time) sim.Time { return l.quantum }

// Charge implements Scheduler: lottery keeps no per-thread service state;
// history does not influence future draws.
func (l *Lottery) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	if l.picked != t {
		panic(fmt.Sprintf("lottery: Charge of thread %v that was not picked", t))
	}
	l.picked = nil
	if !runnable {
		l.list.Remove(l.links.Get(t))
		l.total -= t.Weight
	}
}

// Preempts implements Scheduler.
func (l *Lottery) Preempts(running, woken *Thread, now sim.Time) bool { return false }

// TotalWeight returns the total weight of the runnable threads.
func (l *Lottery) TotalWeight() float64 { return l.total }
