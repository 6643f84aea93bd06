package sched

import (
	"fmt"
	"sort"

	"hsfq/internal/sim"
)

// LeafConfig carries the parameters a leaf-scheduler constructor may need.
// Every field has a sensible zero value, so callers set only what they
// know: a quantum from a config file, the machine speed, a seeded stream.
type LeafConfig struct {
	// Quantum is the scheduling quantum; <= 0 selects the algorithm's
	// default (DefaultQuantum for most, 25 ms for the SVR4 class).
	Quantum sim.Time

	// IPS is the speed of the machine the scheduler will run on, in
	// instructions per second. Algorithms that convert between time and
	// work (svr4's dispatch table, eevdf's lag unit) need it; 0 selects
	// 100 MIPS, the paper's machine class.
	IPS int64

	// RNG feeds randomized schedulers (lottery). Constructors fork the
	// stream they are handed, so the caller's stream advances exactly one
	// draw per randomized leaf and leaves built from the same stream stay
	// independent. nil selects a fixed private stream.
	RNG *sim.Rand

	// Levels is the priority-level count for multilevel schedulers (mlfq);
	// 0 selects the algorithm's default.
	Levels int

	// Aging is the starvation-boost wait bound for aging schedulers
	// (mlfq); 0 selects the algorithm's default.
	Aging sim.Time
}

func (c LeafConfig) ips() int64 {
	if c.IPS <= 0 {
		return 100_000_000
	}
	return c.IPS
}

// Ctor builds one leaf scheduler from a LeafConfig.
type Ctor func(LeafConfig) Scheduler

var leafCtors = map[string]Ctor{}

// Register adds a leaf-scheduler constructor under a unique name, making
// it available to every surface that names schedulers by string —
// simconfig files, hsfqctl scripts, sweep specs. It panics on an empty
// name or a duplicate, like http.Handle or sql.Register.
func Register(name string, ctor Ctor) {
	if name == "" {
		panic("sched: Register with empty name")
	}
	if ctor == nil {
		panic("sched: Register with nil constructor for " + name)
	}
	if _, dup := leafCtors[name]; dup {
		panic("sched: duplicate leaf scheduler " + name)
	}
	leafCtors[name] = ctor
}

// New constructs the named leaf scheduler.
func New(name string, cfg LeafConfig) (Scheduler, error) {
	ctor, ok := leafCtors[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown leaf scheduler %q (have %v)", name, Names())
	}
	return ctor(cfg), nil
}

// Known reports whether name is a registered leaf scheduler.
func Known(name string) bool {
	_, ok := leafCtors[name]
	return ok
}

// smpSafe lists the leaf kinds whose Charge re-stamps ANY enqueued
// thread: their accounting depends only on the thread's entry, never on
// a remembered pick or a queue-head position. The multicore global and
// stealing policies rely on that property — they remove a thread from
// the shared hierarchy at dispatch (so no sibling core can pick it) and
// re-enqueue it immediately before charging the segment, which reaches
// Charge with no outstanding Pick. Leaves that track the picked thread
// (svr4, lottery, eevdf, reserves) or charge only the queue head (rr,
// fifo) panic under that protocol and are restricted to single-core and
// partitioned machines, where the picked thread stays in place between
// Pick and Charge.
var smpSafe = map[string]bool{
	"sfq":      true,
	"stride":   true,
	"priority": true,
	"edf":      true,
	"rm":       true,
	"mlfq":     true,
	"drr":      true,
}

// SMPSafe reports whether the named leaf scheduler supports the
// multicore dequeue-on-dispatch protocol used by the global and
// stealing placement policies.
func SMPSafe(name string) bool { return smpSafe[name] }

// SMPSafeNames returns the dequeue-safe leaf names, sorted.
func SMPSafeNames() []string {
	names := make([]string, 0, len(smpSafe))
	for name := range smpSafe {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Names returns the registered leaf-scheduler names, sorted.
func Names() []string {
	names := make([]string, 0, len(leafCtors))
	for name := range leafCtors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// workFor returns the instructions executed in duration d at ips
// instructions per second, rounded down, as cpu.Rate.WorkFor does.
func workFor(ips int64, d sim.Time) Work {
	return Work(sim.MulDivFloor(uint64(d), uint64(ips), uint64(sim.Second)))
}

// timeFor is the inverse of workFor: the duration w instructions take at
// ips instructions per second, rounded down. The mlfq and drr leaves use
// it to compare charged work against their quanta with exact integer
// arithmetic (svr4 predates it and keeps its float conversion — its
// byte-frozen traces depend on the historical rounding).
func timeFor(ips int64, w Work) sim.Time {
	if w <= 0 {
		return 0
	}
	return sim.Time(sim.MulDivFloor(uint64(w), uint64(sim.Second), uint64(ips)))
}

func init() {
	Register("sfq", func(c LeafConfig) Scheduler { return NewSFQ(c.Quantum) })
	Register("rr", func(c LeafConfig) Scheduler { return NewRoundRobin(c.Quantum) })
	Register("fifo", func(c LeafConfig) Scheduler { return NewFIFO() })
	Register("priority", func(c LeafConfig) Scheduler { return NewPriority(c.Quantum) })
	Register("reserves", func(c LeafConfig) Scheduler { return NewReserves(c.Quantum) })
	Register("edf", func(c LeafConfig) Scheduler { return NewEDF(c.Quantum) })
	Register("rm", func(c LeafConfig) Scheduler { return NewRM(c.Quantum) })
	Register("svr4", func(c LeafConfig) Scheduler {
		q := c.Quantum
		if q <= 0 {
			q = 25 * sim.Millisecond
		}
		return NewSVR4(nil, c.ips(), q)
	})
	Register("lottery", func(c LeafConfig) Scheduler {
		rng := c.RNG
		if rng == nil {
			rng = sim.NewRand(1)
		}
		return NewLottery(c.Quantum, rng.Fork())
	})
	Register("stride", func(c LeafConfig) Scheduler { return NewStride(c.Quantum) })
	Register("mlfq", func(c LeafConfig) Scheduler {
		return NewMLFQ(c.Levels, c.Quantum, c.Aging, c.ips())
	})
	Register("drr", func(c LeafConfig) Scheduler { return NewDRR(c.Quantum, c.ips()) })
	Register("eevdf", func(c LeafConfig) Scheduler {
		q := c.Quantum
		if q <= 0 {
			q = DefaultQuantum
		}
		return NewEEVDF(q, workFor(c.ips(), q))
	})
}
