package cpu

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Policy selects how the cores of a multicore machine share scheduling
// state. On a single-core machine all three policies degenerate to the
// same uniprocessor behavior.
type Policy int

const (
	// PolicyPartitioned gives every core its own scheduler instance with
	// static thread placement: each core runs the exact uniprocessor
	// protocol against its own hierarchy, so the paper's per-scheduler
	// guarantees (Theorem 1) hold per core.
	PolicyPartitioned Policy = iota
	// PolicyGlobal feeds all cores from one shared scheduler. A picked
	// thread leaves the runnable set while it runs (dequeue-on-dispatch),
	// which is the guard that keeps one thread from running on two cores
	// at once.
	PolicyGlobal
	// PolicySteal is partitioned scheduling plus work stealing: an idle
	// core scans the other cores' schedulers in fixed order and runs the
	// first thread it finds, paying the machine's migration cost. Tags are
	// always charged to the thread's home scheduler.
	PolicySteal
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyPartitioned:
		return "partitioned"
	case PolicyGlobal:
		return "global"
	case PolicySteal:
		return "steal"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the configuration names to Policy values; the empty
// string selects PolicyPartitioned, the default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "partitioned":
		return PolicyPartitioned, nil
	case "global":
		return PolicyGlobal, nil
	case "steal":
		return PolicySteal, nil
	default:
		return 0, fmt.Errorf("cpu: unknown policy %q (have partitioned, global, steal)", s)
	}
}

// SMPConfig describes a machine of N cores.
type SMPConfig struct {
	// Cores is the core count; 0 means len(Schedulers).
	Cores int
	// Policy selects how cores share scheduling state.
	Policy Policy
	// Schedulers supplies the scheduling state: one scheduler per core
	// under PolicyPartitioned and PolicySteal, exactly one shared
	// scheduler under PolicyGlobal.
	Schedulers []sched.Scheduler
	// SwitchCost is CPU time charged to a core on every dispatch, the
	// context-switch overhead. Zero keeps dispatch free, the paper's
	// idealization.
	SwitchCost sim.Time
	// MigrationCost is additional CPU time charged when the dispatched
	// thread last ran on a different core (cache refill, TLB shootdown).
	MigrationCost sim.Time
}

// NewSMP returns a machine of cfg.Cores identical cores executing on eng
// at the given rate. rate <= 0 selects DefaultRate. Construction panics on
// inconsistent configs — simconfig.Validate rejects the same inputs with
// field errors before they can reach here.
func NewSMP(eng *sim.Engine, rate Rate, cfg SMPConfig) *Machine {
	if eng == nil {
		panic("cpu: nil engine")
	}
	n := cfg.Cores
	if n == 0 {
		n = len(cfg.Schedulers)
	}
	if n <= 0 {
		panic(fmt.Sprintf("cpu: machine needs at least one core, got %d", n))
	}
	for i, s := range cfg.Schedulers {
		if s == nil {
			panic(fmt.Sprintf("cpu: nil scheduler for core %d", i))
		}
	}
	switch cfg.Policy {
	case PolicyGlobal:
		if len(cfg.Schedulers) != 1 {
			panic(fmt.Sprintf("cpu: global policy wants 1 shared scheduler, got %d", len(cfg.Schedulers)))
		}
	case PolicyPartitioned, PolicySteal:
		if len(cfg.Schedulers) != n {
			panic(fmt.Sprintf("cpu: %v policy wants %d schedulers, got %d", cfg.Policy, n, len(cfg.Schedulers)))
		}
	default:
		panic(fmt.Sprintf("cpu: invalid policy %d", int(cfg.Policy)))
	}
	if cfg.SwitchCost < 0 {
		panic(fmt.Sprintf("cpu: negative switch cost %v", cfg.SwitchCost))
	}
	if cfg.MigrationCost < 0 {
		panic(fmt.Sprintf("cpu: negative migration cost %v", cfg.MigrationCost))
	}
	if rate <= 0 {
		rate = DefaultRate
	}
	m := &Machine{
		eng:           eng,
		rate:          rate,
		policy:        cfg.Policy,
		dequeue:       n > 1 && cfg.Policy != PolicyPartitioned,
		switchCost:    cfg.SwitchCost,
		migrationCost: cfg.MigrationCost,
		nextID:        1,
	}
	for i := 0; i < n; i++ {
		sch := cfg.Schedulers[0]
		if cfg.Policy != PolicyGlobal {
			sch = cfg.Schedulers[i]
		}
		c := &coreCtx{id: i, sched: sch, idle: true}
		c.segEndFn = func() { m.segmentEnd(c) }
		m.cores = append(m.cores, c)
	}
	m.intrDoneFn = m.interruptDone
	return m
}

// NumCores returns the machine's core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Policy returns the machine's scheduling policy.
func (m *Machine) Policy() Policy { return m.policy }

// CoreStats returns a snapshot of one core's counters.
func (m *Machine) CoreStats(core int) Stats { return m.cores[core].stats }

// HomeCore returns the core a thread was added on, its static placement.
func (m *Machine) HomeCore(t *sched.Thread) int {
	ts := m.threads.Get(t)
	if ts == nil {
		panic(fmt.Sprintf("cpu: HomeCore of unknown thread %v", t))
	}
	return ts.core
}
