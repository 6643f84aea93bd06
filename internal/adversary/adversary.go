// Package adversary is the repo's standing red team: a registry of
// attacker programs that each target a specific scheduler weakness,
// paired with a victim workload and a machine-checkable isolation
// predicate. The paper's central claim (§3, Theorem 1) is that start-time
// fair queueing bounds how far any flow can fall behind its entitled
// share; every other policy in the registry makes a weaker promise — or
// none. This package turns both kinds of claim into executable checks:
//
//   - Where a policy promises isolation (sfq, stride: Theorem 1; rr, drr:
//     bounded rotation), the predicate asserts the victim's measured
//     share stays above a bound derived from that promise, and a run
//     where the attack lands is a bug.
//
//   - Where a policy is gameable by design (svr4 and mlfq reward
//     sleeping before quantum expiry, edf and rm trust declared periods,
//     fifo trusts threads to yield), the predicate asserts the attack
//     actually lands: the victim's share must fall BELOW a bound. These
//     weaknesses are documented, not fixed — if a future change
//     accidentally "fixes" one, the suite fails and forces the change to
//     be explained (see DESIGN.md §12).
//
// Every cell is a plain simconfig.Config, so any result reproduces under
// hsfqsim and bisects under hsfqdiff from the config alone.
package adversary

import (
	"fmt"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// Expectation states what the scheduling policy promises under an attack.
type Expectation string

const (
	// Isolated: the policy bounds the attacker's damage; the victim's
	// share must stay at or above the cell's bound.
	Isolated Expectation = "isolated"
	// Gameable: the policy is known to reward this attack; the attack
	// must demonstrably land (victim share at or below the bound).
	Gameable Expectation = "gameable"
)

// Cell is one attack × leaf × core-count instance of the matrix.
type Cell struct {
	Attack string
	Leaf   string
	Cores  int
	Expect Expectation
	// Predicate names the machine-checked isolation condition; it is the
	// string a failing run prints on stderr.
	Predicate string
	// Bound is the victim-share threshold the predicate compares against
	// (minimum for Isolated cells, maximum for Gameable cells).
	Bound float64
	// Victim is the thread name whose share the predicate inspects.
	Victim string
	// Config is the complete scenario; running it at Config.Seed
	// reproduces the cell bit-for-bit.
	Config simconfig.Config
}

// ID identifies a cell in logs and failure lines.
func (c Cell) ID() string { return fmt.Sprintf("%s/%s/c%d", c.Attack, c.Leaf, c.Cores) }

// Result is the outcome of running one cell.
type Result struct {
	Cell
	// Digest is the sweep outcome digest of the run: equal digests across
	// repeat runs are the determinism contract TestMatrixDeterminism
	// enforces.
	Digest string
	// VictimShare is the victim's fraction of all work done.
	VictimShare float64
	// Violation is empty when the predicate holds, else one line naming
	// the predicate and the measured value.
	Violation string
}

// Run executes the cell's scenario and evaluates its predicate.
func (c Cell) Run() (Result, error) {
	digest, metrics, err := sweep.ExecuteConfig(c.Config, 0)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.ID(), err)
	}
	r := Result{Cell: c, Digest: digest, VictimShare: metrics["share:"+c.Victim]}
	switch c.Expect {
	case Isolated:
		if r.VictimShare < c.Bound {
			r.Violation = fmt.Sprintf("%s: predicate %q violated: victim share %.4f < %.4f", c.ID(), c.Predicate, r.VictimShare, c.Bound)
		}
	case Gameable:
		if r.VictimShare > c.Bound {
			r.Violation = fmt.Sprintf("%s: predicate %q violated: victim share %.4f > %.4f (documented attack no longer lands)", c.ID(), c.Predicate, r.VictimShare, c.Bound)
		}
	}
	return r, nil
}

// Attack is one registered attacker: a description of the weakness it
// targets and the per-leaf cells it expands to.
type Attack struct {
	Name        string
	Description string
	// Targets lists the leaves the attack applies to with the expected
	// outcome on each.
	Targets []Target
	// build assembles the scenario for one target at one core count.
	build func(t Target, cores int) simconfig.Config
}

// Target is one leaf a registered attack applies to.
type Target struct {
	Leaf   string
	Expect Expectation
	// Predicate and Bound define the cell's machine-checked condition.
	Predicate string
	Bound     float64
}

// Cells expands the attack over its targets at the given core count.
func (a Attack) Cells(cores int) []Cell {
	out := make([]Cell, 0, len(a.Targets))
	for _, t := range a.Targets {
		out = append(out, Cell{
			Attack:    a.Name,
			Leaf:      t.Leaf,
			Cores:     cores,
			Expect:    t.Expect,
			Predicate: t.Predicate,
			Bound:     t.Bound,
			Victim:    victimName,
			Config:    a.build(t, cores),
		})
	}
	return out
}

// Matrix expands every registered attack over every target at each of the
// given core counts, in registry order — the deterministic work list the
// adversary tests run.
func Matrix(coreCounts []int) []Cell {
	var out []Cell
	for _, cores := range coreCounts {
		for _, a := range Attacks() {
			out = append(out, a.Cells(cores)...)
		}
	}
	return out
}

// Scenario geometry shared by every attack. The horizon is long enough to
// amortize startup transients against the Theorem 1 slack terms, and short
// enough that the full matrix stays a sub-second smoke.
const (
	victimName   = "victim"
	horizon      = 2 * sim.Second
	rateMIPS     = 100 // 100 MIPS: 1 ms of CPU = 100_000 instructions
	arenaQuantum = 5 * sim.Millisecond
	// workMS converts milliseconds of CPU at rateMIPS into instructions.
	workMS = rateMIPS * 1000
)

func dur(t sim.Time) simconfig.Duration { return simconfig.Duration(t) }

// arena builds the shared scenario scaffold: every contender in one leaf
// node. On multicore cells the machine runs the partitioned policy with
// every thread pinned to core 0 — the arena's contention (and therefore
// every predicate bound) is identical to the single-core cell, while the
// run still exercises the multicore dispatch path, per-core structures,
// and core-tagged digests. Partitioned is also the only policy the svr4
// leaf supports.
func arena(leaf string, cores int, threads []simconfig.ThreadConfig) simconfig.Config {
	node := simconfig.NodeConfig{Path: "/arena", Weight: 1, Leaf: leaf, Quantum: dur(arenaQuantum)}
	if leaf == "mlfq" {
		node.Levels = 3
		node.Aging = dur(300 * sim.Millisecond)
	}
	cfg := simconfig.Config{
		RateMIPS: rateMIPS,
		Horizon:  dur(horizon),
		Seed:     1,
		Nodes:    []simconfig.NodeConfig{node},
		Threads:  threads,
	}
	if cores > 1 {
		cfg.Cores = cores
		cfg.Policy = "partitioned"
		zero := 0
		for i := range cfg.Threads {
			cfg.Threads[i].Affinity = &zero
		}
	}
	return cfg
}

// loopThread is a well-behaved CPU-bound contender.
func loopThread(name string) simconfig.ThreadConfig {
	return simconfig.ThreadConfig{Name: name, Leaf: "/arena", Weight: 1,
		Program: simconfig.ProgramConfig{Kind: "loop"}}
}

// napThread computes burst instructions then sleeps off, forever — the
// shape of every sleep-to-win attacker (and of a well-behaved interactive
// victim).
func napThread(name string, burst int64, off sim.Time) simconfig.ThreadConfig {
	return simconfig.ThreadConfig{Name: name, Leaf: "/arena", Weight: 1,
		Program: simconfig.ProgramConfig{Kind: "onoff", Burst: burst, Bursts: 1, Off: dur(off)}}
}
