// Package cpu simulates a uniprocessor machine executing threads under a
// pluggable scheduler. It is the substrate standing in for the paper's
// Solaris 2.4 kernel on a SPARCstation 10: it implements preemption,
// quantum expiry, blocking and wakeup, and top-priority interrupt
// servicing, all in deterministic simulated time.
//
// The machine charges schedulers with the work a thread *actually*
// consumed, which is how the paper's hsfq_update operates and the property
// SFQ depends on ("the length of the quantum is required only when it
// finishes execution").
package cpu

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Rate is a CPU speed in instructions per second. The paper models the CPU
// in MIPS; DefaultRate corresponds to a 100 MIPS machine, the example used
// in §3 ("a thread that needs 30% of a 100MIPS CPU would have a rate of 30
// MIPS").
type Rate int64

// DefaultRate is 100 MIPS.
const DefaultRate Rate = 100_000_000

// MIPS constructs a Rate from a MIPS figure.
func MIPS(m int64) Rate { return Rate(m * 1_000_000) }

// TimeFor returns the time needed to execute w instructions at rate r,
// rounded up so that scheduling a segment of TimeFor(w) always completes
// at least w instructions.
func (r Rate) TimeFor(w sched.Work) sim.Time {
	if w < 0 {
		panic(fmt.Sprintf("cpu: TimeFor of negative work %d", w))
	}
	return sim.Time(sim.MulDivCeil(uint64(w), uint64(sim.Second), uint64(r)))
}

// WorkFor returns the instructions executed in duration d at rate r,
// rounded down.
func (r Rate) WorkFor(d sim.Time) sched.Work {
	if d < 0 {
		panic(fmt.Sprintf("cpu: WorkFor of negative duration %d", d))
	}
	return sched.Work(sim.MulDivFloor(uint64(d), uint64(r), uint64(sim.Second)))
}
