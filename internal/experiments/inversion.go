package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/synch"
)

func init() {
	register("ablation-inversion", "A6: priority inversion under an SFQ leaf, with and without weight transfer (§4)", runAblationInversion)
}

// runAblationInversion quantifies §4's claim that transferring a blocked
// thread's weight to the thread blocking it avoids priority inversion: a
// weight-1 lock holder, a weight-8 hog, and a weight-16 thread that needs
// the lock, all in one SFQ leaf.
func runAblationInversion(opt Options) *Result {
	r := &Result{}
	run := func(transfer bool) []sim.Time {
		leaf := sched.NewSFQ(sim.Millisecond)
		m := cpu.NewMachine(sim.NewEngine(), rate, leaf)
		var donate *sched.SFQ
		if transfer {
			donate = leaf
		}
		mu := synch.NewMutex("m", m, donate)

		low := sched.NewThread(1, "low", 1)
		m.Add(low, &synch.CriticalLoop{
			Mutex: mu, Thread: low,
			CS:    rate.WorkFor(30 * sim.Millisecond),
			Think: 10 * sim.Millisecond,
		}, 0)
		hog := sched.NewThread(2, "hog", 8)
		m.Add(hog, cpu.Forever(cpu.Compute(1_000_000)), 0)
		high := sched.NewThread(3, "high", 16)
		loop := &synch.CriticalLoop{
			Mutex: mu, Thread: high,
			CS:    rate.WorkFor(500 * sim.Microsecond),
			Think: 50 * sim.Millisecond,
		}
		m.Add(high, loop, 5*sim.Millisecond)

		m.Run(20 * sim.Second)
		return loop.AcquireDelays
	}

	without := metrics.Summarize(metrics.Durations(run(false)))
	with := metrics.Summarize(metrics.Durations(run(true)))

	tbl := metrics.NewTable("configuration", "n", "p50 ms", "p90 ms", "max ms")
	tbl.AddRow("no transfer", without.N, without.P50, without.P90, without.Max)
	tbl.AddRow("weight transfer", with.N, with.P50, with.P90, with.Max)
	r.Printf("%s", tbl.String())

	// Shape: the holder's critical section runs ~30ms/(1/25 share) =
	// ~750 ms without transfer vs ~30ms/(17/25) = ~44 ms with it. Demand
	// a conservative 3x improvement in worst-case wait, and that the
	// high-weight thread's p90 also improves.
	r.Check(without.Max > 3*with.Max, "worst-case wait improves >= 3x",
		"max %.1f ms -> %.1f ms", without.Max, with.Max)
	r.Check(with.P90 < without.P90, "p90 wait improves",
		"p90 %.1f ms -> %.1f ms", without.P90, with.P90)
	r.Check(with.N >= without.N, "throughput of lock user not hurt",
		"acquisitions %d -> %d", without.N, with.N)
	return r
}
