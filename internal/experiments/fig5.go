package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func init() {
	register("fig5", "Throughput of 5 Dhrystone threads: time-sharing vs SFQ", runFig5)
}

// runFig5 reproduces the limitation-of-conventional-schedulers
// experiment: 5 identical Dhrystone threads under the SVR4 time-sharing
// scheduler receive visibly different throughput, while under SFQ (equal
// weights) they receive the same throughput. The paper ran "in multiuser
// mode with all the normal system processes"; we run the same background
// mix of interactive daemons in both configurations.
func runFig5(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	bench := dhry(0)

	run := func(mk func() sched.Scheduler) ([]int64, []float64) {
		eng := sim.NewEngine()
		m := cpu.NewMachine(eng, rate, mk())
		rng := sim.NewRand(opt.Seed)
		var threads []*sched.Thread
		for i := 0; i < 5; i++ {
			d := dhry(i)
			threads = append(threads, m.Spawn(
				"dhry", 1, d.Program(), 0))
		}
		// Normal system processes: interactive daemons waking frequently.
		for i := 0; i < 4; i++ {
			iv := workload.Interactive{
				ThinkMean: 120 * sim.Millisecond,
				BurstMean: sched.Work(rate / 500), // 2 ms
				Rand:      rng.Fork(),
			}
			m.Spawn("daemon", 1, iv.Program(), 0)
		}
		m.Run(horizon)
		loops := make([]int64, len(threads))
		f := make([]float64, len(threads))
		for i, t := range threads {
			loops[i] = bench.Loops(t.Done)
			f[i] = float64(loops[i])
		}
		return loops, f
	}

	tsLoops, tsF := run(func() sched.Scheduler {
		return sched.NewSVR4(nil, int64(rate), 25*sim.Millisecond)
	})
	sfqLoops, sfqF := run(func() sched.Scheduler {
		return sched.NewSFQ(10 * sim.Millisecond)
	})

	tbl := metrics.NewTable("thread", "TS loops", "SFQ loops")
	for i := range tsLoops {
		tbl.AddRow(i+1, tsLoops[i], sfqLoops[i])
	}
	r.Printf("%s", tbl.String())

	tsCV := metrics.CoefficientOfVariation(tsF)
	sfqCV := metrics.CoefficientOfVariation(sfqF)
	tsSpread := spread(tsF)
	sfqSpread := spread(sfqF)
	r.Printf("TS: CV=%.4f max/min=%.3f | SFQ: CV=%.4f max/min=%.3f\n", tsCV, tsSpread, sfqCV, sfqSpread)

	// Paper shape: "the throughput received by the threads in the
	// time-sharing scheduler varies significantly ... In contrast, all
	// the threads in SFQ received the same throughput".
	r.Check(tsCV > 0.02, "TS throughput varies", "CV=%.4f, want > 0.02", tsCV)
	r.Check(sfqCV < 0.005, "SFQ throughput equal", "CV=%.4f, want < 0.005", sfqCV)
	r.Check(tsCV > 5*sfqCV, "TS vs SFQ spread", "TS CV %.4f vs SFQ CV %.4f", tsCV, sfqCV)
	return r
}

func spread(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}
