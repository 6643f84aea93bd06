package experiments

import (
	"math"

	"hsfq/internal/cpu"
	"hsfq/internal/fcserver"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("ablation-ebf", "A7: stochastic (EBF) throughput guarantee under Poisson interrupt load", runAblationEBF)
}

// runAblationEBF validates the Eq. (7) stochastic guarantee: under
// irregular (Poisson) interrupt load the CPU is an EBF server, and each
// SFQ thread's service must then be EBF with the composed parameters —
// the empirical probability of falling behind its rate by more than
// burst+gamma must stay under B*exp(-alpha*gamma) for every probed gamma.
func runAblationEBF(opt Options) *Result {
	r := &Result{}
	const horizon = 60 * sim.Second
	quantum := 10 * sim.Millisecond
	eng := sim.NewEngine()
	leaf := sched.NewSFQ(quantum)
	m := cpu.NewMachine(eng, rate, leaf)
	rng := sim.NewRand(opt.Seed)

	// Poisson interrupts: 100/s with mean service 1 ms, capped at 5 ms
	// so the load stays ~10% with exponential bursts.
	m.AddInterrupts(&cpu.PoissonInterrupts{
		RatePerSec:  100,
		ServiceMean: sim.Millisecond,
		ServiceCap:  5 * sim.Millisecond,
		Rand:        rng.Fork(),
	})

	weights := []float64{1, 2, 5}
	var threads []*sched.Thread
	for _, w := range weights {
		threads = append(threads, m.Spawn("t", w, cpu.Forever(cpu.Compute(1_000_000)), 0))
	}
	col := fcserver.NewCollector(threads...)
	m.Listen(col)
	m.Run(horizon)

	stolenFrac := float64(m.Stats().Stolen) / float64(horizon)
	// Model the effective CPU as an EBF server: average rate (1-p)*C.
	// The burst/tail parameters are modeled, not derived; the experiment
	// checks that the *composed* per-thread models hold empirically with
	// slack, which is the property the hierarchy relies on.
	server := fcserver.EBF{
		Rate:  (1 - stolenFrac) * float64(rate),
		Burst: float64(rate) / 1000 * 5, // one max interrupt burst
		B:     1,
		Alpha: 1.0 / (float64(rate) / 1000), // tail decays per ms of work
	}
	lmax := float64(rate) * quantum.Seconds()
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}

	gammas := []float64{0, lmax / 2, lmax, 2 * lmax, 4 * lmax}
	tbl := metrics.NewTable("thread", "weight", "EBF rate", "EBF burst", "violating gamma")
	allOK := true
	for i, t := range threads {
		rf := weights[i] / totalW * server.Rate
		others := []float64{}
		for j := range threads {
			if j != i {
				others = append(others, lmax)
			}
		}
		model := fcserver.SFQThroughputEBF(server, rf, lmax, others)
		// Windows of ~1 s of charges: with 10 ms quanta each thread is
		// charged ~weight/total*100 times per second.
		stride := int(math.Max(1, weights[i]/totalW*100))
		bad := model.ConformsEmpirically(col.Points(t), stride, gammas)
		if bad >= 0 {
			allOK = false
		}
		tbl.AddRow(t.ID, weights[i], model.Rate, model.Burst, bad)
	}
	r.Printf("interrupt load: %.1f%% stolen (%d interrupts)\n",
		100*stolenFrac, m.Stats().Interrupts)
	r.Printf("%s", tbl.String())

	r.Check(allOK, "Eq.7 EBF bounds hold", "no probed gamma violated for any thread")
	r.Check(stolenFrac > 0.05 && stolenFrac < 0.2, "interrupt load realistic",
		"stolen fraction %.3f", stolenFrac)
	return r
}
