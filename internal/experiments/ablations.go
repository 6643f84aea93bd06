package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/fairqueue"
	"hsfq/internal/fcserver"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("ablation-fairness", "A1: SFQ vs WFQ/FQS/SCFQ fairness under fluctuating server rate", runAblationFairness)
	register("ablation-delay", "A2: delay of a low-throughput flow, SFQ vs WFQ", runAblationDelay)
	register("ablation-lottery", "A3: short-interval fairness, lottery vs stride vs SFQ", runAblationLottery)
	register("ablation-bounds", "A5: measured service vs FC throughput bound under interrupt load", runAblationBounds)
}

// runAblationFairness reproduces the paper's central argument for SFQ over
// WFQ/FQS (§2 requirement 1, §6): fairness must survive bandwidth
// fluctuation. Three equal-weight flows; flows 0 and 1 are backlogged from
// t=0; the server's rate drops to a fifth of nominal during [2s, 6s]; flow
// 2 becomes backlogged at t=4s. WFQ and FQS stamp flow 2 with a GPS
// virtual time computed at *nominal* rate — far ahead of the service
// actually delivered — so flow 2 is starved long after it joins. SFQ's
// virtual time follows actual service and shares 1:1:1 immediately.
func runAblationFairness(opt Options) *Result {
	r := &Result{}
	const nominal = float64(rate) // work/sec
	pkt := sched.Work(rate / 1000)
	mkPackets := func() []*fairqueue.Packet {
		return fairqueue.Merge(
			fairqueue.Batch(0, pkt, 30000, 0),
			fairqueue.Batch(1, pkt, 30000, 0),
			fairqueue.Batch(2, pkt, 30000, 4*sim.Second),
		)
	}
	changes := []fairqueue.RateChange{
		{At: 0, Rate: nominal},
		{At: 2 * sim.Second, Rate: nominal / 5},
		{At: 6 * sim.Second, Rate: nominal},
	}
	weights := []float64{1, 1, 1}

	// Measure each flow's normalized service in [4s, 8s] — the window in
	// which all three flows are backlogged.
	window := [2]sim.Time{4 * sim.Second, 8 * sim.Second}
	type algCase struct {
		name string
		alg  fairqueue.Algorithm
	}
	cases := []algCase{
		{"sfq", fairqueue.NewSFQ(weights)},
		{"scfq", fairqueue.NewSCFQ(weights)},
		{"wfq", fairqueue.NewWFQ(nominal, weights)},
		{"fqs", fairqueue.NewFQS(nominal, weights)},
	}

	tbl := metrics.NewTable("algorithm", "flow0/w", "flow1/w", "flow2/w", "max gap", "flow2 share")
	gaps := map[string]float64{}
	share2 := map[string]float64{}
	for _, c := range cases {
		srv := fairqueue.NewServer(c.alg, changes)
		served := srv.Run(mkPackets())
		norm := fairqueue.NormalizedService(srv, served, weights, window[0], window[1])
		gap := fairqueue.MaxGap(norm)
		total := norm[0] + norm[1] + norm[2]
		gaps[c.name] = gap
		share2[c.name] = norm[2] / total
		tbl.AddRow(c.name, norm[0], norm[1], norm[2], gap, norm[2]/total)
	}
	r.Printf("server: %v nominal, /5 during [2s,6s]; flow 2 joins at 4s; window [4s,8s]\n", nominal)
	r.Printf("%s", tbl.String())

	// SFQ's gap is bounded by lmax/w_i + lmax/w_j regardless of
	// fluctuation (Eq. 3); the reference-clock algorithms blow through it.
	bound := 2 * float64(pkt) / weights[0]
	r.Check(gaps["sfq"] <= bound+1, "SFQ within fairness bound",
		"gap %.0f, bound %.0f", gaps["sfq"], bound)
	r.Check(gaps["wfq"] > 10*bound, "WFQ unfair under fluctuation",
		"gap %.0f vs SFQ bound %.0f", gaps["wfq"], bound)
	r.Check(gaps["fqs"] > 10*bound, "FQS unfair under fluctuation",
		"gap %.0f vs SFQ bound %.0f", gaps["fqs"], bound)
	r.Check(share2["sfq"] > 0.30 && share2["sfq"] < 0.36, "SFQ gives joiner its share",
		"flow2 share %.3f, want ~1/3", share2["sfq"])
	r.Check(share2["wfq"] < share2["sfq"]/2, "WFQ starves joiner",
		"flow2 share %.3f under WFQ vs %.3f under SFQ", share2["wfq"], share2["sfq"])
	// SCFQ's self-clock also follows actual service; it should remain fair
	// (its weakness is delay, not fluctuation — see ablation-delay).
	r.Check(gaps["scfq"] <= 2*bound, "SCFQ fair under fluctuation",
		"gap %.0f", gaps["scfq"])
	return r
}

// runAblationDelay reproduces §6's low-throughput delay comparison: a
// low-rate flow sends a small request periodically while a heavy flow
// stays backlogged. WFQ orders by finish tags, penalizing the low-weight
// flow by L/r_f; SFQ orders by start tags and serves it almost
// immediately.
func runAblationDelay(opt Options) *Result {
	r := &Result{}
	const nominal = float64(rate)
	weights := []float64{1, 9}
	req := sched.Work(rate / 100) // 10 ms of service
	mk := func() []*fairqueue.Packet {
		return fairqueue.Merge(
			fairqueue.Spaced(0, req, 50, 0, 500*sim.Millisecond),
			fairqueue.Batch(1, req, 100000, 0),
		)
	}

	maxDelay := func(alg fairqueue.Algorithm) sim.Time {
		srv := fairqueue.ConstantServer(alg, nominal)
		served := srv.Run(mk())
		var worst sim.Time
		for _, p := range served {
			if p.Flow == 0 {
				if d := p.Departed - p.Arrive; d > worst {
					worst = d
				}
			}
		}
		return worst
	}

	dSFQ := maxDelay(fairqueue.NewSFQ(weights))
	dWFQ := maxDelay(fairqueue.NewWFQ(nominal, weights))
	dSCFQ := maxDelay(fairqueue.NewSCFQ(weights))

	r.Printf("low-rate flow (w=1 of 10) max request delay: sfq=%v wfq=%v scfq=%v\n", dSFQ, dWFQ, dSCFQ)

	// Analytic cross-check from fcserver: with equal quanta, SFQ beats
	// WFQ exactly when r_f < C/(n-1).
	adv := fcserver.DelayAdvantageSFQ(fcserver.FC{Rate: nominal}, float64(req), nominal/10, 2)
	r.Printf("analytic D_sfq - D_wfq for this configuration: %.4fs (negative favors SFQ)\n", adv)

	r.Check(dSFQ < dWFQ, "SFQ lower delay for low-throughput flow",
		"sfq %v < wfq %v", dSFQ, dWFQ)
	r.Check(adv < 0, "analytic bound agrees", "advantage %.4fs", adv)
	r.Check(dSCFQ >= dSFQ, "SCFQ delay no better than SFQ", "scfq %v vs sfq %v", dSCFQ, dSFQ)
	return r
}

// runAblationLottery reproduces the related-work observation that lottery
// scheduling "achieved fairness only over large time-intervals" while
// stride and SFQ are fair over any interval: two equal-weight CPU-bound
// threads, windowed throughput ratio over 100 ms windows.
func runAblationLottery(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	quantum := 10 * sim.Millisecond

	run := func(mk func(rng *sim.Rand) sched.Scheduler) (windowCV float64, longRatio float64) {
		eng := sim.NewEngine()
		rng := sim.NewRand(opt.Seed)
		m := cpu.NewMachine(eng, rate, mk(rng))
		a := m.Spawn("a", 1, cpu.Forever(cpu.Compute(1_000_000)), 0)
		b := m.Spawn("b", 1, cpu.Forever(cpu.Compute(1_000_000)), 0)
		sampler := metrics.NewSampler(100*sim.Millisecond, a, b)
		sampler.Install(eng, horizon)
		m.Run(horizon)
		da, db := sampler.Deltas(0), sampler.Deltas(1)
		var ratios []float64
		for i := range da {
			if db[i] > 0 {
				ratios = append(ratios, float64(da[i])/float64(db[i]))
			}
		}
		return metrics.CoefficientOfVariation(ratios), float64(a.Done) / float64(b.Done)
	}

	cvLottery, longLottery := run(func(rng *sim.Rand) sched.Scheduler { return sched.NewLottery(quantum, rng) })
	cvStride, longStride := run(func(rng *sim.Rand) sched.Scheduler { return sched.NewStride(quantum) })
	cvSFQ, longSFQ := run(func(rng *sim.Rand) sched.Scheduler { return sched.NewSFQ(quantum) })

	tbl := metrics.NewTable("scheduler", "100ms-window ratio CV", "30s ratio")
	tbl.AddRow("lottery", cvLottery, longLottery)
	tbl.AddRow("stride", cvStride, longStride)
	tbl.AddRow("sfq", cvSFQ, longSFQ)
	r.Printf("%s", tbl.String())

	r.Check(within(longLottery, 1, 0.05), "lottery fair long-run", "30s ratio %.3f", longLottery)
	r.Check(cvLottery > 10*cvSFQ && cvLottery > 0.05, "lottery unfair short-run",
		"window CV %.4f vs SFQ %.4f", cvLottery, cvSFQ)
	r.Check(cvStride < 0.05 && cvSFQ < 0.05, "stride and SFQ fair short-run",
		"stride %.4f, sfq %.4f", cvStride, cvSFQ)
	return r
}

// runAblationBounds validates the FC throughput guarantee (Eq. 6) against
// a measured schedule: an SFQ leaf with three weighted threads on a CPU
// losing 10% of its bandwidth to periodic interrupts. The effective CPU
// is FC(0.9C, delta); every thread's measured service must conform to the
// FC parameters Eq. (6) predicts.
func runAblationBounds(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	quantum := 10 * sim.Millisecond
	eng := sim.NewEngine()
	leaf := sched.NewSFQ(quantum)
	m := cpu.NewMachine(eng, rate, leaf)
	m.AddInterrupts(&cpu.PeriodicInterrupts{Period: 10 * sim.Millisecond, Service: sim.Millisecond})

	weights := []float64{1, 2, 5}
	var threads []*sched.Thread
	for i, w := range weights {
		threads = append(threads, m.Spawn("t", w, cpu.Forever(cpu.Compute(1_000_000)), 0))
		_ = i
	}
	col := fcserver.NewCollector(threads...)
	m.Listen(col)
	m.Run(horizon)

	// Effective CPU: rate 0.9C; burstiness = work lost to one service
	// window = C * 1ms (the server can be a full interrupt behind).
	server := fcserver.FC{Rate: 0.9 * float64(rate), Burst: float64(rate) / 1000}
	lmax := float64(rate) * quantum.Seconds() // quantum in instructions
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}

	tbl := metrics.NewTable("thread", "weight", "measured work", "FC rate", "FC burst (Eq.6)", "worst deficit")
	allOK := true
	for i, t := range threads {
		rf := weights[i] / totalW * server.Rate
		others := []float64{}
		for j := range threads {
			if j != i {
				others = append(others, lmax)
			}
		}
		fc := fcserver.SFQThroughput(server, rf, lmax, others)
		deficit := fc.WorstDeficit(col.Points(t))
		if deficit > 1 {
			allOK = false
		}
		tbl.AddRow(t.ID, weights[i], int64(t.Done), fc.Rate, fc.Burst, deficit)
	}
	r.Printf("%s", tbl.String())
	r.Check(allOK, "Eq.6 FC bound holds", "every thread's measured service conforms")

	// Tightest measured burst must not exceed the analytic bound for the
	// lightest thread (the most exposed one).
	rf := weights[0] / totalW * server.Rate
	bound := fcserver.SFQThroughput(server, rf, lmax, []float64{lmax, lmax}).Burst
	tight := fcserver.TightestBurst(rf, col.Points(threads[0]))
	r.Printf("thread1 tightest empirical burst %.0f vs analytic bound %.0f\n", tight, bound)
	r.Check(tight <= bound, "empirical burst within bound", "%.0f <= %.0f", tight, bound)
	return r
}
