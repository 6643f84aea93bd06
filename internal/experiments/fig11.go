package experiments

import (
	"fmt"
	"math"

	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func init() {
	register("fig11", "Dynamic bandwidth allocation: throughput tracks weight changes", runFig11)
}

// fig11Phase describes one segment of the experiment's timeline.
type fig11Phase struct {
	from, to sim.Time
	want     float64 // expected thread1/thread2 throughput ratio; 0 while thread1 sleeps
}

// runFig11 reproduces the dynamic bandwidth allocation experiment: two
// Dhrystone threads in SFQ-1 whose weights (and liveness) change on the
// paper's schedule; the per-second throughput ratio must track the weight
// ratio throughout.
func runFig11(opt Options) *Result {
	r := &Result{}
	const horizon = 26 * sim.Second
	f := buildFig6(1, 1, 1, 10*sim.Millisecond)
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, f.S)

	burst := sched.Work(rate / 10000)
	// Thread 1 is put to sleep at t=6 and resumes at t=9.
	t1 := sched.NewThread(1, "thread1", 4)
	must(f.S.Attach(t1, f.SFQ1))
	m.Add(t1, workload.ScheduledLoop(burst, []workload.Window{{From: 6 * sim.Second, To: 9 * sim.Second}}), 0)
	t2 := sched.NewThread(2, "thread2", 4)
	must(f.S.Attach(t2, f.SFQ1))
	m.Add(t2, workload.ScheduledLoop(burst, nil), 0)

	// The paper's weight-change schedule, applied through the hsfq_admin
	// path (Structure.SetThreadWeight).
	setW := func(at sim.Time, t *sched.Thread, w float64) {
		eng.At(at, func() { must(f.S.SetThreadWeight(t, w)) })
	}
	setW(4*sim.Second, t2, 2)  // ratio 4:2
	setW(12*sim.Second, t1, 8) // ratio 8:2
	setW(16*sim.Second, t2, 4) // ratio 8:4
	setW(22*sim.Second, t1, 4) // ratio 4:4

	sampler := metrics.NewSampler(sim.Second, t1, t2)
	sampler.Install(eng, horizon)
	m.Run(horizon)

	phases := []fig11Phase{
		{0, 4 * sim.Second, 1},
		{4 * sim.Second, 6 * sim.Second, 2},
		{6 * sim.Second, 9 * sim.Second, 0},
		{9 * sim.Second, 12 * sim.Second, 2},
		{12 * sim.Second, 16 * sim.Second, 4},
		{16 * sim.Second, 22 * sim.Second, 2},
		{22 * sim.Second, 26 * sim.Second, 1},
	}

	d1 := sampler.Deltas(0)
	d2 := sampler.Deltas(1)
	tbl := metrics.NewTable("t(s)", "thread1 work", "thread2 work", "ratio")
	for i := range d1 {
		ratio := math.NaN()
		if d2[i] > 0 {
			ratio = float64(d1[i]) / float64(d2[i])
		}
		tbl.AddRow(i+1, int64(d1[i]), int64(d2[i]), ratio)
	}
	r.Printf("%s", tbl.String())
	if opt.Plot {
		must(metrics.AsciiPlot(&r.out, 10, map[rune][]float64{
			'1': workSeries(d1), '2': workSeries(d2),
		}))
	}

	// Per phase, skip the boundary second (a weight change mid-interval
	// mixes two regimes) and check interior seconds against the expected
	// ratio.
	allOK := true
	detail := ""
	for _, ph := range phases {
		for s := ph.from/sim.Second + 1; s < ph.to/sim.Second; s++ {
			i := int(s) // deltas[i] covers [i, i+1) seconds
			if i >= len(d1) {
				continue
			}
			if ph.want == 0 {
				if d1[i] > sched.Work(rate/100) { // >10ms of work while asleep
					allOK = false
					detail = sprintfPhase(ph, i, float64(d1[i]), 0)
				}
				continue
			}
			got := float64(d1[i]) / float64(d2[i])
			if !within(got, ph.want, 0.08) {
				allOK = false
				detail = sprintfPhase(ph, i, got, ph.want)
			}
		}
	}
	r.Check(allOK, "ratio tracks weights", "phases 1,2,0,2,4,2,1 %s", detail)

	// While thread1 sleeps, thread2 takes the whole node's bandwidth.
	sleepSec := d2[7] // second [7,8) is inside the sleep window
	awakeSec := d2[2]
	r.Check(float64(sleepSec) > 1.8*float64(awakeSec), "sleeper's share redistributed",
		"thread2 work asleep-window %d vs shared-window %d", sleepSec, awakeSec)
	return r
}

func workSeries(d []sched.Work) []float64 {
	out := make([]float64, len(d))
	for i, w := range d {
		out[i] = float64(w)
	}
	return out
}

func sprintfPhase(ph fig11Phase, sec int, got, want float64) string {
	return fmt.Sprintf("(phase %v-%v second %d: ratio %.3f, want %.3f)", ph.from, ph.to, sec, got, want)
}
