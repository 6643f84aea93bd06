package experiments

import (
	"math"

	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func init() {
	register("fig10", "SFQ as a leaf scheduler: frames decoded by MPEG threads with weights 5 and 10", runFig10)
}

// runFig10 reproduces the SFQ-as-leaf-scheduler experiment: two threads
// running the MPEG video player with weights 5 and 10 in node SFQ-1. The
// paper finds "the thread with weight 10 decodes twice as many frames as
// compared to the other thread in any time interval".
func runFig10(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	f := buildFig6(1, 1, 1, 10*sim.Millisecond)
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, f.S)
	rng := sim.NewRand(opt.Seed)

	// Both players decode the same clip, like two instances of the
	// Berkeley player on one sequence.
	// A short looped clip of the Berkeley-player era: GOP structure intact
	// but mild scene modulation, like the paper's test sequence.
	gen := workload.DefaultMPEG(int64(rate), rng)
	gen.SceneLow, gen.SceneHigh = 0.85, 1.25
	clip := gen.Trace(200000)
	d5 := workload.NewDecoder(clip, true)
	d10 := workload.NewDecoder(clip, true)

	t5 := sched.NewThread(1, "mpeg-w5", 5)
	must(f.S.Attach(t5, f.SFQ1))
	m.Add(t5, d5, 0)
	t10 := sched.NewThread(2, "mpeg-w10", 10)
	must(f.S.Attach(t10, f.SFQ1))
	m.Add(t10, d10, 0)

	sampler := metrics.NewSampler(2*sim.Second, t5, t10)
	sampler.Install(eng, horizon)
	m.Run(horizon)

	d5w := sampler.Deltas(0)
	d10w := sampler.Deltas(1)
	tbl := metrics.NewTable("t(s)", "frames w=5", "frames w=10", "frame ratio", "CPU ratio")
	worstWork := 0.0
	worstFrames := 0.0
	var r5prev, r10prev int
	for i := range d5w {
		s := sim.Time(i+1) * 2 * sim.Second
		n5 := d5.FramesDecoded(s)
		n10 := d10.FramesDecoded(s)
		frameIv := math.NaN()
		if n5 > r5prev {
			frameIv = float64(n10-r10prev) / float64(n5-r5prev)
			if abs(frameIv-2) > worstFrames {
				worstFrames = abs(frameIv - 2)
			}
		}
		workIv := float64(d10w[i]) / float64(d5w[i])
		if abs(workIv-2) > worstWork {
			worstWork = abs(workIv - 2)
		}
		tbl.AddRow(int64(s/sim.Second), n5, n10, frameIv, workIv)
		r5prev, r10prev = n5, n10
	}
	r.Printf("%s", tbl.String())
	total5 := d5.FramesDecoded(horizon)
	total10 := d10.FramesDecoded(horizon)
	r.Printf("totals: w=5 decoded %d, w=10 decoded %d (ratio %s)\n",
		total5, total10, ratioStr(float64(total10), float64(total5)))
	r.Printf("worst interval deviation from 2: CPU %.3f, frames %.3f\n", worstWork, worstFrames)

	// The CPU split is exactly 2:1 in every interval; the per-interval
	// frame ratio wobbles around 2 because the two decoders sit at
	// different positions of the VBR trace (different scene complexity),
	// while the cumulative frame count converges to 2x, which is what the
	// paper's cumulative Fig. 10 curves show.
	r.Check(worstWork < 0.05, "2x CPU in any interval",
		"worst |CPU interval ratio - 2| = %.3f, want < 0.05", worstWork)
	r.Check(within(float64(total10)/float64(total5), 2, 0.05), "2x frames overall",
		"ratio %.3f", float64(total10)/float64(total5))
	r.Check(worstFrames < 1.0, "interval frame ratio tracks 2x",
		"worst |frame interval ratio - 2| = %.3f (VBR scene wobble)", worstFrames)
	return r
}
