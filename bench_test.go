package hsfq_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/experiments"
	"hsfq/internal/fairqueue"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
	"hsfq/internal/tracestream"
)

// ---- Figure regeneration benchmarks: one per table/figure of the
// paper's evaluation. Each iteration re-runs the full experiment
// (simulation + shape checks), so ns/op measures the cost of reproducing
// that figure end to end.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("%s failed shape checks:\n%s", id, res.Summary())
		}
	}
}

func BenchmarkFig1MPEGTrace(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig3Trace(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig5TimeSharing(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig7aOverhead(b *testing.B)     { benchExperiment(b, "fig7a") }
func BenchmarkFig7bDepth(b *testing.B)        { benchExperiment(b, "fig7b") }
func BenchmarkFig8aHierarchy(b *testing.B)    { benchExperiment(b, "fig8a") }
func BenchmarkFig8bIsolation(b *testing.B)    { benchExperiment(b, "fig8b") }
func BenchmarkFig9RealTime(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Video(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11Dynamic(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkAblationFairness(b *testing.B)  { benchExperiment(b, "ablation-fairness") }
func BenchmarkAblationDelay(b *testing.B)     { benchExperiment(b, "ablation-delay") }
func BenchmarkAblationLottery(b *testing.B)   { benchExperiment(b, "ablation-lottery") }
func BenchmarkAblationBounds(b *testing.B)    { benchExperiment(b, "ablation-bounds") }
func BenchmarkAblationInversion(b *testing.B) { benchExperiment(b, "ablation-inversion") }
func BenchmarkAblationEBF(b *testing.B)       { benchExperiment(b, "ablation-ebf") }

// ---- A4 ablation: scheduling cost of the hierarchy's hot path
// (hsfq_schedule + hsfq_update) as fan-out and depth grow. The paper
// argues the per-decision cost is O(log n) in the fan-out and linear in
// the depth, and negligible against multi-millisecond quanta.

// BenchmarkScheduleFanout measures one Pick+Charge through the root with
// n runnable leaf children.
func BenchmarkScheduleFanout(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		b.Run(fmt.Sprintf("children-%d", n), func(b *testing.B) {
			s := core.NewStructure()
			for i := 0; i < n; i++ {
				leaf := sched.NewSFQ(10 * sim.Millisecond)
				id, err := s.Mknod(fmt.Sprintf("c%d", i), core.RootID, float64(i%7+1), leaf)
				if err != nil {
					b.Fatal(err)
				}
				t := sched.NewThread(i+1, "t", 1)
				if err := s.Attach(t, id); err != nil {
					b.Fatal(err)
				}
				s.Enqueue(t, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := s.Pick(0)
				s.Charge(t, 1_000_000, 0, true)
			}
		})
	}
}

// BenchmarkScheduleDepth measures one Pick+Charge through a chain of
// intermediate nodes, the Fig. 7(b) dimension.
func BenchmarkScheduleDepth(b *testing.B) {
	for _, depth := range []int{0, 5, 10, 30} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s := core.NewStructure()
			parent := core.RootID
			for d := 0; d < depth; d++ {
				id, err := s.Mknod(fmt.Sprintf("d%d", d), parent, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				parent = id
			}
			leafID, err := s.Mknod("leaf", parent, 1, sched.NewSFQ(10*sim.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			t := sched.NewThread(1, "t", 1)
			if err := s.Attach(t, leafID); err != nil {
				b.Fatal(err)
			}
			s.Enqueue(t, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := s.Pick(0)
				s.Charge(got, 1_000_000, 0, true)
			}
		})
	}
}

// ---- Leaf scheduler hot paths: Pick+Charge per algorithm with 16
// runnable threads, the comparison behind §3's computational-efficiency
// claim.

func BenchmarkLeafSchedulers(b *testing.B) {
	// A slice, not a map, so every run prints the rungs in one order.
	algos := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"sfq", func() sched.Scheduler { return sched.NewSFQ(10 * sim.Millisecond) }},
		{"rr", func() sched.Scheduler { return sched.NewRoundRobin(10 * sim.Millisecond) }},
		{"edf", func() sched.Scheduler { return sched.NewEDF(10 * sim.Millisecond) }},
		{"rm", func() sched.Scheduler { return sched.NewRM(10 * sim.Millisecond) }},
		{"svr4", func() sched.Scheduler { return sched.NewSVR4(nil, 100_000_000, 25*sim.Millisecond) }},
		{"lottery", func() sched.Scheduler { return sched.NewLottery(10*sim.Millisecond, sim.NewRand(1)) }},
		{"stride", func() sched.Scheduler { return sched.NewStride(10 * sim.Millisecond) }},
		{"eevdf", func() sched.Scheduler { return sched.NewEEVDF(10*sim.Millisecond, 1_000_000) }},
		{"priority", func() sched.Scheduler { return sched.NewPriority(10 * sim.Millisecond) }},
		{"reserves", func() sched.Scheduler { return sched.NewReserves(10 * sim.Millisecond) }},
	}
	for _, algo := range algos {
		b.Run(algo.name, func(b *testing.B) {
			s := algo.mk()
			for i := 0; i < 16; i++ {
				t := sched.NewThread(i+1, "t", float64(i%5+1))
				t.Period = sim.Time(i+1) * 10 * sim.Millisecond
				s.Enqueue(t, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				t := s.Pick(now)
				s.Charge(t, 1_000_000, now, true)
				now += sim.Millisecond
			}
		})
	}
}

// BenchmarkMachineSimulation measures simulated-seconds-per-real-second
// of the full machine: the Fig. 6 structure with six threads.
func BenchmarkMachineSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.NewStructure()
		id1, _ := s.Mknod("a", core.RootID, 2, sched.NewSFQ(10*sim.Millisecond))
		id2, _ := s.Mknod("b", core.RootID, 6, sched.NewSFQ(10*sim.Millisecond))
		m := cpu.NewMachine(sim.NewEngine(), cpu.DefaultRate, s)
		for j := 0; j < 3; j++ {
			t1 := sched.NewThread(j+1, "t", 1)
			if err := s.Attach(t1, id1); err != nil {
				b.Fatal(err)
			}
			m.Add(t1, cpu.Forever(cpu.Compute(100_000_000)), 0)
			t2 := sched.NewThread(j+10, "u", 1)
			if err := s.Attach(t2, id2); err != nil {
				b.Fatal(err)
			}
			m.Add(t2, cpu.Forever(cpu.Compute(100_000_000)), 0)
		}
		m.Run(10 * sim.Second)
	}
}

// BenchmarkEventStorm is the engine's pure event-loop hot path under
// timer pressure: a fixed population of outstanding timers, each firing
// re-arms itself at a mostly-near-future horizon (with occasional
// far-future jumps). ns/op is the cost of one pop+push cycle at that
// population. The shipped scenarios keep at most 7 (example configs), 64
// (the benchmark's engine workload) and 303 (all experiments) events
// pending; 4,096 was the timing wheel's design point.
func BenchmarkEventStorm(b *testing.B) {
	for _, outstanding := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("pending-%d", outstanding), func(b *testing.B) {
			eng := sim.NewEngine()
			rng := sim.NewRand(7)
			var arm func()
			arm = func() {
				delta := sim.Time(1_000 + rng.Int63n(1_000_000))
				if rng.Int63n(64) == 0 {
					delta = sim.Time(rng.Int63n(int64(10 * sim.Second)))
				}
				eng.After(delta, arm)
			}
			for i := 0; i < outstanding; i++ {
				arm()
			}
			// Warm through one full population so the event pool reaches
			// steady state before the timer starts.
			for i := 0; i < outstanding; i++ {
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// stormConfig is the whole-run throughput scenario: a hierarchy with
// periodic hard-real-time load, an MPEG decoder, interactive and batch
// threads, and two interrupt sources — the event-densest single-core
// shape the paper's evaluation uses.
const stormConfig = `{
  "rate_mips": 100,
  "horizon": "2s",
  "seed": 42,
  "nodes": [
    {"path": "/rt", "weight": 3},
    {"path": "/rt/hard", "weight": 2, "leaf": "edf"},
    {"path": "/rt/soft", "weight": 1, "leaf": "sfq", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "svr4"}
  ],
  "threads": [
    {"name": "sensor", "leaf": "/rt/hard",
     "program": {"kind": "periodic", "period": "10ms", "cost": "1ms"}},
    {"name": "dec", "leaf": "/rt/soft", "weight": 3,
     "program": {"kind": "mpeg", "frames": 90, "loop": true}},
    {"name": "editor", "leaf": "/rt/soft",
     "program": {"kind": "interactive", "think_mean": "40ms"}},
    {"name": "make", "leaf": "/be",
     "program": {"kind": "dhrystone", "fault_every": 50, "fault_sleep": "2ms"}}
  ],
  "interrupts": [
    {"kind": "periodic", "period": "5ms", "service": "100us"},
    {"kind": "poisson", "rate_per_sec": 200, "service": "200us"}
  ]
}`

// BenchmarkSimThroughput measures whole-run speed as simulated
// nanoseconds per wall nanosecond (reported via the sim_ns/wall_ns
// metric). One iteration builds and runs the storm scenario to its 2 s
// horizon.
func BenchmarkSimThroughput(b *testing.B) {
	cfg, err := simconfig.Parse(strings.NewReader(stormConfig))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var simulated sim.Time
	for i := 0; i < b.N; i++ {
		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		simulated += s.Engine.Now()
	}
	wall := time.Since(start)
	if wall > 0 {
		b.ReportMetric(float64(simulated)/float64(wall.Nanoseconds()), "sim_ns/wall_ns")
	}
}

// BenchmarkBuild measures simconfig.Build alone, the setup every job pays
// before it simulates, on the two shipped configs with MPEG decoders.
// Decoders draw their frames as they reach them, so Build's B/op does
// not grow with a config's frame count.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"video-server", "paper-fig2"} {
		b.Run(name, func(b *testing.B) {
			f, err := os.Open(filepath.Join("examples", "configs", name+".json"))
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := simconfig.Parse(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simconfig.Build(cfg, simconfig.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceRecord measures the trace recording hsfqd attaches to
// every job it executes, per event row: a recording Broadcaster folds
// each event into its digest and encodes its frame onto the recording,
// once with no subscriber and once with one subscriber that takes its
// frames after every run. The rows are the events of one video-server
// run, replayed from memory, so ns/op and allocs/op are per row and
// include the recording's amortized growth.
func BenchmarkTraceRecord(b *testing.B) {
	f, err := os.Open(filepath.Join("examples", "configs", "video-server.json"))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := simconfig.Parse(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	s.Machine.Listen(rec)
	s.Run()
	events, metas := rec.Events(), s.ThreadMetas()
	for _, subs := range []int{0, 1} {
		b.Run(fmt.Sprintf("subs-%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= len(events) {
				bc := tracestream.New()
				bc.EnableRecording(0)
				bc.SetNumCores(s.Machine.NumCores())
				var sub *tracestream.Subscriber
				if subs > 0 {
					sub = bc.Subscribe(64 << 20)
				}
				bc.Begin(metas)
				for _, e := range events[:min(left, len(events))] {
					bc.Add(e)
				}
				bc.Finish()
				if sub != nil {
					sub.Take()
				}
			}
		})
	}
}

// BenchmarkPacketAlgorithms measures packet-level Arrive+Dequeue+Complete
// across the fair queuing family.
func BenchmarkPacketAlgorithms(b *testing.B) {
	weights := []float64{1, 2, 3, 4}
	algos := []struct {
		name string
		mk   func() fairqueue.Algorithm
	}{
		{"sfq", func() fairqueue.Algorithm { return fairqueue.NewSFQ(weights) }},
		{"scfq", func() fairqueue.Algorithm { return fairqueue.NewSCFQ(weights) }},
		{"wfq", func() fairqueue.Algorithm { return fairqueue.NewWFQ(1e6, weights) }},
		{"fqs", func() fairqueue.Algorithm { return fairqueue.NewFQS(1e6, weights) }},
	}
	for _, algo := range algos {
		b.Run(algo.name, func(b *testing.B) {
			alg := algo.mk()
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				p := &fairqueue.Packet{Flow: i % 4, Size: 1000, Arrive: now}
				alg.Arrive(p, now)
				q := alg.Dequeue(now)
				now += sim.Millisecond
				alg.Complete(q, now)
			}
		})
	}
}

func BenchmarkAblationProtection(b *testing.B) { benchExperiment(b, "ablation-protection") }

func BenchmarkAblationRecursive(b *testing.B) { benchExperiment(b, "ablation-recursive") }

func BenchmarkAblationLeaf(b *testing.B) { benchExperiment(b, "ablation-leaf") }
