package workload

import (
	"strings"
	"testing"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func TestDhrystoneBatching(t *testing.T) {
	d := Dhrystone{LoopWork: 100, FaultEvery: 50, FaultSleep: 2 * sim.Millisecond, Phase: 10}
	p := d.Program()
	a := p.Next(0)
	if a.Kind != cpu.ActionCompute || a.Work != 100*(50-10) {
		t.Errorf("first batch %+v, want compute of 40 loops", a)
	}
	b := p.Next(0)
	if b.Kind != cpu.ActionSleep || b.Duration != 2*sim.Millisecond {
		t.Errorf("expected fault sleep, got %+v", b)
	}
	c := p.Next(0)
	if c.Kind != cpu.ActionCompute || c.Work != 100*50 {
		t.Errorf("steady batch %+v, want 50 loops", c)
	}
	if d.Loops(100*75) != 75 {
		t.Errorf("Loops conversion wrong")
	}
}

func TestDhrystoneFaultless(t *testing.T) {
	d := Dhrystone{LoopWork: 100}
	p := d.Program()
	for i := 0; i < 5; i++ {
		a := p.Next(0)
		if a.Kind != cpu.ActionCompute || a.Work <= 0 {
			t.Fatalf("action %d: %+v", i, a)
		}
	}
}

func TestCPUBoundAndValidation(t *testing.T) {
	p := CPUBound(500)
	if a := p.Next(0); a.Kind != cpu.ActionCompute || a.Work != 500 {
		t.Errorf("%+v", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("CPUBound(0) did not panic")
		}
	}()
	CPUBound(0)
}

func TestOnOff(t *testing.T) {
	p := OnOff(100, 2, sim.Second)
	seq := []cpu.ActionKind{cpu.ActionCompute, cpu.ActionCompute, cpu.ActionSleep, cpu.ActionCompute, cpu.ActionCompute, cpu.ActionSleep}
	for i, want := range seq {
		if a := p.Next(0); a.Kind != want {
			t.Fatalf("action %d kind %v, want %v", i, a.Kind, want)
		}
	}
}

func TestScheduledLoop(t *testing.T) {
	p := ScheduledLoop(100, []Window{{From: sim.Second, To: 2 * sim.Second}})
	if a := p.Next(0); a.Kind != cpu.ActionCompute {
		t.Errorf("before window: %+v", a)
	}
	a := p.Next(1500 * sim.Millisecond)
	if a.Kind != cpu.ActionSleepUntil || a.Until != 2*sim.Second {
		t.Errorf("inside window: %+v", a)
	}
	if a := p.Next(2 * sim.Second); a.Kind != cpu.ActionCompute {
		t.Errorf("after window: %+v", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("inverted window did not panic")
		}
	}()
	ScheduledLoop(100, []Window{{From: 5, To: 5}})
}

func TestInteractiveAlternates(t *testing.T) {
	iv := Interactive{ThinkMean: 100 * sim.Millisecond, BurstMean: 1000, Rand: sim.NewRand(1)}
	p := iv.Program()
	for i := 0; i < 20; i++ {
		a := p.Next(0)
		wantSleep := i%2 == 0
		if wantSleep && a.Kind != cpu.ActionSleep {
			t.Fatalf("action %d: %+v, want sleep", i, a)
		}
		if !wantSleep && a.Kind != cpu.ActionCompute {
			t.Fatalf("action %d: %+v, want compute", i, a)
		}
		if a.Kind == cpu.ActionSleep && a.Duration < 1 {
			t.Fatal("non-positive think time")
		}
		if a.Kind == cpu.ActionCompute && a.Work < 1 {
			t.Fatal("non-positive burst")
		}
	}
}

func TestMPEGTraceDeterministicAndShaped(t *testing.T) {
	g1 := DefaultMPEG(100_000_000, sim.NewRand(5))
	g2 := DefaultMPEG(100_000_000, sim.NewRand(5))
	t1, t2 := g1.Trace(500), g2.Trace(500)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("same seed produced different traces")
		}
		if t1[i] <= 0 {
			t.Fatal("non-positive frame cost")
		}
	}
	// I frames cost more than B frames on average.
	var iSum, bSum sched.Work
	var iN, bN int
	for i, w := range t1 {
		switch g1.GOP[i%len(g1.GOP)] {
		case 'I':
			iSum += w
			iN++
		case 'B':
			bSum += w
			bN++
		}
	}
	if float64(iSum)/float64(iN) < 1.5*float64(bSum)/float64(bN) {
		t.Errorf("I/B cost ratio too small: %v vs %v", iSum/sched.Work(iN), bSum/sched.Work(bN))
	}
}

func TestMPEGValidation(t *testing.T) {
	g := DefaultMPEG(100_000_000, sim.NewRand(1))
	g.GOP = "IXP"
	defer func() {
		if recover() == nil {
			t.Error("bad GOP did not panic")
		}
	}()
	g.Trace(10)
}

// TestMPEGDecoderMatchesTrace pins the on-demand decoder to the eager
// trace: the same generator yields the same costs in the same order,
// a looping decoder cycles them, and a non-looping one exits after them.
func TestMPEGDecoderMatchesTrace(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, n := range []int{1, 9, 1000} {
			want := DefaultMPEG(100_000_000, sim.NewRand(seed)).Trace(n)
			once := DefaultMPEG(100_000_000, sim.NewRand(seed)).Decoder(n, false)
			for i, w := range want {
				if a := once.Next(0); a.Kind != cpu.ActionCompute || a.Work != w {
					t.Fatalf("seed %d n %d: frame %d is %+v, want compute of %d", seed, n, i, a, w)
				}
			}
			if a := once.Next(0); a.Kind != cpu.ActionExit {
				t.Fatalf("seed %d n %d: non-looping decoder went on with %+v", seed, n, a)
			}
			looping := DefaultMPEG(100_000_000, sim.NewRand(seed)).Decoder(n, true)
			for i := 0; i < 3*n+2; i++ {
				if a := looping.Next(0); a.Kind != cpu.ActionCompute || a.Work != want[i%n] {
					t.Fatalf("seed %d n %d: looped frame %d is %+v, want compute of %d", seed, n, i, a, want[i%n])
				}
			}
		}
	}
}

func TestDecoderCountsFrames(t *testing.T) {
	trace := []sched.Work{100, 200, 300}
	d := NewDecoder(trace, false)
	if a := d.Next(0); a.Work != 100 {
		t.Fatalf("first frame %+v", a)
	}
	if a := d.Next(10 * sim.Millisecond); a.Work != 200 {
		t.Fatalf("second frame %+v", a)
	}
	if a := d.Next(30 * sim.Millisecond); a.Work != 300 {
		t.Fatalf("third frame %+v", a)
	}
	if a := d.Next(60 * sim.Millisecond); a.Kind != cpu.ActionExit {
		t.Fatalf("expected exit, got %+v", a)
	}
	if d.FramesDecoded(5*sim.Millisecond) != 0 {
		t.Error("frames at 5ms")
	}
	if d.FramesDecoded(10*sim.Millisecond) != 1 {
		t.Error("frames at 10ms")
	}
	if d.FramesDecoded(sim.Second) != 3 {
		t.Errorf("total frames %d", d.FramesDecoded(sim.Second))
	}
	if got := d.CompletionTimes(); len(got) != 3 || got[2] != 60*sim.Millisecond {
		t.Errorf("completions %v", got)
	}
}

func TestDecoderLoops(t *testing.T) {
	d := NewDecoder([]sched.Work{100}, true)
	for i := 0; i < 5; i++ {
		if a := d.Next(sim.Time(i) * sim.Millisecond); a.Kind != cpu.ActionCompute {
			t.Fatalf("loop decoder stopped at %d: %+v", i, a)
		}
	}
	if d.FramesDecoded(sim.Second) != 4 {
		t.Errorf("frames %d, want 4 (first Next starts frame 1)", d.FramesDecoded(sim.Second))
	}
}

func TestPacedDecoderDeadlines(t *testing.T) {
	period := 33 * sim.Millisecond
	d := NewPacedDecoder([]sched.Work{100, 100, 100}, period)
	// Frame 0 available immediately.
	if a := d.Next(0); a.Kind != cpu.ActionCompute {
		t.Fatalf("%+v", a)
	}
	// Completed at 10ms, deadline 33ms: lateness -23ms; next frame
	// released at 33ms.
	a := d.Next(10 * sim.Millisecond)
	if a.Kind != cpu.ActionSleepUntil || a.Until != period {
		t.Fatalf("%+v", a)
	}
	if len(d.Lateness) != 1 || d.Lateness[0] != -23*sim.Millisecond {
		t.Fatalf("lateness %v", d.Lateness)
	}
	if a := d.Next(period); a.Kind != cpu.ActionCompute {
		t.Fatalf("%+v", a)
	}
	// Completed late at 80ms (deadline 66ms).
	a = d.Next(80 * sim.Millisecond)
	if a.Kind != cpu.ActionCompute { // frame 2 overdue, decode immediately
		t.Fatalf("%+v", a)
	}
	if d.Lateness[1] != 14*sim.Millisecond {
		t.Errorf("lateness[1] = %v", d.Lateness[1])
	}
	if a := d.Next(90 * sim.Millisecond); a.Kind != cpu.ActionExit {
		t.Fatalf("%+v", a)
	}
	if d.MissedDeadlines() != 1 {
		t.Errorf("missed %d", d.MissedDeadlines())
	}
}

func TestPeriodicSlackAndReleases(t *testing.T) {
	p := &Periodic{Period: 100 * sim.Millisecond, Cost: 1000, Rounds: 3}
	if a := p.Next(0); a.Kind != cpu.ActionCompute || a.Work != 1000 {
		t.Fatalf("%+v", a)
	}
	// Round 0 completes at 20ms: slack 80ms; next release 100ms.
	a := p.Next(20 * sim.Millisecond)
	if a.Kind != cpu.ActionSleepUntil || a.Until != 100*sim.Millisecond {
		t.Fatalf("%+v", a)
	}
	if len(p.Slack) != 1 || p.Slack[0] != 80*sim.Millisecond {
		t.Fatalf("slack %v", p.Slack)
	}
	if a := p.Next(100 * sim.Millisecond); a.Kind != cpu.ActionCompute {
		t.Fatalf("%+v", a)
	}
	// Round 1 overruns: completes at 250ms, deadline 200ms.
	a = p.Next(250 * sim.Millisecond)
	if a.Kind != cpu.ActionCompute { // round 2 releases immediately (200ms passed)
		t.Fatalf("%+v", a)
	}
	if p.Slack[1] != -50*sim.Millisecond {
		t.Errorf("slack[1] = %v", p.Slack[1])
	}
	if p.MissedDeadlines() != 1 {
		t.Errorf("missed %d", p.MissedDeadlines())
	}
	// Third round exhausts Rounds.
	if a := p.Next(260 * sim.Millisecond); a.Kind != cpu.ActionExit {
		t.Fatalf("%+v", a)
	}
	if p.MinSlack() != -50*sim.Millisecond {
		t.Errorf("min slack %v", p.MinSlack())
	}
	if len(p.Releases) != 3 || p.Releases[2] != 200*sim.Millisecond {
		t.Errorf("releases %v", p.Releases)
	}
}

// TestPeriodicUnderMachine integrates the periodic program with the real
// machine: a lone RT thread on an idle CPU must never miss and its jobs
// must complete exactly cost after each release.
func TestPeriodicUnderMachine(t *testing.T) {
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, 1000, sched.NewSFQ(10*sim.Millisecond))
	p := &Periodic{Period: 100 * sim.Millisecond, Cost: 10} // 10ms of work
	m.Spawn("rt", 1, p, 0)
	m.Run(5 * sim.Second)
	if len(p.Slack) < 49 {
		t.Fatalf("only %d rounds ran", len(p.Slack))
	}
	for i, s := range p.Slack {
		if s != 90*sim.Millisecond {
			t.Fatalf("round %d slack %v, want 90ms", i, s)
		}
	}
}

func TestCostTraceRoundTrip(t *testing.T) {
	orig := []sched.Work{100, 2500, 7}
	var buf strings.Builder
	if err := WriteCosts(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCosts(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip %v", got)
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Errorf("cost %d: %v != %v", i, got[i], orig[i])
		}
	}
}

func TestReadCostsFormat(t *testing.T) {
	in := `
# measured on a SPARCstation 10
2400000 I
  800000 B

1400000 P
`
	got, err := ReadCosts(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2400000 || got[2] != 1400000 {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"", "abc", "-5", "0", "# only comments\n"} {
		if _, err := ReadCosts(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}
