package cpu

import (
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// testRate makes 1 instruction take exactly 1 ms, so work numbers match
// the paper's millisecond examples.
const testRate Rate = 1000

func newTestMachine(s sched.Scheduler) *Machine {
	return NewMachine(sim.NewEngine(), testRate, s)
}

func TestRateConversions(t *testing.T) {
	cases := []struct {
		rate Rate
		work sched.Work
	}{
		{DefaultRate, 1},
		{DefaultRate, 12345},
		{DefaultRate, 100_000_000},
		{MIPS(333), 999_999_937},
		{testRate, 10},
	}
	for _, c := range cases {
		d := c.rate.TimeFor(c.work)
		back := c.rate.WorkFor(d)
		if back < c.work {
			t.Errorf("rate %d: TimeFor(%d)=%v but WorkFor back gives %d", c.rate, c.work, d, back)
		}
		// Ceiling rounding may add at most one instruction worth of time.
		if back > c.work+1 {
			t.Errorf("rate %d: round trip inflated %d -> %d", c.rate, c.work, back)
		}
	}
}

func TestMachineProportionalShare(t *testing.T) {
	m := newTestMachine(sched.NewSFQ(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	b := m.Spawn("b", 2, Forever(Compute(1_000_000)), 0)
	m.Run(30 * sim.Second)

	if a.Done+b.Done == 0 {
		t.Fatal("no work executed")
	}
	ratio := float64(b.Done) / float64(a.Done)
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("work ratio b:a = %v, want 2.0", ratio)
	}
	total := m.Rate().WorkFor(30 * sim.Second)
	if a.Done+b.Done < total-1 || a.Done+b.Done > total {
		t.Errorf("conservation: did %d work, CPU offered %d", a.Done+b.Done, total)
	}
}

// TestMachineFig3 replays the worked example of the paper's §3/Fig. 3:
// threads A (weight 1) and B (weight 2), 10 ms quanta, B blocking at
// t=60ms until 115ms, A blocking at t=90ms until 110ms.
func TestMachineFig3(t *testing.T) {
	leaf := sched.NewSFQ(10 * sim.Millisecond)
	m := newTestMachine(leaf)

	// 1 work unit == 1 ms of CPU. A consumes 50 ms then sleeps until 110;
	// B consumes 40 ms then sleeps until 115.
	a := m.Spawn("A", 1, Sequence(
		Compute(50), SleepUntil(110*sim.Millisecond), Compute(20), Exit(),
	), 0)
	b := m.Spawn("B", 2, Sequence(
		Compute(40), SleepUntil(115*sim.Millisecond), Compute(40), Exit(),
	), 0)

	type span struct {
		tid   int
		start sim.Time
	}
	var spans []span
	finalTags := map[int][2]float64{}
	m.Listen(ListenerFunc(func(e trace.Event) {
		switch e.Kind {
		case trace.Dispatch:
			spans = append(spans, span{e.ThreadID, e.At})
		case trace.Exit:
			th := a
			if e.ThreadID == b.ID {
				th = b
			}
			s, f := leaf.Tags(th)
			finalTags[e.ThreadID] = [2]float64{s, f}
		}
	}))

	m.Run(200 * sim.Millisecond)

	// Paper: before B blocks at t=60, A ran 20 ms and B ran 40 ms.
	var aBy60, bBy60 sim.Time
	for i, s := range spans {
		end := sim.Time(200 * sim.Millisecond)
		if i+1 < len(spans) {
			end = spans[i+1].start
		}
		if s.start >= 60*sim.Millisecond {
			break
		}
		d := sim.MinTime(end, 60*sim.Millisecond) - s.start
		if s.tid == a.ID {
			aBy60 += d
		} else {
			bBy60 += d
		}
	}
	if aBy60 != 20*sim.Millisecond || bBy60 != 40*sim.Millisecond {
		t.Errorf("by t=60: A ran %v (want 20ms), B ran %v (want 40ms)", aBy60, bBy60)
	}

	// Paper: when A blocks at t=90 the system idles with v = 50; A wakes
	// at 110 with S=50 and B at 115 with S=max(v,20)=50. Final tags were
	// captured at exit, before the machine forgets the threads.
	sa, fa := finalTags[a.ID][0], finalTags[a.ID][1]
	sb, fb := finalTags[b.ID][0], finalTags[b.ID][1]
	if fa != 70 { // resumed at S=50, +20/1 for the final burst
		t.Errorf("final F_A = %v, want 70", fa)
	}
	if fb != 70 { // resumed at S=max(v,20)=50, +40/2 for the final burst
		t.Errorf("final F_B = %v, want 70", fb)
	}
	if sa < 50 || sb < 50 {
		t.Errorf("post-wake start tags S_A=%v S_B=%v, both should be >= 50", sa, sb)
	}
	if a.State != sched.StateExited || b.State != sched.StateExited {
		t.Errorf("threads did not exit: A=%v B=%v", a.State, b.State)
	}
}

func TestMachineInterruptsStealTime(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	// 1 ms of interrupt handling every 10 ms: 10% of the CPU.
	m.AddInterrupts(&PeriodicInterrupts{Period: 10 * sim.Millisecond, Service: sim.Millisecond})
	m.Run(10 * sim.Second)

	want := testRate.WorkFor(9 * sim.Second)
	if a.Done < want-20 || a.Done > want+20 {
		t.Errorf("thread did %d work under 10%% interrupt load, want about %d", a.Done, want)
	}
	// Interrupts fire at 0, 10ms, ..., 10s: the one at exactly the horizon
	// is still charged, so 1001 interrupts in total.
	st := m.Stats()
	if st.Stolen < sim.Second || st.Stolen > sim.Second+sim.Millisecond {
		t.Errorf("stolen = %v, want about 1s", st.Stolen)
	}
	if st.Interrupts != 1001 {
		t.Errorf("interrupts = %d, want 1001", st.Interrupts)
	}
}

func TestMachinePreemption(t *testing.T) {
	// EDF leaf: a long-deadline hog and a short-deadline periodic thread;
	// the periodic thread must preempt the hog on each release.
	e := sched.NewEDF(0)
	m := newTestMachine(e)
	hog := sched.NewThread(1, "hog", 1)
	hog.RelDeadline = 10 * sim.Second
	m.Add(hog, Forever(Compute(1_000_000)), 0)

	period := sched.NewThread(2, "periodic", 1)
	period.Period = 100 * sim.Millisecond
	period.RelDeadline = 20 * sim.Millisecond
	var maxLatency sim.Time
	m.Add(period, periodicProbe(&maxLatency), 0)

	m.Run(2 * sim.Second)
	if m.Stats().Preemptions == 0 {
		t.Fatal("expected preemptions under EDF")
	}
	if maxLatency > sim.Millisecond {
		t.Errorf("periodic thread dispatch latency %v, want at most ~0 under preemptive EDF", maxLatency)
	}
}

// periodicProbe runs 5 ms of work every 100 ms and records, per job, how
// much later than release+service the job completed (its queueing delay).
func periodicProbe(maxLatency *sim.Time) Program {
	next := sim.Time(0)
	lastRelease := sim.Time(-1)
	return ProgramFunc(func(now sim.Time) Action {
		if lastRelease >= 0 {
			if lat := now - lastRelease - 5*sim.Millisecond; lat > *maxLatency {
				*maxLatency = lat
			}
			lastRelease = -1
		}
		if now < next {
			return SleepUntil(next)
		}
		lastRelease = now
		next += 100 * sim.Millisecond
		return Compute(5)
	})
}

func TestMulDivOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	// work * 1e9 overflows the 128/64 division when the quotient cannot
	// fit: force hi >= c.
	Rate(1).TimeFor(sched.Work(1 << 62))
}

func TestMIPSAndNegativePanics(t *testing.T) {
	if MIPS(100) != DefaultRate {
		t.Errorf("MIPS(100) = %d", MIPS(100))
	}
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		DefaultRate.TimeFor(-1)
		return
	}(); !recovered {
		t.Error("negative work accepted")
	}
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		DefaultRate.WorkFor(-1)
		return
	}(); !recovered {
		t.Error("negative duration accepted")
	}
}

func TestActionKindStrings(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActionCompute:    "compute",
		ActionSleep:      "sleep",
		ActionSleepUntil: "sleep-until",
		ActionBlock:      "block",
		ActionExit:       "exit",
		ActionKind(99):   "action(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestSequenceAndForever(t *testing.T) {
	p := Sequence(Compute(5), Sleep(3))
	if a := p.Next(0); a.Kind != ActionCompute || a.Work != 5 {
		t.Errorf("%+v", a)
	}
	if a := p.Next(0); a.Kind != ActionSleep {
		t.Errorf("%+v", a)
	}
	if a := p.Next(0); a.Kind != ActionExit {
		t.Errorf("sequence did not exit: %+v", a)
	}
	f := Forever(Compute(1), Sleep(2))
	for i := 0; i < 6; i++ {
		a := f.Next(0)
		if i%2 == 0 && a.Kind != ActionCompute {
			t.Fatalf("step %d: %+v", i, a)
		}
		if i%2 == 1 && a.Kind != ActionSleep {
			t.Fatalf("step %d: %+v", i, a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Forever() did not panic")
		}
	}()
	Forever()
}
