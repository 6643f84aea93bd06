package cpu

import (
	"math"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

func TestMachineFlushExactAccounting(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(20 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	// Horizon not aligned to the quantum: 50 ms = 2.5 quanta.
	m.Run(50 * sim.Millisecond)
	if a.Done != 40 { // only two whole quanta charged
		t.Errorf("pre-flush Done = %d, want 40", a.Done)
	}
	m.Flush()
	if a.Done != 50 {
		t.Errorf("post-flush Done = %d, want 50", a.Done)
	}
	// The machine keeps running correctly after a flush.
	m.Run(100 * sim.Millisecond)
	m.Flush()
	if a.Done != 100 {
		t.Errorf("after resume Done = %d, want 100", a.Done)
	}
}

func TestMachineFlushIdleNoop(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(0))
	m.Run(10 * sim.Millisecond)
	m.Flush() // no segment: must not panic
	if m.Stats().Work != 0 {
		t.Error("work from nothing")
	}
}

func TestMachineDispatchCost(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	m.SetDispatchCost(func(*sched.Thread) sim.Time { return sim.Millisecond })
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	m.Run(110 * sim.Millisecond)
	// Each 10 ms quantum costs 1 ms to dispatch: 10 segments in 110 ms.
	if a.Done != 100 {
		t.Errorf("Done = %d, want 100 (10 quanta of 10)", a.Done)
	}
	// 10 completed quanta plus the dispatch landing exactly on the
	// horizon: 11 decisions paid for.
	st := m.Stats()
	if st.SchedCost != 11*sim.Millisecond {
		t.Errorf("SchedCost = %v", st.SchedCost)
	}
}

func TestMachineOverlappingInterrupts(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	// Two sources colliding: 3 ms at t=5 ms and 2 ms at t=6 ms; they
	// serialize, so the CPU is busy with handlers during [5ms, 10ms].
	m.AddInterrupts(&onceInterrupt{at: 5 * sim.Millisecond, service: 3 * sim.Millisecond})
	m.AddInterrupts(&onceInterrupt{at: 6 * sim.Millisecond, service: 2 * sim.Millisecond})
	m.Run(20 * sim.Millisecond)
	m.Flush()
	if a.Done != 15 {
		t.Errorf("Done = %d, want 15 (20ms - 5ms stolen)", a.Done)
	}
	if st := m.Stats(); st.Stolen != 5*sim.Millisecond || st.Interrupts != 2 {
		t.Errorf("stats %+v", st)
	}
}

// onceInterrupt fires a single interrupt.
type onceInterrupt struct {
	at, service sim.Time
	done        bool
}

func (o *onceInterrupt) Next(now sim.Time) (sim.Time, sim.Time, bool) {
	if o.done {
		return 0, 0, false
	}
	o.done = true
	return o.at, o.service, true
}

func TestMachineInterruptDuringIdle(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	// Thread starts at 20 ms; an interrupt hits the idle CPU at 5 ms.
	m.Spawn("late", 1, Sequence(Compute(10), Exit()), 20*sim.Millisecond)
	m.AddInterrupts(&onceInterrupt{at: 5 * sim.Millisecond, service: 2 * sim.Millisecond})
	m.Run(50 * sim.Millisecond)
	st := m.Stats()
	// Idle: [0,5) + [7,20) + [30,50) = 38 ms... the final idle stretch is
	// still open at the horizon, so only closed idle intervals count.
	if st.Idle < 18*sim.Millisecond {
		t.Errorf("idle %v too small", st.Idle)
	}
	if st.Stolen != 2*sim.Millisecond {
		t.Errorf("stolen %v", st.Stolen)
	}
}

func TestMachineWakeDuringInterruptDefersDispatch(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	var dispatchedAt sim.Time = -1
	m.Listen(ListenerFunc(func(e trace.Event) {
		if e.Kind == trace.Dispatch && dispatchedAt == -1 {
			dispatchedAt = e.At
		}
	}))
	m.Spawn("t", 1, Sequence(Compute(10), Exit()), 5*sim.Millisecond)
	m.AddInterrupts(&onceInterrupt{at: 4 * sim.Millisecond, service: 3 * sim.Millisecond})
	m.Run(50 * sim.Millisecond)
	// The thread woke at 5 ms, mid-interrupt; it must run only when the
	// handler finishes at 7 ms.
	if dispatchedAt != 7*sim.Millisecond {
		t.Errorf("dispatched at %v, want 7ms", dispatchedAt)
	}
}

func TestMachinePreemptionDuringInterrupt(t *testing.T) {
	// An EDF wakeup that lands while an interrupt is being serviced must
	// preempt the (paused) running thread, with dispatch deferred to the
	// interrupt's end.
	e := sched.NewEDF(0)
	m := newTestMachine(e)
	hog := sched.NewThread(1, "hog", 1)
	hog.RelDeadline = 10 * sim.Second
	m.Add(hog, Forever(Compute(1_000_000)), 0)
	urgent := sched.NewThread(2, "urgent", 1)
	urgent.RelDeadline = sim.Millisecond
	m.Add(urgent, Sequence(Compute(2), Exit()), 5*sim.Millisecond)
	m.AddInterrupts(&onceInterrupt{at: 4 * sim.Millisecond, service: 3 * sim.Millisecond})

	var order []string
	m.Listen(ListenerFunc(func(e trace.Event) {
		if e.Kind == trace.Dispatch {
			order = append(order, e.Thread)
		}
	}))
	m.Run(20 * sim.Millisecond)
	// hog runs first; interrupt at 4, urgent wakes at 5 (during
	// interrupt), preempts; at 7 the handler ends and urgent runs.
	if len(order) < 3 || order[0] != "hog" || order[1] != "urgent" {
		t.Errorf("dispatch order %v", order)
	}
	if urgent.State != sched.StateExited {
		t.Error("urgent did not complete")
	}
}

func TestMachineSpawnMidRun(t *testing.T) {
	m := newTestMachine(sched.NewSFQ(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	m.Run(sim.Second)
	b := m.Spawn("b", 1, Forever(Compute(1_000_000)), m.Engine().Now())
	m.Run(2 * sim.Second)
	m.Flush()
	// b joined at 1s: both get ~500ms of the second half.
	if d := int64(a.Done) - 1500; d < -20 || d > 20 {
		t.Errorf("a.Done = %d, want ~1500", a.Done)
	}
	if d := int64(b.Done) - 500; d < -20 || d > 20 {
		t.Errorf("b.Done = %d, want ~500", b.Done)
	}
}

func TestMachineZeroAndNegativeActionsSkipped(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(0))
	a := m.Spawn("a", 1, Sequence(
		Compute(0), Sleep(0), Compute(5), SleepUntil(0), Compute(5), Exit(),
	), 0)
	m.Run(sim.Second)
	if a.Done != 10 || a.State != sched.StateExited {
		t.Errorf("Done=%d state=%v", a.Done, a.State)
	}
}

// TestMachineOverflowingSleepSkipped: a sleep whose end overflows
// sim.Time counts as ended, both before a thread's first burst and after
// one.
func TestMachineOverflowingSleepSkipped(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(0))
	a := m.Spawn("a", 1, Sequence(
		Sleep(math.MaxInt64), Compute(5), Sleep(math.MaxInt64), Compute(5), Exit(),
	), sim.Millisecond)
	m.Run(sim.Second)
	if a.Done != 10 || a.State != sched.StateExited {
		t.Errorf("Done=%d state=%v", a.Done, a.State)
	}
}

// TestMachineDuplicateAddPanics: the machine keys thread state by ID, so
// re-adding a thread and adding a second thread with a registered ID are
// both refused.
func TestMachineDuplicateAddPanics(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(0))
	th := sched.NewThread(1, "t", 1)
	m.Add(th, Forever(Compute(1)), 0)
	for _, dup := range []*sched.Thread{th, sched.NewThread(1, "same-id", 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add of %q did not panic", dup.Name)
				}
			}()
			m.Add(dup, Forever(Compute(1)), 0)
		}()
	}
}

func TestMachineSVR4EndToEnd(t *testing.T) {
	// The SVR4 leaf under the machine: an interactive thread must get
	// dispatched promptly after sleep (slpret boost) despite two hogs.
	s := sched.NewSVR4(nil, int64(testRate), 0)
	m := newTestMachine(s)
	m.Spawn("hog1", 1, Forever(Compute(1_000_000)), 0)
	m.Spawn("hog2", 1, Forever(Compute(1_000_000)), 0)
	inter := m.Spawn("inter", 1, Forever(Compute(2), Sleep(50*sim.Millisecond)), 0)
	m.Run(10 * sim.Second)
	// The interactive thread needs 2ms per 52ms cycle = ~385 ms of CPU
	// over 10 s if scheduled promptly every time.
	if inter.Done < 300 {
		t.Errorf("interactive thread got %d ms of CPU, want ~385", inter.Done)
	}
}

func TestMachineMLFQEndToEnd(t *testing.T) {
	// The multilevel feedback leaf under the machine: hogs burn full
	// quanta and sink to the bottom level; an interactive thread blocks
	// early, floats at level 0, and preempts the hogs on every wakeup.
	s := sched.NewMLFQ(3, 10*sim.Millisecond, 200*sim.Millisecond, int64(testRate))
	m := newTestMachine(s)
	hog1 := m.Spawn("hog1", 1, Forever(Compute(1_000_000)), 0)
	hog2 := m.Spawn("hog2", 1, Forever(Compute(1_000_000)), 0)
	inter := m.Spawn("inter", 1, Forever(Compute(2), Sleep(50*sim.Millisecond)), 0)
	m.Run(10 * sim.Second)
	// ~385 ms of CPU if dispatched promptly every cycle (2 ms per 52 ms).
	if inter.Done < 300 {
		t.Errorf("interactive thread got %d ms of CPU, want ~385", inter.Done)
	}
	if lv := s.Level(inter); lv != 0 {
		t.Errorf("interactive thread at level %d, want 0", lv)
	}
	for _, hog := range []*sched.Thread{hog1, hog2} {
		if lv := s.Level(hog); lv != s.NumLevels()-1 {
			t.Errorf("%v at level %d, want bottom %d", hog, lv, s.NumLevels()-1)
		}
	}
}

func TestMachineDRREndToEnd(t *testing.T) {
	// The dynamic-quantum leaf under the machine: a hog is always cut off
	// at its full quantum, so its quantum holds at the base; the
	// interactive thread's short bursts pull its quantum down toward the
	// observed burst length.
	s := sched.NewDRR(10*sim.Millisecond, int64(testRate))
	m := newTestMachine(s)
	hog := m.Spawn("hog", 1, Forever(Compute(1_000_000)), 0)
	inter := m.Spawn("inter", 1, Forever(Compute(2), Sleep(20*sim.Millisecond)), 0)
	m.Run(10 * sim.Second)
	hq, iq := s.ThreadQuantum(hog), s.ThreadQuantum(inter)
	if hq != 10*sim.Millisecond {
		t.Errorf("hog quantum = %v, want the 10ms base", hq)
	}
	// Converges geometrically to the 2 ms burst; well under 3 ms by now.
	if iq < 2*sim.Millisecond || iq > 3*sim.Millisecond {
		t.Errorf("interactive quantum = %v, want ~2ms", iq)
	}
}

func TestMachineStatsConservation(t *testing.T) {
	// Run at the realistic rate: interrupt pause/resume rounding is at
	// most one instruction per interrupt, i.e. 10 ns here.
	m := NewMachine(sim.NewEngine(), DefaultRate, sched.NewSFQ(10*sim.Millisecond))
	m.Spawn("a", 1, Forever(Compute(100_000_000)), 0)
	m.Spawn("b", 3, Forever(Compute(100_000_000)), 0)
	m.AddInterrupts(&PeriodicInterrupts{Period: 50 * sim.Millisecond, Service: sim.Millisecond})
	m.SetDispatchCost(func(*sched.Thread) sim.Time { return 100 * sim.Microsecond })
	m.Run(10 * sim.Second)
	m.Flush()
	st := m.Stats()
	// Work time + stolen + sched cost + idle must cover the horizon.
	total := DefaultRate.TimeFor(st.Work) + st.Stolen + st.SchedCost + st.Idle
	// The interrupt and the dispatch landing exactly on the horizon are
	// charged although their time lies beyond it: up to ~1.1 ms over.
	if total < 10*sim.Second-100*sim.Microsecond || total > 10*sim.Second+2*sim.Millisecond {
		t.Errorf("conservation: accounted %v of 10s (work=%v stolen=%v cost=%v idle=%v)",
			total, DefaultRate.TimeFor(st.Work), st.Stolen, st.SchedCost, st.Idle)
	}
}

func TestMachineWaitedAccounting(t *testing.T) {
	// Two equal threads alternating 10 ms quanta: over any long run each
	// waits roughly half the wall time.
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	b := m.Spawn("b", 1, Forever(Compute(1_000_000)), 0)
	m.Run(10 * sim.Second)
	for _, th := range []*sched.Thread{a, b} {
		if th.Waited < 4900*sim.Millisecond || th.Waited > 5100*sim.Millisecond {
			t.Errorf("%v waited %v, want ~5s", th, th.Waited)
		}
	}
	// A lone thread never waits.
	m2 := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	solo := m2.Spawn("solo", 1, Forever(Compute(1_000_000)), 0)
	m2.Run(sim.Second)
	if solo.Waited != 0 {
		t.Errorf("solo thread waited %v", solo.Waited)
	}
}

func TestBurstInterrupts(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(10 * sim.Millisecond))
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	// 3 back-to-back 1 ms interrupts every 100 ms.
	m.AddInterrupts(&BurstInterrupts{Period: 100 * sim.Millisecond, Count: 3, Service: sim.Millisecond})
	m.Run(sim.Second)
	m.Flush()
	st := m.Stats()
	// Ten full bursts at 0..900ms (30 interrupts) plus the first
	// interrupt of the burst starting exactly at the 1s horizon; its two
	// back-to-back followers lie beyond it.
	if st.Interrupts != 31 {
		t.Errorf("interrupts %d, want 31", st.Interrupts)
	}
	if st.Stolen != 31*sim.Millisecond {
		t.Errorf("stolen %v", st.Stolen)
	}
	// Thread work within the horizon: 1s minus the 30 ms stolen inside it.
	if got, want := a.Done, testRate.WorkFor(sim.Second-30*sim.Millisecond); got < want-3 || got > want+3 {
		t.Errorf("work %d, want ~%d", got, want)
	}
}

func TestMachineAccessorsAndLatency(t *testing.T) {
	s := sched.NewRoundRobin(0)
	m := newTestMachine(s)
	if m.Scheduler() != sched.Scheduler(s) || m.Rate() != testRate {
		t.Error("accessors wrong")
	}
	a := m.Spawn("a", 1, Forever(Compute(1_000_000)), 0)
	b := m.Spawn("b", 1, Forever(Compute(1_000_000)), 0)
	m.Run(15 * sim.Millisecond)
	// b has been ready since t=0 and is still waiting behind a's quantum.
	if got := m.Latency(b); got != 15*sim.Millisecond {
		t.Errorf("latency of waiting thread %v", got)
	}
	_ = a
}

func TestWakeUnknownThreadPanics(t *testing.T) {
	m := newTestMachine(sched.NewRoundRobin(0))
	defer func() {
		if recover() == nil {
			t.Error("Wake of unknown thread did not panic")
		}
	}()
	m.Wake(sched.NewThread(99, "ghost", 1))
}
