package hsfq_test

import (
	"fmt"
	"strings"
	"testing"

	"hsfq/internal/checkpoint"
	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
	"hsfq/internal/tracestream"
)

// These tests pin down the PR's zero-allocation property: once a hierarchy
// is built and its threads have been seen once, the scheduling spine —
// Structure.Pick, Quantum, Charge, and the Enqueue/Charge(false) block
// cycle — performs no heap allocations and no map lookups per decision.
// A regression here (a map access growing back into the hot path, an
// interface conversion that boxes, a heap operation that reallocates)
// shows up as a non-zero AllocsPerRun.

// buildThreeLevelTree returns the Fig. 2-shaped structure used by the
// guards: root -> {rt, be} -> be/{u1, u2}, SFQ leaves, two threads per
// leaf, all runnable.
func buildThreeLevelTree(t testing.TB) (*core.Structure, []*sched.Thread) {
	s := core.NewStructure()
	mk := func(path string, w float64, leaf sched.Scheduler) core.NodeID {
		id, err := s.MknodPath(path, w, leaf)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	leaves := []core.NodeID{
		mk("/rt", 1, sched.NewSFQ(10*sim.Millisecond)),
		mk("/be/u1", 2, sched.NewSFQ(10*sim.Millisecond)),
		mk("/be/u2", 3, sched.NewSFQ(10*sim.Millisecond)),
	}
	var threads []*sched.Thread
	for i, id := range leaves {
		for j := 0; j < 2; j++ {
			th := sched.NewThread(i*2+j+1, fmt.Sprintf("t%d", i*2+j+1), float64(j+1))
			if err := s.Attach(th, id); err != nil {
				t.Fatal(err)
			}
			s.Enqueue(th, 0)
			threads = append(threads, th)
		}
	}
	return s, threads
}

// TestPickChargeDoesNotAllocate guards the steady-state decision cycle:
// Pick -> Quantum -> Charge(runnable) on a 3-level hierarchy with SFQ at
// every level.
func TestPickChargeDoesNotAllocate(t *testing.T) {
	s, _ := buildThreeLevelTree(t)
	now := sim.Time(0)
	// Warm caches: every thread picked and charged at least once.
	for i := 0; i < 32; i++ {
		th := s.Pick(now)
		s.Charge(th, 1_000_000, now, true)
		now += sim.Millisecond
	}
	allocs := testing.AllocsPerRun(1000, func() {
		th := s.Pick(now)
		_ = s.Quantum(th, now)
		s.Charge(th, 1_000_000, now, true)
		now += sim.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("Pick/Quantum/Charge allocates %v times per decision, want 0", allocs)
	}
}

// TestBlockWakeCycleDoesNotAllocate guards the sleep/wake edge: a thread
// blocking (Charge runnable=false, emptying its leaf and walking the
// hsfq_sleep path) and re-entering (Enqueue, the hsfq_setrun walk).
func TestBlockWakeCycleDoesNotAllocate(t *testing.T) {
	s, _ := buildThreeLevelTree(t)
	now := sim.Time(0)
	for i := 0; i < 32; i++ {
		th := s.Pick(now)
		s.Charge(th, 1_000_000, now, true)
		now += sim.Millisecond
	}
	allocs := testing.AllocsPerRun(1000, func() {
		th := s.Pick(now)
		s.Charge(th, 1_000_000, now, false)
		now += sim.Millisecond
		s.Enqueue(th, now)
	})
	if allocs != 0 {
		t.Fatalf("block/wake cycle allocates %v times per cycle, want 0", allocs)
	}
}

// TestLeafSchedulersDoNotAllocate guards the flat hot path of every
// heap-based leaf algorithm, a decision that keeps its thread runnable
// and one that blocks and wakes it (the randomized and queue-rotating
// ones — rr, lottery, svr4 — are excluded: their hot paths involve slice
// rotation or RNG state by design).
func TestLeafSchedulersDoNotAllocate(t *testing.T) {
	algos := map[string]sched.Scheduler{
		"sfq":      sched.NewSFQ(10 * sim.Millisecond),
		"edf":      sched.NewEDF(10 * sim.Millisecond),
		"rm":       sched.NewRM(10 * sim.Millisecond),
		"priority": sched.NewPriority(10 * sim.Millisecond),
		"stride":   sched.NewStride(10 * sim.Millisecond),
		"eevdf":    sched.NewEEVDF(10*sim.Millisecond, 1_000_000),
		"reserves": sched.NewReserves(10 * sim.Millisecond),
		"mlfq":     sched.NewMLFQ(4, 10*sim.Millisecond, sim.Second, 100_000_000),
		"drr":      sched.NewDRR(10*sim.Millisecond, 100_000_000),
	}
	for name, s := range algos {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				th := sched.NewThread(i+1, "t", float64(i%3+1))
				th.Period = sim.Time(i+1) * 10 * sim.Millisecond
				s.Enqueue(th, 0)
			}
			now := sim.Time(0)
			for i := 0; i < 16; i++ {
				th := s.Pick(now)
				s.Charge(th, 1_000_000, now, true)
				now += sim.Millisecond
			}
			allocs := testing.AllocsPerRun(1000, func() {
				th := s.Pick(now)
				s.Charge(th, 1_000_000, now, true)
				now += sim.Millisecond
				th = s.Pick(now)
				s.Charge(th, 1_000_000, now, false)
				s.Enqueue(th, now)
				now += sim.Millisecond
			})
			if allocs != 0 {
				t.Fatalf("%s Pick/Charge/Enqueue allocates %v times per cycle, want 0", name, allocs)
			}
		})
	}
}

// TestNewLeafSaveStateDoesNotAllocate guards the warm SaveState path of
// the PR's two new leaves directly: after one cold save has grown the
// scratch slices and the encoder buffer, snapshotting a live mlfq or drr
// runnable set allocates nothing, matching the discipline the other
// leaves established (they are covered through TestSnapshotDoesNotAllocate
// and the checkpoint grid).
func TestNewLeafSaveStateDoesNotAllocate(t *testing.T) {
	leaves := map[string]sched.Scheduler{
		"mlfq": sched.NewMLFQ(4, 10*sim.Millisecond, 100*sim.Millisecond, 100_000_000),
		"drr":  sched.NewDRR(10*sim.Millisecond, 100_000_000),
	}
	for name, s := range leaves {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				th := sched.NewThread(i+1, "t", 1)
				s.Enqueue(th, 0)
			}
			now := sim.Time(0)
			for i := 0; i < 32; i++ {
				th := s.Pick(now)
				s.Charge(th, 1_000_000, now, true)
				now += sim.Millisecond
			}
			st := s.(sched.Stater)
			var enc sim.Enc
			if err := st.SaveState(&enc); err != nil { // cold: grows buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				th := s.Pick(now)
				s.Charge(th, 1_000_000, now, true)
				now += sim.Millisecond
				enc.Reset()
				if err := st.SaveState(&enc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s warm SaveState allocates %v times per call, want 0", name, allocs)
			}
		})
	}
}

// TestSnapshotDoesNotAllocate guards the in-memory checkpoint path: once
// the encoder's buffer has grown to size (one cold Snapshot), repeated
// snapshots of a live mid-run simulation perform no heap allocations.
// This is what makes high-frequency checkpointing (hsfqdiff's grid,
// hsfqsim -checkpoint-every) free of GC pressure: the simulation's hot
// loop and the snapshot loop share a zero-allocation steady state.
func TestSnapshotDoesNotAllocate(t *testing.T) {
	cfg, err := simconfig.Parse(strings.NewReader(`{
	  "horizon": "5s",
	  "seed": 9,
	  "nodes": [
	    {"path": "/rt", "weight": 2, "leaf": "edf", "quantum": "5ms"},
	    {"path": "/be", "weight": 1, "leaf": "sfq", "quantum": "10ms"}
	  ],
	  "threads": [
	    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "40ms", "cost": "6ms"}},
	    {"name": "job", "leaf": "/be", "program": {"kind": "loop"}}
	  ],
	  "interrupts": [{"kind": "periodic", "period": "10ms", "service": "100us"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	step := 100 * sim.Millisecond
	until := step
	s.Machine.Run(until)

	var enc sim.Enc
	if err := checkpoint.Snapshot(s, &enc); err != nil { // cold: grows the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		until += step
		s.Machine.Run(until) // keep the state moving between snapshots
		enc.Reset()
		if err := checkpoint.Snapshot(s, &enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Snapshot allocates %v times per call, want 0", allocs)
	}
	if enc.Len() == 0 {
		t.Fatal("snapshot encoded nothing")
	}
}

// TestSpineStillAllocFreeAfterSnapshot checks snapshots do not poison the
// scheduling spine's zero-allocation property: interleaving a Snapshot
// with the Pick/Charge cycle leaves the cycle itself allocation-free.
func TestSpineStillAllocFreeAfterSnapshot(t *testing.T) {
	s, _ := buildThreeLevelTree(t)
	now := sim.Time(0)
	for i := 0; i < 32; i++ {
		th := s.Pick(now)
		s.Charge(th, 1_000_000, now, true)
		now += sim.Millisecond
	}
	var enc sim.Enc
	enc.Reset()
	s.SaveState(&enc) // exercise the structure's encoder mid-stream
	allocs := testing.AllocsPerRun(1000, func() {
		th := s.Pick(now)
		s.Charge(th, 1_000_000, now, true)
		now += sim.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("Pick/Charge allocates %v times per decision after a snapshot, want 0", allocs)
	}
}

// TestEngineEventsDoNotAllocate guards the engine's event spine: once the
// event pool is warm, a schedule/fire cycle (After + Step) heap-allocates
// nothing — Push, Min and Pop on the event heap included.
func TestEngineEventsDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	nop := func() {}
	// Warm the pool with a burst larger than any steady-state set.
	for i := 0; i < 64; i++ {
		eng.After(sim.Time(i%7)*sim.Microsecond, nop)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		// A mixed cycle: near-future, same-instant pair, and a far
		// horizon; then drain.
		eng.After(3*sim.Microsecond, nop)
		eng.After(time17ms, nop)
		eng.After(time17ms, nop)
		eng.After(time900ms, nop)
		for eng.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("engine schedule/fire cycle allocates %v times, want 0", allocs)
	}
}

// TestEngineCancelDoesNotAllocate guards the cancel path: scheduling and
// cancelling reuses pooled handles.
func TestEngineCancelDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	nop := func() {}
	for i := 0; i < 64; i++ {
		eng.After(sim.Time(i)*sim.Microsecond, nop)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a := eng.After(5*sim.Microsecond, nop)
		b := eng.After(time17ms, nop)
		eng.Cancel(b)
		eng.Cancel(a)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel cycle allocates %v times, want 0", allocs)
	}
}

// TestTraceRecordingDoesNotAllocate guards the observation plane that
// hsfqd attaches to every executed job: folding an event into a
// trace.Hasher, and a recording Broadcaster encoding, digesting and
// storing it, allocate nothing per event once their buffers are warm
// (the recording's amortized growth stays far below one per event).
func TestTraceRecordingDoesNotAllocate(t *testing.T) {
	now := sim.Time(0)

	h := trace.NewHasher()
	h.SetNumCores(2)
	h.Add(trace.Event{Kind: trace.Charge, Thread: "decoder", ThreadID: 1, Used: 1_000_000, Runnable: true}) // cold: grows the row buffer
	allocs := testing.AllocsPerRun(1000, func() {
		now += sim.Millisecond
		h.Add(trace.Event{At: now, Kind: trace.Charge, Thread: "decoder", ThreadID: 1, Used: 1_000_000, Runnable: true})
	})
	if allocs != 0 {
		t.Fatalf("Hasher.Add allocates %v times per event, want 0", allocs)
	}

	b := tracestream.New()
	b.EnableRecording(0)
	b.Begin([]trace.ThreadMeta{{TID: 1, Name: "decoder", Depth: 1, Path: "/soft"}})
	allocs = testing.AllocsPerRun(1000, func() {
		now += sim.Millisecond
		b.Add(trace.Event{At: now, Kind: trace.Dispatch, Thread: "decoder", ThreadID: 1})
		b.Add(trace.Event{At: now, Kind: trace.Charge, Thread: "decoder", ThreadID: 1, Used: 1_000_000, Runnable: true})
	})
	if allocs != 0 {
		t.Fatalf("recording Broadcaster allocates %v times per dispatch/charge pair, want 0", allocs)
	}
	if rows := b.Snapshot().Rows; rows != 2*1001 {
		t.Fatalf("recording holds %d rows, want %d", rows, 2*1001)
	}
}

// TestTraceFollowDoesNotAllocate guards the path of a live follow stream:
// on a warm recording Broadcaster with one subscriber, each dispatch/charge
// pair goes through Add, the subscriber's Take, the decoder's Feed and
// Next and the canonical row encoder into a reused buffer without a heap
// allocation. A decoder that allocates a frame per row fails it.
func TestTraceFollowDoesNotAllocate(t *testing.T) {
	b := tracestream.New()
	b.EnableRecording(0)
	sub := b.Subscribe(64 << 20)
	b.Begin([]trace.ThreadMeta{{TID: 1, Name: "decoder", Depth: 1, Path: "/soft"}})
	dec := tracestream.NewDecoder()
	var row []byte
	rows := 0
	drain := func() {
		dec.Feed(sub.Take())
		for {
			f, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				return
			}
			if f.Type == tracestream.FrameEvent {
				row = trace.AppendRow(row[:0], f.Event, dec.NumCores())
				rows++
			}
		}
	}
	now := sim.Time(0)
	pair := func() {
		now += sim.Millisecond
		b.Add(trace.Event{At: now, Kind: trace.Dispatch, Thread: "decoder", ThreadID: 1})
		b.Add(trace.Event{At: now, Kind: trace.Charge, Thread: "decoder", ThreadID: 1, Used: 1_000_000, Runnable: true})
		drain()
	}
	for i := 0; i < 1000; i++ {
		pair() // warm: grows the recording and the subscriber's and decoder's buffers
	}
	allocs := testing.AllocsPerRun(1000, pair)
	if allocs != 0 {
		t.Fatalf("follow path allocates %v times per dispatch/charge pair, want 0", allocs)
	}
	b.Finish()
	drain()
	if rows != 2*2001 {
		t.Fatalf("the subscriber decoded %d rows, want %d", rows, 2*2001)
	}
}

// TestMachineListenDoesNotAllocate guards the machine's emit path: on warm
// 1- and 2-core partitioned SFQ machines, a Hasher and a recording
// Broadcaster attached through Machine.Listen see every event of 1 ms of
// simulated time without a heap allocation. An event that escapes to the
// heap on its way to the listeners (passed by pointer, say) fails it.
func TestMachineListenDoesNotAllocate(t *testing.T) {
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			scheds := make([]sched.Scheduler, cores)
			for i := range scheds {
				scheds[i] = sched.NewSFQ(200 * sim.Microsecond)
			}
			m := cpu.NewSMP(sim.NewEngine(), cpu.DefaultRate, cpu.SMPConfig{Schedulers: scheds})
			var metas []trace.ThreadMeta
			for i := 0; i < 2*cores; i++ {
				th := sched.NewThread(i+1, fmt.Sprintf("t%d", i+1), float64(i+1))
				m.AddOn(th, cpu.Forever(cpu.Compute(1_000_000_000)), 0, i%cores)
				metas = append(metas, trace.ThreadMeta{TID: th.ID, Name: th.Name})
			}
			h := trace.NewHasher()
			b := tracestream.New()
			b.EnableRecording(0)
			m.Listen(h)
			m.Listen(b)
			b.Begin(metas)
			until := 10 * sim.Millisecond
			m.Run(until) // warm: grows the row and frame buffers
			rows := h.Rows()
			allocs := testing.AllocsPerRun(1000, func() {
				until += sim.Millisecond
				m.Run(until)
			})
			if allocs != 0 {
				t.Fatalf("%d-core machine with listeners allocates %v times per simulated ms, want 0", cores, allocs)
			}
			if h.Rows() == rows {
				t.Fatal("listeners saw no events")
			}
		})
	}
}

// Durations for the alloc guards' mixed horizons, named so the closure
// does not capture computed locals.
const (
	time17ms  = 17 * sim.Millisecond
	time900ms = 900 * sim.Millisecond
)
