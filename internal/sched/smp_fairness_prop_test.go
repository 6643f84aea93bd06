// Property-based checks of the multiprocessor machine, extending the
// Theorem 1 tests in fairness_prop_test.go to N cores:
//
//   - Partitioned placement keeps one SFQ hierarchy per core, so the
//     uniprocessor fairness bound must hold independently on EVERY core:
//     for two continuously runnable threads pinned to the same core, the
//     worst interval gap of normalized work stays within
//     l_f/phi_f + l_g/phi_g, measured from the core-tagged charge stream.
//
//   - Global placement shares one hierarchy across cores, so it must
//     never run one thread on two cores at once (the dequeue-on-dispatch
//     guard) and must stay work-conserving: with at least one always-
//     runnable thread per core, no core accumulates idle time.
//
//   - Work stealing must balance utilization: with every thread homed on
//     core 0, the sibling cores steal themselves busy, migrations are
//     observed, and per-core busy time stays balanced.
//
// All trials are seeded and deterministic; each property runs 100+.
package sched_test

import (
	"math/rand"
	"testing"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

const smpHorizon = 200 * sim.Millisecond

func smpConfig(seed int64, cores int, policy string, quantum sim.Time, threads []simconfig.ThreadConfig) simconfig.Config {
	return simconfig.Config{
		RateMIPS: 100,
		Horizon:  simconfig.Duration(smpHorizon),
		Seed:     uint64(seed + 1),
		Cores:    cores,
		Policy:   policy,
		Nodes: []simconfig.NodeConfig{
			{Path: "/run", Weight: 1, Leaf: "sfq", Quantum: simconfig.Duration(quantum)},
		},
		Threads: threads,
	}
}

// TestPartitionedPerCoreFairness pins two CPU-bound threads with random
// weights to every core of a partitioned machine and checks the
// Theorem 1 interval bound per core over the prefix differences of
// normalized work, exactly as the uniprocessor property test does.
func TestPartitionedPerCoreFairness(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cores := 2 + rng.Intn(3)
		quantum := sim.Time(1+rng.Intn(8)) * sim.Millisecond
		w := func() float64 { return 0.1 + rng.Float64()*7.9 }

		var threads []simconfig.ThreadConfig
		weight := map[string]float64{}
		for c := 0; c < cores; c++ {
			pin := c
			for _, base := range []string{"f", "g"} {
				name := base + string(rune('0'+c))
				wt := w()
				weight[name] = wt
				threads = append(threads, simconfig.ThreadConfig{
					Name: name, Leaf: "/run", Weight: wt, Affinity: &pin,
				})
			}
		}
		s, err := simconfig.Build(smpConfig(seed, cores, "partitioned", quantum, threads), simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}

		// Per-core running state of the interval-gap computation.
		type coreAcc struct {
			df, dg             float64 // cumulative normalized work
			minDelta, maxDelta float64
			maxLf, maxLg       sched.Work
		}
		acc := make([]coreAcc, cores)
		home := map[int]int{}
		kind := map[int]byte{} // 'f' or 'g'
		for _, th := range s.Threads {
			home[th.ID] = int(th.Name[1] - '0')
			kind[th.ID] = th.Name[0]
		}
		s.Machine.Listen(cpu.ListenerFunc(func(e trace.Event) {
			if e.Kind != trace.Charge {
				return
			}
			if e.Core != home[e.ThreadID] {
				t.Fatalf("seed %d: thread %s pinned to core %d charged on core %d",
					seed, e.Thread, home[e.ThreadID], e.Core)
			}
			a := &acc[e.Core]
			if kind[e.ThreadID] == 'f' {
				a.df += float64(e.Used) / weight[e.Thread]
				if e.Used > a.maxLf {
					a.maxLf = e.Used
				}
			} else {
				a.dg += float64(e.Used) / weight[e.Thread]
				if e.Used > a.maxLg {
					a.maxLg = e.Used
				}
			}
			delta := a.df - a.dg
			if delta < a.minDelta {
				a.minDelta = delta
			}
			if delta > a.maxDelta {
				a.maxDelta = delta
			}
		}))
		s.Run()

		for c := 0; c < cores; c++ {
			a := acc[c]
			if a.maxLf == 0 || a.maxLg == 0 {
				t.Fatalf("seed %d core %d: a pinned thread was never charged", seed, c)
			}
			wf := weight["f"+string(rune('0'+c))]
			wg := weight["g"+string(rune('0'+c))]
			gap := a.maxDelta - a.minDelta
			bound := float64(a.maxLf)/wf + float64(a.maxLg)/wg
			if gap > bound+eps {
				t.Errorf("seed %d core %d: fairness gap %v exceeds Theorem 1 bound %v (wf=%v wg=%v)",
					seed, c, gap, bound, wf, wg)
			}
		}
	}
}

// noDoubleRun tracks dispatch/charge pairing and fails the test if any
// thread is dispatched while a previous dispatch of it is still
// uncharged — i.e. while it is running on some core.
func noDoubleRun(t *testing.T, seed int64) cpu.Listener {
	running := map[int]int{}
	return cpu.ListenerFunc(func(e trace.Event) {
		switch e.Kind {
		case trace.Dispatch:
			if prev, ok := running[e.ThreadID]; ok {
				t.Fatalf("seed %d: thread %s dispatched on core %d at %v while running on core %d",
					seed, e.Thread, e.Core, e.At, prev)
			}
			running[e.ThreadID] = e.Core
		case trace.Charge:
			delete(running, e.ThreadID)
		}
	})
}

// TestGlobalNoDoubleRunAndWorkConserving drives a shared-hierarchy
// machine with a churning mix of hogs and interactive threads: no thread
// may ever run on two cores at once, and with more always-runnable hogs
// than cores no core may sit idle while work is queued.
func TestGlobalNoDoubleRunAndWorkConserving(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cores := 2 + rng.Intn(3)
		quantum := sim.Time(1+rng.Intn(8)) * sim.Millisecond

		var threads []simconfig.ThreadConfig
		for i := 0; i < cores+2; i++ {
			threads = append(threads, simconfig.ThreadConfig{
				Name: "hog" + string(rune('a'+i)), Leaf: "/run", Weight: 0.1 + rng.Float64()*7.9,
			})
		}
		// Blocking threads churn wakeups through placeWoken's idle-scan
		// and preemption paths without breaking work conservation.
		threads = append(threads, simconfig.ThreadConfig{
			Name: "chat", Leaf: "/run", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: simconfig.Duration(20 * sim.Millisecond)},
		})
		s, err := simconfig.Build(smpConfig(seed, cores, "global", quantum, threads), simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		s.Machine.Listen(noDoubleRun(t, seed))
		s.Run()

		for c := 0; c < cores; c++ {
			if idle := s.Machine.CoreStats(c).Idle; idle > smpHorizon/100 {
				t.Errorf("seed %d: core %d idle %v with %d always-runnable threads on %d cores",
					seed, c, idle, cores+2, cores)
			}
		}
	}
}

// TestStealBalancesUtilization homes every thread on core 0 under the
// stealing policy: the sibling cores must steal themselves busy (bounded
// idle, balanced busy time across cores), migrations must actually
// happen, and the no-double-run invariant must hold throughout.
func TestStealBalancesUtilization(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		cores := 2 + rng.Intn(2)
		quantum := sim.Time(1+rng.Intn(8)) * sim.Millisecond
		home := 0

		var threads []simconfig.ThreadConfig
		for i := 0; i < 2*cores; i++ {
			threads = append(threads, simconfig.ThreadConfig{
				Name: "hog" + string(rune('a'+i)), Leaf: "/run",
				Weight: 0.1 + rng.Float64()*7.9, Affinity: &home,
			})
		}
		cfg := smpConfig(seed, cores, "steal", quantum, threads)
		cfg.MigrationCost = simconfig.Duration(sim.Time(rng.Intn(200)) * sim.Microsecond)
		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		s.Machine.Listen(noDoubleRun(t, seed))
		s.Run()

		if mig := s.Machine.Stats().Migrations; mig == 0 {
			t.Errorf("seed %d: no migrations with all %d threads homed on core 0 of %d cores",
				seed, 2*cores, cores)
		}
		minBusy, maxBusy := smpHorizon, sim.Time(0)
		for c := 0; c < cores; c++ {
			idle := s.Machine.CoreStats(c).Idle
			if idle > smpHorizon/50 {
				t.Errorf("seed %d: core %d idle %v; stealing failed to keep it busy", seed, c, idle)
			}
			busy := smpHorizon - idle
			if busy < minBusy {
				minBusy = busy
			}
			if busy > maxBusy {
				maxBusy = busy
			}
		}
		if maxBusy-minBusy > smpHorizon/50 {
			t.Errorf("seed %d: per-core busy time imbalanced: min %v max %v", seed, minBusy, maxBusy)
		}
	}
}

// TestDispatchCostsReduceThroughput checks that switch and migration
// costs are charged against real capacity: the same workload completes
// strictly less work when the costs are nonzero.
func TestDispatchCostsReduceThroughput(t *testing.T) {
	run := func(policy string, switchCost, migrationCost sim.Time) (sched.Work, int64) {
		home := 0
		// Three hogs on two cores: the odd thread out rotates through the
		// cores, so the stealing run is guaranteed to migrate (an even
		// count settles into a stable no-migration assignment).
		var threads []simconfig.ThreadConfig
		for i := 0; i < 3; i++ {
			tc := simconfig.ThreadConfig{Name: "hog" + string(rune('a'+i)), Leaf: "/run", Weight: 1}
			if policy == "steal" {
				tc.Affinity = &home
			}
			threads = append(threads, tc)
		}
		cfg := smpConfig(42, 2, policy, 5*sim.Millisecond, threads)
		cfg.SwitchCost = simconfig.Duration(switchCost)
		cfg.MigrationCost = simconfig.Duration(migrationCost)
		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("build %s: %v", policy, err)
		}
		s.Run()
		return s.Machine.Stats().Work, s.Machine.Stats().Migrations
	}

	free, _ := run("global", 0, 0)
	costly, _ := run("global", 2*sim.Millisecond, 0)
	if costly >= free {
		t.Errorf("global: work %d with 2ms switch cost, %d without; cost did not reduce throughput", costly, free)
	}
	free, _ = run("steal", 0, 0)
	costly, mig := run("steal", 0, 2*sim.Millisecond)
	if mig == 0 {
		t.Fatal("steal: no migrations; the throughput comparison is vacuous")
	}
	if costly >= free {
		t.Errorf("steal: work %d with 2ms migration cost, %d without; cost did not reduce throughput", costly, free)
	}
}
