package core

import (
	"math"
	"testing"
	"testing/quick"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// driveStructure runs n Pick/Charge rounds of fixed-size quanta over the
// structure and returns per-thread service.
func driveStructure(s *Structure, n int, used sched.Work) map[*sched.Thread]sched.Work {
	got := make(map[*sched.Thread]sched.Work)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		t := s.Pick(now)
		if t == nil {
			break
		}
		got[t] += used
		s.Charge(t, used, now, true)
		now += sim.Millisecond
	}
	return got
}

func TestHierarchicalProportions(t *testing.T) {
	// Fig. 2 shape: hard 1, soft 3, best-effort 6 (user1/user2 at 1:1).
	s, ids := buildPaperFig2(t)
	mkThread := func(id int, leaf string) *sched.Thread {
		th := sched.NewThread(id, leaf, 1)
		if err := s.Attach(th, ids[leaf]); err != nil {
			t.Fatal(err)
		}
		s.Enqueue(th, 0)
		return th
	}
	hard := mkThread(1, "hard-real-time")
	hard.Period = 100 * sim.Millisecond
	soft := mkThread(2, "soft-real-time")
	u1 := mkThread(3, "user1")
	u2 := mkThread(4, "user2")

	got := driveStructure(s, 10000, 1000)
	total := float64(got[hard] + got[soft] + got[u1] + got[u2])
	checkShare := func(name string, work sched.Work, want float64) {
		if share := float64(work) / total; math.Abs(share-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.3f", name, share, want)
		}
	}
	checkShare("hard", got[hard], 0.1)
	checkShare("soft", got[soft], 0.3)
	checkShare("user1", got[u1], 0.3)
	checkShare("user2", got[u2], 0.3)
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResidualRedistribution(t *testing.T) {
	// Example 1 of §2: when hard and soft real-time are empty, user1 and
	// user2 still split evenly; when they fill up, best-effort drops to
	// 60% and the users keep splitting evenly.
	s, ids := buildPaperFig2(t)
	u1 := sched.NewThread(1, "u1", 1)
	u2 := sched.NewThread(2, "u2", 1)
	must(s.Attach(u1, ids["user1"]))
	must(s.Attach(u2, ids["user2"]))
	s.Enqueue(u1, 0)
	s.Enqueue(u2, 0)

	phase1 := driveStructure(s, 1000, 1000)
	if math.Abs(float64(phase1[u1])-float64(phase1[u2])) > 2000 {
		t.Errorf("idle-classes split %v:%v", phase1[u1], phase1[u2])
	}

	soft := sched.NewThread(3, "soft", 1)
	must(s.Attach(soft, ids["soft-real-time"]))
	s.Enqueue(soft, sim.Second)
	phase2 := driveStructure(s, 10000, 1000)
	totalBE := float64(phase2[u1] + phase2[u2])
	totalAll := totalBE + float64(phase2[soft])
	// hard-real-time is empty: residual splits 3:6 soft:best-effort.
	if share := totalBE / totalAll; math.Abs(share-2.0/3.0) > 0.01 {
		t.Errorf("best-effort share %.3f, want 0.667", share)
	}
	if math.Abs(float64(phase2[u1])-float64(phase2[u2])) > 2000 {
		t.Errorf("user split %v:%v under contention", phase2[u1], phase2[u2])
	}
}

func TestSetRunSleepPropagation(t *testing.T) {
	s, ids := buildPaperFig2(t)
	be := s.Node(ids["best-effort"])
	u1 := s.Node(ids["user1"])
	if be.Runnable() || u1.Runnable() {
		t.Fatal("empty structure has runnable nodes")
	}
	th := sched.NewThread(1, "t", 1)
	must(s.Attach(th, ids["user1"]))
	s.Enqueue(th, 0)
	if !be.Runnable() || !u1.Runnable() || !s.Root().Runnable() {
		t.Error("setrun did not propagate to ancestors")
	}
	if s.Len() != 1 {
		t.Errorf("Len %d", s.Len())
	}
	s.Pick(0)
	s.Charge(th, 0, 0, false)
	if be.Runnable() || u1.Runnable() || s.Root().Runnable() {
		t.Error("sleep did not propagate to ancestors")
	}
	if s.Len() != 0 {
		t.Errorf("Len %d after block", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetRunStopsAtRunnableAncestor(t *testing.T) {
	s, ids := buildPaperFig2(t)
	a := sched.NewThread(1, "a", 1)
	b := sched.NewThread(2, "b", 1)
	must(s.Attach(a, ids["user1"]))
	must(s.Attach(b, ids["user2"]))
	s.Enqueue(a, 0)
	beStart, _ := s.Node(ids["best-effort"]).Tags()
	// Serving a advances best-effort's tags.
	for i := 0; i < 5; i++ {
		th := s.Pick(0)
		s.Charge(th, 1000, 0, true)
	}
	// b waking must not restamp the already-runnable best-effort node.
	s.Enqueue(b, 0)
	beStart2, _ := s.Node(ids["best-effort"]).Tags()
	if beStart2 < beStart {
		t.Errorf("best-effort start tag rewound on inner wake: %v -> %v", beStart, beStart2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNodeNoCreditAfterIdle(t *testing.T) {
	// A class that sleeps must not bank bandwidth: after it returns, the
	// split is proportional from then on, with no catch-up binge.
	s := NewStructure()
	aID, _ := s.Mknod("a", RootID, 1, q())
	bID, _ := s.Mknod("b", RootID, 1, q())
	ta := sched.NewThread(1, "ta", 1)
	tb := sched.NewThread(2, "tb", 1)
	must(s.Attach(ta, aID))
	must(s.Attach(tb, bID))
	s.Enqueue(ta, 0)
	// a runs alone for 100 quanta.
	for i := 0; i < 100; i++ {
		th := s.Pick(0)
		s.Charge(th, 1000, 0, true)
	}
	s.Enqueue(tb, sim.Second)
	got := driveStructure(s, 1000, 1000)
	if math.Abs(float64(got[ta])-float64(got[tb])) > 2000 {
		t.Errorf("post-return split %v:%v, want equal (no catch-up)", got[ta], got[tb])
	}
}

func TestQuantumComesFromLeaf(t *testing.T) {
	s := NewStructure()
	aID, _ := s.Mknod("a", RootID, 1, sched.NewSFQ(7*sim.Millisecond))
	ta := sched.NewThread(1, "ta", 1)
	must(s.Attach(ta, aID))
	s.Enqueue(ta, 0)
	if got := s.Quantum(ta, 0); got != 7*sim.Millisecond {
		t.Errorf("quantum %v", got)
	}
}

func TestPreemptsLeafLocal(t *testing.T) {
	s := NewStructure()
	edfID, _ := s.Mknod("edf", RootID, 1, sched.NewEDF(0))
	sfqID, _ := s.Mknod("sfq", RootID, 1, q())
	long := sched.NewThread(1, "long", 1)
	long.RelDeadline = sim.Second
	short := sched.NewThread(2, "short", 1)
	short.RelDeadline = 10 * sim.Millisecond
	other := sched.NewThread(3, "other", 1)
	must(s.Attach(long, edfID))
	must(s.Attach(short, edfID))
	must(s.Attach(other, sfqID))

	s.Enqueue(long, 0)
	if got := s.Pick(0); got != long {
		t.Fatalf("picked %v", got)
	}
	// Same-leaf EDF wakeup preempts; cross-leaf does not.
	s.Enqueue(short, 0)
	if !s.Preempts(long, short, 0) {
		t.Error("same-leaf EDF preemption denied")
	}
	s.Enqueue(other, 0)
	if s.Preempts(long, other, 0) {
		t.Error("cross-leaf preemption allowed")
	}
	s.Charge(long, 100, 0, true)
}

func TestPickChargeMismatchPanics(t *testing.T) {
	s := NewStructure()
	aID, _ := s.Mknod("a", RootID, 1, q())
	ta := sched.NewThread(1, "ta", 1)
	tb := sched.NewThread(2, "tb", 1)
	must(s.Attach(ta, aID))
	must(s.Attach(tb, aID))
	s.Enqueue(ta, 0)
	s.Enqueue(tb, 0)
	s.Pick(0)
	defer func() {
		if recover() == nil {
			t.Error("charging the non-picked thread did not panic")
		}
	}()
	s.Charge(tb, 1, 0, true)
}

func TestUnattachedThreadPanics(t *testing.T) {
	s := NewStructure()
	th := sched.NewThread(1, "t", 1)
	for name, fn := range map[string]func(){
		"enqueue": func() { s.Enqueue(th, 0) },
		"charge":  func() { s.Charge(th, 1, 0, true) },
		"quantum": func() { s.Quantum(th, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of unattached thread did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEmptyStructurePickNil(t *testing.T) {
	s := NewStructure()
	if got := s.Pick(0); got != nil {
		t.Errorf("Pick on empty structure = %v", got)
	}
	if s.Name() != "hsfq" {
		t.Errorf("name %q", s.Name())
	}
}

func TestDeepHierarchyStillProportional(t *testing.T) {
	// Two leaves at very different depths with equal root-relative
	// bandwidth must receive equal service: depth does not distort tags.
	s := NewStructure()
	shallowID, _ := s.Mknod("shallow", RootID, 1, q())
	deepParent := RootID
	var err error
	var id NodeID
	for i := 0; i < 10; i++ {
		id, err = s.Mknod("d", deepParent, 1, nil)
		must(err)
		deepParent = id
	}
	deepID, _ := s.Mknod("leaf", deepParent, 1, q())

	ta := sched.NewThread(1, "shallow", 1)
	tb := sched.NewThread(2, "deep", 1)
	must(s.Attach(ta, shallowID))
	must(s.Attach(tb, deepID))
	s.Enqueue(ta, 0)
	s.Enqueue(tb, 0)
	got := driveStructure(s, 2000, 1000)
	if math.Abs(float64(got[ta])-float64(got[tb])) > 2000 {
		t.Errorf("depth skewed allocation %v:%v", got[ta], got[tb])
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRandomOpsPreserveInvariants drives a random but legal sequence of
// operations (enqueue, pick+charge, weight changes, node creation) and checks the structural invariants throughout.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	f := func(seed uint64, steps uint16) bool {
		rng := sim.NewRand(seed)
		s := NewStructure()
		leaves := []NodeID{}
		for i := 0; i < 3; i++ {
			id, err := s.Mknod(string(rune('a'+i)), RootID, float64(i+1), q())
			if err != nil {
				return false
			}
			leaves = append(leaves, id)
		}
		var threads []*sched.Thread
		runnable := map[*sched.Thread]bool{}
		for i := 0; i < 6; i++ {
			th := sched.NewThread(i+1, "t", float64(rng.Intn(5)+1))
			if err := s.Attach(th, leaves[rng.Intn(len(leaves))]); err != nil {
				return false
			}
			threads = append(threads, th)
		}
		now := sim.Time(0)
		n := int(steps)%500 + 50
		for i := 0; i < n; i++ {
			now += sim.Millisecond
			switch rng.Intn(9) {
			case 0, 1, 2: // wake a blocked thread
				th := threads[rng.Intn(len(threads))]
				if !runnable[th] {
					s.Enqueue(th, now)
					runnable[th] = true
				}
			case 3: // change a node weight
				id := leaves[rng.Intn(len(leaves))]
				if err := s.SetNodeWeight(id, float64(rng.Intn(9)+1)); err != nil {
					return false
				}
			case 4: // change a thread weight
				th := threads[rng.Intn(len(threads))]
				if err := s.SetThreadWeight(th, float64(rng.Intn(9)+1)); err != nil {
					return false
				}
			default: // schedule
				th := s.Pick(now)
				if th == nil {
					continue
				}
				stays := rng.Intn(4) > 0
				s.Charge(th, sched.Work(rng.Intn(10000)+1), now, stays)
				if !stays {
					runnable[th] = false
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant violated at step %d: %v", i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
