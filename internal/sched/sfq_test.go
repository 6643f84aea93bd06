package sched

import (
	"math"
	"testing"
	"testing/quick"

	"hsfq/internal/sim"
)

// serve runs n Pick/Charge rounds of `used` work each and returns the
// total work served per thread.
func serve(s Scheduler, n int, used Work) map[*Thread]Work {
	got := make(map[*Thread]Work)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		p := s.Pick(now)
		if p == nil {
			break
		}
		got[p] += used
		s.Charge(p, used, now, true)
		now += sim.Millisecond
	}
	return got
}

func TestSFQProportionalAllocation(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 2)
	c := NewThread(3, "c", 4)
	for _, th := range []*Thread{a, b, c} {
		s.Enqueue(th, 0)
	}
	got := serve(s, 7000, 100)
	// Normalized service must be near-identical (fairness theorem).
	na, nb, nc := float64(got[a])/1, float64(got[b])/2, float64(got[c])/4
	if math.Abs(na-nb) > 200 || math.Abs(nb-nc) > 200 {
		t.Errorf("normalized service diverged: %v %v %v", na, nb, nc)
	}
}

func TestSFQFairnessBoundPairwise(t *testing.T) {
	// Eq. 3: |W_f/w_f - W_m/w_m| <= l_f^max/w_f + l_m^max/w_m during any
	// interval in which both are runnable. Served quanta are all `used`.
	const used = 1000
	weights := []float64{1, 3, 7, 2.5}
	s := NewSFQ(0)
	threads := make([]*Thread, len(weights))
	for i, w := range weights {
		threads[i] = NewThread(i+1, "t", w)
		s.Enqueue(threads[i], 0)
	}
	work := make(map[*Thread]Work)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		p := s.Pick(now)
		work[p] += used
		s.Charge(p, used, now, true)
		for ai, a := range threads {
			for _, b := range threads[ai+1:] {
				gap := math.Abs(float64(work[a])/a.Weight - float64(work[b])/b.Weight)
				bound := used/a.Weight + used/b.Weight
				if gap > bound+1e-6 {
					t.Fatalf("fairness bound violated at round %d: gap %v > %v", i, gap, bound)
				}
			}
		}
		now += sim.Microsecond
	}
}

func TestSFQVirtualTimeIdle(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	s.Enqueue(a, 0)
	s.Pick(0)
	s.Charge(a, 500, 0, false) // blocks
	if v := s.VirtualTime(); v != 500 {
		t.Errorf("idle virtual time = %v, want max finish tag 500", v)
	}
	// A thread waking during idle is stamped with v, not its stale tags.
	b := NewThread(2, "b", 1)
	s.Enqueue(b, sim.Second)
	if sb, _ := s.Tags(b); sb != 500 {
		t.Errorf("S_b = %v, want 500", sb)
	}
}

func TestSFQNoCreditForSleeping(t *testing.T) {
	// A thread that sleeps must not accumulate claims: after it returns,
	// it shares from "now" rather than catching up.
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 1)
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	// b blocks immediately; a runs alone for a long time.
	if s.Pick(0) != a {
		// arrival order tie-break
		t.Fatal("expected a first")
	}
	s.Charge(a, 1000, 0, true)
	if s.Pick(0) != b {
		t.Fatal("expected b second")
	}
	s.Charge(b, 0, 0, false)
	for i := 0; i < 99; i++ {
		s.Pick(0)
		s.Charge(a, 1000, 0, true)
	}
	// b returns; service from here on must be ~50:50, not a catch-up
	// binge for b.
	s.Enqueue(b, sim.Second)
	got := serve(s, 1000, 1000)
	if math.Abs(float64(got[a])-float64(got[b])) > 1000 {
		t.Errorf("post-return split %v:%v, want equal", got[a], got[b])
	}
}

func TestSFQTagsFollowPaperRecurrences(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 2)
	s.Enqueue(a, 0)
	if sa, fa := s.Tags(a); sa != 0 || fa != 0 {
		t.Fatalf("initial tags %v %v", sa, fa)
	}
	s.Pick(0)
	s.Charge(a, 100, 0, true)
	if sa, fa := s.Tags(a); sa != 50 || fa != 50 {
		t.Fatalf("after 100 work at weight 2: S=%v F=%v, want 50, 50", sa, fa)
	}
	s.Pick(0)
	s.Charge(a, 60, 0, false)
	if _, fa := s.Tags(a); fa != 80 {
		t.Fatalf("F after second quantum = %v, want 80", fa)
	}
}

func TestSFQChargeWithoutEnqueuePanics(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	defer func() {
		if recover() == nil {
			t.Error("Charge of unknown thread did not panic")
		}
	}()
	s.Charge(a, 1, 0, true)
}

func TestSFQForget(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	s.Enqueue(a, 0)
	s.Pick(0)
	s.Charge(a, 100, 0, false)
	s.Forget(a)
	if _, f := s.Tags(a); f != 0 {
		t.Error("Forget did not clear tags")
	}
	// Forgetting a runnable thread is a bug.
	s.Enqueue(a, 0)
	defer func() {
		if recover() == nil {
			t.Error("Forget of runnable thread did not panic")
		}
	}()
	s.Forget(a)
}

func TestSFQTotalWeightTracking(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1.5)
	b := NewThread(2, "b", 2.5)
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	if s.TotalWeight() != 4 {
		t.Errorf("total %v", s.TotalWeight())
	}
	s.Pick(0)
	s.Charge(a, 0, 0, false)
	if s.TotalWeight() != 2.5 {
		t.Errorf("total %v after a blocked", s.TotalWeight())
	}
	s.Pick(0)
	s.Charge(b, 1, 0, false)
	if s.TotalWeight() != 0 {
		t.Errorf("total %v after drain", s.TotalWeight())
	}
}

// TestSFQFairnessQuick is the property-based fairness check: random
// weights and random (bounded) quantum lengths; the pairwise normalized
// service gap at every prefix must respect Eq. 3 with per-thread maximum
// quantum lengths.
func TestSFQFairnessQuick(t *testing.T) {
	f := func(w1, w2 uint8, lens []uint8) bool {
		wa := float64(w1%50) + 1
		wb := float64(w2%50) + 1
		s := NewSFQ(0)
		a := NewThread(1, "a", wa)
		b := NewThread(2, "b", wb)
		s.Enqueue(a, 0)
		s.Enqueue(b, 0)
		var workA, workB, lmaxA, lmaxB float64
		for _, l := range lens {
			used := Work(l%100) + 1
			p := s.Pick(0)
			s.Charge(p, used, 0, true)
			if p == a {
				workA += float64(used)
				lmaxA = math.Max(lmaxA, float64(used))
			} else {
				workB += float64(used)
				lmaxB = math.Max(lmaxB, float64(used))
			}
			gap := math.Abs(workA/wa - workB/wb)
			bound := lmaxA/wa + lmaxB/wb
			if gap > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSFQPerThreadQuantum(t *testing.T) {
	s := NewSFQ(10 * sim.Millisecond)
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 1)
	s.SetThreadQuantum(a, 2*sim.Millisecond)
	if s.Quantum(a, 0) != 2*sim.Millisecond {
		t.Errorf("a quantum %v", s.Quantum(a, 0))
	}
	if s.Quantum(b, 0) != 10*sim.Millisecond {
		t.Errorf("b quantum %v", s.Quantum(b, 0))
	}
	s.SetThreadQuantum(a, 0)
	if s.Quantum(a, 0) != 10*sim.Millisecond {
		t.Errorf("reset quantum %v", s.Quantum(a, 0))
	}
	defer func() {
		if recover() == nil {
			t.Error("negative quantum accepted")
		}
	}()
	s.SetThreadQuantum(a, -1)
}
