package sched

import (
	"testing"

	"hsfq/internal/sim"
)

func TestReservesBudgetDepletion(t *testing.T) {
	s := NewReserves(10 * sim.Millisecond)
	a := NewThread(1, "a", 1)
	bg := NewThread(2, "bg", 1)
	s.SetReserve(a, 1000, 100*sim.Millisecond)
	s.Enqueue(a, 0)
	s.Enqueue(bg, 0)

	// With budget, the reserved thread outranks background.
	if got := s.Pick(0); got != a {
		t.Fatalf("picked %v, want reserved", got)
	}
	s.Charge(a, 1000, sim.Millisecond, true) // budget exhausted
	if s.Budget(a) != 0 {
		t.Fatalf("budget %d", s.Budget(a))
	}
	// Depleted: background round-robin order (bg was enqueued first).
	if got := s.Pick(2 * sim.Millisecond); got != bg {
		t.Fatalf("picked %v, want background thread", got)
	}
	s.Charge(bg, 10, 2*sim.Millisecond, true)
	// After the replenishment instant, the reserve refills and a wins
	// again.
	if got := s.Pick(150 * sim.Millisecond); got != a {
		t.Fatalf("picked %v after refill", got)
	}
	if s.Budget(a) != 1000 {
		t.Errorf("budget %d after refill", s.Budget(a))
	}
	s.Charge(a, 1, 150*sim.Millisecond, false)
}

func TestReservesEarliestReplenishmentFirst(t *testing.T) {
	s := NewReserves(0)
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 1)
	s.SetReserve(a, 100, 200*sim.Millisecond)
	s.SetReserve(b, 100, 50*sim.Millisecond)
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	// b's replenishment comes sooner: it runs first (deadline-ordered).
	if got := s.Pick(0); got != b {
		t.Fatalf("picked %v", got)
	}
	s.Charge(b, 10, 0, true)
}

func TestReservesPreemptsBackgroundOnly(t *testing.T) {
	s := NewReserves(0)
	bg := NewThread(1, "bg", 1)
	res := NewThread(2, "res", 1)
	s.SetReserve(res, 100, 100*sim.Millisecond)
	s.Enqueue(bg, 0)
	if got := s.Pick(0); got != bg {
		t.Fatal("background not picked when alone")
	}
	s.Enqueue(res, 0)
	if !s.Preempts(bg, res, 0) {
		t.Error("reserved wakeup did not preempt background")
	}
	s.Charge(bg, 1, 0, true)
	if got := s.Pick(0); got != res {
		t.Fatal("reserved thread not picked")
	}
	other := NewThread(3, "res2", 1)
	s.SetReserve(other, 100, 100*sim.Millisecond)
	s.Enqueue(other, 0)
	if s.Preempts(res, other, 0) {
		t.Error("reserved thread preempted a reserved thread")
	}
	s.Charge(res, 1, 0, false)
}

func TestReservesValidationAndForget(t *testing.T) {
	s := NewReserves(0)
	a := NewThread(1, "a", 1)
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		s.SetReserve(a, 0, sim.Second)
		return
	}(); !recovered {
		t.Error("zero capacity accepted")
	}
	s.SetReserve(a, 10, sim.Second)
	s.Enqueue(a, 0)
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		s.SetReserve(a, 10, sim.Second)
		return
	}(); !recovered {
		t.Error("SetReserve on runnable accepted")
	}
	s.Pick(0)
	s.Charge(a, 1, 0, false)
	s.Forget(a)
	if s.entries.Len() != 0 {
		t.Error("not forgotten")
	}
}

// TestReservesEnforcesRates: two reserved threads plus one background hog;
// long-run shares must track the reserves, with the hog absorbing the
// slack.
func TestReservesEnforcesRates(t *testing.T) {
	s := NewReserves(10 * sim.Millisecond)
	a := NewThread(1, "a", 1) // 30% reserve
	b := NewThread(2, "b", 1) // 20% reserve
	hog := NewThread(3, "hog", 1)
	s.SetReserve(a, 30_000, 100*sim.Millisecond)
	s.SetReserve(b, 20_000, 100*sim.Millisecond)
	for _, th := range []*Thread{a, b, hog} {
		s.Enqueue(th, 0)
	}
	// Drive with 1 work unit == 1 us: serve in 1ms slices for 10 s.
	done := map[*Thread]Work{}
	now := sim.Time(0)
	for now < 10*sim.Second {
		p := s.Pick(now)
		used := Work(1000) // 1 ms
		done[p] += used
		now += sim.Millisecond
		s.Charge(p, used, now, true)
	}
	// Soft reserves: each thread is guaranteed its reserve, and once
	// depleted it competes equally in the background band. Per 100 ms:
	// a = 30 + 50/3, b = 20 + 50/3, hog = 50/3.
	total := float64(done[a] + done[b] + done[hog])
	shareA := float64(done[a]) / total
	shareB := float64(done[b]) / total
	hogShare := float64(done[hog]) / total
	if shareA < 0.44 || shareA > 0.49 {
		t.Errorf("a's share %.3f, want ~0.467", shareA)
	}
	if shareB < 0.34 || shareB > 0.39 {
		t.Errorf("b's share %.3f, want ~0.367", shareB)
	}
	if hogShare < 0.14 || hogShare > 0.20 {
		t.Errorf("hog share %.3f, want ~0.167", hogShare)
	}
	// The guarantee itself: a and b each got at least their reserve.
	if float64(done[a]) < 0.30*total || float64(done[b]) < 0.20*total {
		t.Errorf("reserve guarantee violated: a=%.3f b=%.3f", shareA, shareB)
	}
}
