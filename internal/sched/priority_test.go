package sched

import (
	"testing"

	"hsfq/internal/sim"
)

func TestPriorityOrdersAndStarves(t *testing.T) {
	s := NewPriority(0)
	hi := NewThread(1, "hi", 1)
	hi.Priority = 9
	lo := NewThread(2, "lo", 1)
	lo.Priority = 1
	s.Enqueue(lo, 0)
	s.Enqueue(hi, 0)
	// The high-priority thread runs every time — no protection at all.
	for i := 0; i < 50; i++ {
		if got := s.Pick(0); got != hi {
			t.Fatalf("round %d picked %v", i, got)
		}
		s.Charge(hi, 1000, 0, true)
	}
	s.Pick(0)
	s.Charge(hi, 1000, 0, false)
	if got := s.Pick(0); got != lo {
		t.Fatalf("low-priority thread not served after hi left: %v", got)
	}
	s.Charge(lo, 1, 0, true)
}

func TestPriorityRoundRobinWithinLevel(t *testing.T) {
	s := NewPriority(0)
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 1)
	a.Priority = 5
	b.Priority = 5
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	var picks []int
	for i := 0; i < 6; i++ {
		p := s.Pick(0)
		picks = append(picks, p.ID)
		s.Charge(p, 1000, 0, true)
	}
	want := []int{1, 2, 1, 2, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks %v, want alternation", picks)
		}
	}
}

func TestPriorityPreempts(t *testing.T) {
	s := NewPriority(0)
	lo := NewThread(1, "lo", 1)
	lo.Priority = 1
	s.Enqueue(lo, 0)
	s.Pick(0)
	hi := NewThread(2, "hi", 1)
	hi.Priority = 9
	s.Enqueue(hi, 0)
	if !s.Preempts(lo, hi, 0) {
		t.Error("higher priority did not preempt")
	}
	same := NewThread(3, "same", 1)
	same.Priority = 1
	s.Enqueue(same, 0)
	if s.Preempts(lo, same, 0) {
		t.Error("equal priority preempted")
	}
	s.Charge(lo, 1, 0, true)
}

func TestPriorityForget(t *testing.T) {
	s := NewPriority(0)
	a := NewThread(1, "a", 1)
	s.Enqueue(a, 0)
	s.Pick(0)
	s.Charge(a, 1, 0, false)
	s.Forget(a)
	if s.entries.Len() != 0 {
		t.Error("entry not forgotten")
	}
	s.Enqueue(a, 0)
	defer func() {
		if recover() == nil {
			t.Error("Forget of runnable did not panic")
		}
	}()
	s.Forget(a)
}

func TestPriorityReadsPriorityAtEnqueue(t *testing.T) {
	s := NewPriority(sim.Millisecond)
	a := NewThread(1, "a", 1)
	a.Priority = 1
	b := NewThread(2, "b", 1)
	b.Priority = 5
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	if s.Pick(0) != b {
		t.Fatal("b should win")
	}
	s.Charge(b, 1, 0, false)
	// Raising a's priority while queued takes effect at next enqueue,
	// not retroactively.
	a.Priority = 9
	if s.Pick(0) != a {
		t.Fatal("a is alone")
	}
	s.Charge(a, 1, 0, false)
	s.Enqueue(a, 0)
	b.Priority = 7
	s.Enqueue(b, 0)
	if s.Pick(0) != a {
		t.Error("a's new priority 9 not honored at enqueue")
	}
	s.Charge(a, 1, 0, true)
}
