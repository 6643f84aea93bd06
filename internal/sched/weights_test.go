package sched

import (
	"math"
	"testing"

	"hsfq/internal/sim"
)

func TestSetWeightWhileRunnable(t *testing.T) {
	mk := map[string]func() Scheduler{
		"sfq":     func() Scheduler { return NewSFQ(0) },
		"lottery": func() Scheduler { return NewLottery(0, sim.NewRand(1)) },
		"stride":  func() Scheduler { return NewStride(0) },
		"eevdf":   func() Scheduler { return NewEEVDF(0, 1000) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			s := f()
			a := NewThread(1, "a", 1)
			b := NewThread(2, "b", 1)
			s.Enqueue(a, 0)
			s.Enqueue(b, 0)
			ws := s.(WeightSetter)
			ws.SetWeight(a, 3)
			if a.Weight != 3 {
				t.Fatal("weight not applied")
			}
			if wl := s.(interface{ TotalWeight() float64 }); wl.TotalWeight() != 4 {
				t.Errorf("total weight %v, want 4", wl.TotalWeight())
			}
			got := serve(s, 8000, 1000)
			ratio := float64(got[a]) / float64(got[b])
			lo, hi := 2.7, 3.3
			if name == "lottery" {
				lo, hi = 2.4, 3.6 // randomized
			}
			if ratio < lo || ratio > hi {
				t.Errorf("post-change ratio %v, want ~3", ratio)
			}
		})
	}
}

func TestSetWeightWhileBlocked(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	s.SetWeight(a, 5)
	if a.Weight != 5 {
		t.Fatal("weight not applied to blocked thread")
	}
	s.Enqueue(a, 0)
	if s.TotalWeight() != 5 {
		t.Errorf("total %v", s.TotalWeight())
	}
	s.Pick(0)
	s.Charge(a, 0, 0, false)
	if s.TotalWeight() != 0 {
		t.Errorf("total %v after block", s.TotalWeight())
	}
}

func TestSetWeightValidation(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive weight did not panic")
		}
	}()
	s.SetWeight(a, 0)
}

func TestDonationRaisesEffectiveWeight(t *testing.T) {
	s := NewSFQ(0)
	blocked := NewThread(1, "blocked", 4)
	holder := NewThread(2, "holder", 1)
	other := NewThread(3, "other", 1)
	s.Enqueue(holder, 0)
	s.Enqueue(other, 0)

	// Without donation: 1:1 between holder and other.
	d := s.Donate(blocked, holder)
	if s.EffectiveWeight(holder) != 5 {
		t.Fatalf("effective weight %v, want 5", s.EffectiveWeight(holder))
	}
	if s.TotalWeight() != 6 {
		t.Fatalf("total %v, want 6", s.TotalWeight())
	}
	got := serve(s, 6000, 100)
	ratio := float64(got[holder]) / float64(got[other])
	if math.Abs(ratio-5) > 0.2 {
		t.Errorf("donated ratio %v, want ~5", ratio)
	}

	s.Revoke(d)
	if s.EffectiveWeight(holder) != 1 {
		t.Errorf("effective weight %v after revoke", s.EffectiveWeight(holder))
	}
	if s.TotalWeight() != 2 {
		t.Errorf("total %v after revoke", s.TotalWeight())
	}
}

func TestDonationStacksAndRevokesPrecisely(t *testing.T) {
	s := NewSFQ(0)
	d1src := NewThread(1, "d1", 2)
	d2src := NewThread(2, "d2", 3)
	holder := NewThread(3, "holder", 1)
	s.Enqueue(holder, 0)
	don1 := s.Donate(d1src, holder)
	don2 := s.Donate(d2src, holder)
	if s.EffectiveWeight(holder) != 6 {
		t.Fatalf("stacked effective weight %v", s.EffectiveWeight(holder))
	}
	// Donor's weight changes after the fact do not alter the recorded
	// donation amount.
	d1src.Weight = 100
	s.Revoke(don1)
	if s.EffectiveWeight(holder) != 4 {
		t.Errorf("after first revoke: %v, want 4", s.EffectiveWeight(holder))
	}
	s.Revoke(don2)
	if s.EffectiveWeight(holder) != 1 {
		t.Errorf("after both revokes: %v, want 1", s.EffectiveWeight(holder))
	}
	s.Pick(0)
	s.Charge(holder, 0, 0, false)
	if s.TotalWeight() != 0 {
		t.Errorf("total %v after block", s.TotalWeight())
	}
}

func TestDonationValidation(t *testing.T) {
	s := NewSFQ(0)
	a := NewThread(1, "a", 1)
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		s.Donate(a, a)
		return
	}(); !recovered {
		t.Error("self-donation did not panic")
	}
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		s.Revoke(Donation{})
		return
	}(); !recovered {
		t.Error("zero revoke did not panic")
	}
	b := NewThread(2, "b", 1)
	d := s.Donate(a, b)
	s.Revoke(d)
	if recovered := func() (r bool) {
		defer func() { r = recover() != nil }()
		s.Revoke(d)
		return
	}(); !recovered {
		t.Error("double revoke did not panic")
	}
}

func TestDonationChargesAtEffectiveWeight(t *testing.T) {
	// §4: "the blocking thread will have a weight (and hence, the CPU
	// allocation) that is at least as large as the weight of the blocked
	// thread" — its finish tag must advance at the boosted rate.
	s := NewSFQ(0)
	blocked := NewThread(1, "blocked", 3)
	holder := NewThread(2, "holder", 1)
	s.Enqueue(holder, 0)
	s.Donate(blocked, holder)
	s.Pick(0)
	s.Charge(holder, 400, 0, true)
	if _, f := s.Tags(holder); f != 100 {
		t.Errorf("finish tag %v, want 400/(1+3) = 100", f)
	}
}
