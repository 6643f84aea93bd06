package sched

import (
	"testing"

	"hsfq/internal/sim"
)

// allSchedulers returns one fresh instance of every Scheduler
// implementation, for contract tests that must hold across algorithms.
func allSchedulers() map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"sfq":      func() Scheduler { return NewSFQ(10 * sim.Millisecond) },
		"rr":       func() Scheduler { return NewRoundRobin(10 * sim.Millisecond) },
		"fifo":     func() Scheduler { return NewFIFO() },
		"edf":      func() Scheduler { return NewEDF(10 * sim.Millisecond) },
		"rm":       func() Scheduler { return NewRM(10 * sim.Millisecond) },
		"svr4":     func() Scheduler { return NewSVR4(nil, 100_000_000, 25*sim.Millisecond) },
		"lottery":  func() Scheduler { return NewLottery(10*sim.Millisecond, sim.NewRand(1)) },
		"priority": func() Scheduler { return NewPriority(10 * sim.Millisecond) },
		"stride":   func() Scheduler { return NewStride(10 * sim.Millisecond) },
		"eevdf":    func() Scheduler { return NewEEVDF(10*sim.Millisecond, 1_000_000) },
		"reserves": func() Scheduler { return NewReserves(10 * sim.Millisecond) },
		"mlfq":     func() Scheduler { return NewMLFQ(4, 10*sim.Millisecond, sim.Second, 100_000_000) },
		"drr":      func() Scheduler { return NewDRR(10*sim.Millisecond, 100_000_000) },
	}
}

func testThreads(n int) []*Thread {
	out := make([]*Thread, n)
	for i := range out {
		out[i] = NewThread(i+1, "t", float64(i+1))
		out[i].Period = sim.Time(i+1) * 100 * sim.Millisecond
	}
	return out
}

// TestContractRejectsDuplicateThreadID: every leaf keeps its per-thread
// state (rr, fifo and lottery only their queue links) in a Table keyed by
// thread ID, so a second thread carrying a known thread's ID must be
// refused rather than handed that thread's entry.
func TestContractRejectsDuplicateThreadID(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Enqueue(NewThread(1, "a", 1), 0)
			defer func() {
				if recover() == nil {
					t.Error("Enqueue of a second thread with ID 1 did not panic")
				}
			}()
			s.Enqueue(NewThread(1, "b", 1), 0)
		})
	}
}

// TestContractPickCharge: every scheduler must serve all enqueued threads
// through the Pick/Charge protocol without losing or duplicating any, and
// report Len consistently.
func TestContractPickCharge(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			threads := testThreads(5)
			for i, th := range threads {
				s.Enqueue(th, sim.Time(i))
				if s.Len() != i+1 {
					t.Fatalf("Len=%d after %d enqueues", s.Len(), i+1)
				}
			}
			served := make(map[*Thread]int)
			now := sim.Time(100)
			for i := 0; i < 200; i++ {
				p := s.Pick(now)
				if p == nil {
					t.Fatal("Pick returned nil with runnable threads")
				}
				served[p]++
				s.Charge(p, 1_000_000, now, true)
				now += sim.Millisecond
			}
			// Proportional-share schedulers must serve everyone;
			// priority-based ones (fifo, edf, rm, svr4) legitimately
			// starve low-priority threads.
			switch name {
			case "sfq", "rr", "lottery", "stride", "eevdf", "mlfq", "drr":
				for _, th := range threads {
					if served[th] == 0 {
						t.Errorf("thread %v never served in 200 rounds", th)
					}
				}
			}
			// Drain: charge each picked thread as blocking.
			for s.Len() > 0 {
				p := s.Pick(now)
				s.Charge(p, 1000, now, false)
				now += sim.Millisecond
			}
			if p := s.Pick(now); p != nil {
				t.Errorf("Pick on empty scheduler returned %v", p)
			}
		})
	}
}

// TestContractSMPDequeueProtocol: every leaf kind declared SMPSafe must
// survive the multicore dequeue-on-dispatch protocol — Pick, zero-work
// blocking Charge (removal), then Enqueue followed by a position-
// independent Charge of the segment — without panicking or losing
// threads. The capability list must also cover every registered leaf,
// so a newly registered scheduler makes an explicit safe/unsafe call.
func TestContractSMPDequeueProtocol(t *testing.T) {
	schedulers := allSchedulers()
	for _, name := range Names() {
		if _, ok := schedulers[name]; !ok {
			t.Errorf("registered leaf %q missing from allSchedulers", name)
		}
	}
	for name, mk := range schedulers {
		if !SMPSafe(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			s := mk()
			threads := testThreads(4)
			for _, th := range threads {
				s.Enqueue(th, 0)
			}
			now := sim.Time(1)
			for i := 0; i < 100; i++ {
				p := s.Pick(now)
				if p == nil {
					t.Fatal("Pick returned nil with runnable threads")
				}
				s.Charge(p, 0, now, false) // dequeue: remove at dispatch
				if s.Len() != len(threads)-1 {
					t.Fatalf("Len=%d with one thread dispatched", s.Len())
				}
				now += sim.Millisecond
				s.Enqueue(p, now)
				s.Charge(p, 1_000_000, now, true) // segment-end re-stamp
				if s.Len() != len(threads) {
					t.Fatalf("Len=%d after requeue", s.Len())
				}
			}
		})
	}
}

// TestContractRemove: a thread leaves the runnable set only by blocking,
// a Charge with runnable=false after its Pick. That shrinks the set, and
// the thread is never served again while the others run on.
func TestContractRemove(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			threads := testThreads(4)
			for _, th := range threads {
				s.Enqueue(th, 0)
			}
			victim := s.Pick(0)
			s.Charge(victim, 1000, 0, false)
			if s.Len() != 3 {
				t.Fatalf("Len=%d after block, want 3", s.Len())
			}
			now := sim.Time(1)
			for i := 0; i < 50; i++ {
				p := s.Pick(now)
				if p == victim {
					t.Fatal("blocked thread was served")
				}
				s.Charge(p, 1000, now, true)
				now += sim.Millisecond
			}
		})
	}
}

// TestContractReEnqueue: a thread that blocks can be re-enqueued and
// served again.
func TestContractReEnqueue(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			th := testThreads(1)[0]
			s.Enqueue(th, 0)
			p := s.Pick(0)
			s.Charge(p, 500, 0, false)
			if s.Len() != 0 {
				t.Fatalf("Len=%d after blocking charge", s.Len())
			}
			s.Enqueue(th, sim.Second)
			if s.Len() != 1 {
				t.Fatalf("Len=%d after re-enqueue", s.Len())
			}
			if got := s.Pick(sim.Second); got != th {
				t.Fatalf("Pick=%v after re-enqueue", got)
			}
			s.Charge(th, 500, sim.Second, true)
		})
	}
}

// TestContractDoubleEnqueuePanics: enqueueing a runnable thread is a bug.
func TestContractDoubleEnqueuePanics(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			th := testThreads(1)[0]
			s.Enqueue(th, 0)
			defer func() {
				if recover() == nil {
					t.Error("double enqueue did not panic")
				}
			}()
			s.Enqueue(th, 0)
		})
	}
}

// TestContractRemoveMissingPanics: blocking a thread that is not
// runnable, one the leaf never saw or one that already blocked, is a bug.
func TestContractRemoveMissingPanics(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			threads := testThreads(2)
			for _, blocked := range []bool{false, true} {
				s := mk()
				s.Enqueue(threads[1], 0)
				th := threads[0]
				if blocked {
					s.Enqueue(th, 0)
					th = s.Pick(0)
					s.Charge(th, 1000, 0, false)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("block of non-runnable thread %v did not panic", th)
						}
					}()
					s.Charge(th, 0, 0, false)
				}()
			}
		})
	}
}

// TestContractQuantumPositive: every scheduler grants a positive quantum.
func TestContractQuantumPositive(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			th := testThreads(1)[0]
			s.Enqueue(th, 0)
			p := s.Pick(0)
			if q := s.Quantum(p, 0); q <= 0 {
				t.Errorf("quantum %v", q)
			}
			s.Charge(p, 1, 0, false)
		})
	}
}

// TestContractNames: names are non-empty and unique.
func TestContractNames(t *testing.T) {
	seen := map[string]bool{}
	for key, mk := range allSchedulers() {
		n := mk().Name()
		if n == "" {
			t.Errorf("%s: empty name", key)
		}
		if seen[n] {
			t.Errorf("duplicate scheduler name %q", n)
		}
		seen[n] = true
	}
}

// TestThreadBasics covers the Thread helpers.
func TestThreadBasics(t *testing.T) {
	th := NewThread(3, "x", 2)
	if th.String() != "x#3" {
		t.Errorf("String = %q", th.String())
	}
	var nilT *Thread
	if nilT.String() != "<idle>" {
		t.Errorf("nil String = %q", nilT.String())
	}
	if StateNew.String() != "new" || StateExited.String() != "exited" {
		t.Error("state names wrong")
	}
	if ThreadState(99).String() == "" {
		t.Error("out-of-range state name empty")
	}
	th.Period = 100
	if th.Deadline() != 100 {
		t.Error("Deadline should default to Period")
	}
	th.RelDeadline = 50
	if th.Deadline() != 50 {
		t.Error("explicit RelDeadline ignored")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero weight did not panic")
		}
	}()
	NewThread(1, "bad", 0)
}
