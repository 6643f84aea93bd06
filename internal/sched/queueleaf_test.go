package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"hsfq/internal/sim"
)

// TestQueueLeavesDecisionsPinned drives every registered leaf, on FIFO
// run lists or on a tag heap, with eight threads through one seeded
// script and pins a SHA-256 of every answer the leaf gives: each Pick,
// Quantum, Preempts and Len. A leaf with no pin fails. The script mixes
// zero, partial and full-quantum charges, blocks and wakes that land
// mid-segment, and runs long enough that svr4 boosts several threads at
// one Pick (two of its threads are real-time, so the others wait past
// the one-second maxwait) and mlfq's aging fires; the test
// asserts both, because those are the moves that requeue several threads
// in one pass, in an order only this pin holds. Half of reserves'
// threads hold reserves small enough to run out, so its threads cross
// between the reserved heap and the background band. The threads carry
// three priorities and three periods, one in four is aperiodic and one
// in four has a relative deadline shorter than its period, so edf, rm
// and priority order them by keys that both differ and tie.
func TestQueueLeavesDecisionsPinned(t *testing.T) {
	want := map[string]string{
		"drr":      "fac79583ea0b29b159c5585543234bd6c671e4df625d9458bc8c3806e5db3881",
		"edf":      "6f4dc6fe0fc4a74f6d90fc9ab96e1801dcd7d3ed19697a3ecd495f30a0e93417",
		"eevdf":    "db1fad02970542057ca73c4f29838225bfad468a11abfd46f951d28b4cbc65c3",
		"fifo":     "1fb989064d366a4bb4c478addd7a348898f67ce018015aa5618b29e50644cb3f",
		"lottery":  "529199f9d5aede24d6300b9e377853bd050390f651c6375ad61b97856e8f3639",
		"mlfq":     "4cec7748cef3f6d2b5de90aac8d5b4adce78f2bcc80e855649f47be8b49bf749",
		"priority": "148498b6cf348f1e5b5624a7e0407f3f30ad640af9f06d3e1d94b81fb6fe9e0c",
		"reserves": "65650804aaa7392d1a58baabf644c0a7deac7bc974e749ea7c2f1e1c455a5feb",
		"rm":       "247918cad06efbbb75bdcc39e71205099a53e7473a72592af783ba2a9e20c951",
		"rr":       "121aed27b252c05afdf65dd90c5766474ed794b2aea1c913aef23594f20d73ac",
		"sfq":      "3ca86ef3b9f2a2fbd109749fb41c66e2b15b0569a83f3ab8911517420bcb2d49",
		"stride":   "72872213d91ffec9465734573cde4d368c31175401277b18a8a98abfb11568e3",
		"svr4":     "76f4aeaa0ae2d6644a0c56550fab9bb0d58b902cf7dbb4909957902e0b7417b4",
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			got, multiMoves, agings := driveQueueLeaf(t, name)
			if got != want[name] {
				t.Errorf("decision digest %s, pinned %s", got, want[name])
			}
			if name == "svr4" && multiMoves == 0 {
				t.Error("no Pick boosted more than one waiting thread")
			}
			if name == "mlfq" && (agings == 0 || multiMoves == 0) {
				t.Errorf("aging moved %d threads, %d Picks more than one", agings, multiMoves)
			}
		})
	}
}

// driveQueueLeaf runs the pinned script against the named leaf. It
// returns the digest, the number of Picks that moved two or more waiting
// threads (svr4's wait boosts, mlfq's aging), and the number of threads
// mlfq aged back to level 0.
func driveQueueLeaf(t *testing.T, name string) (digest string, multiMoves, agings int) {
	const ips = 100_000_000
	s, err := New(name, LeafConfig{
		Quantum: 10 * sim.Millisecond,
		IPS:     ips,
		RNG:     sim.NewRand(5),
		Aging:   300 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]*Thread, 8)
	for i := range threads {
		th := NewThread(i+1, fmt.Sprintf("t%d", i+1), float64(i%3+1))
		th.Priority = i % 3
		if i%4 != 3 {
			th.Period = sim.Time(i%3+1) * 40 * sim.Millisecond
		}
		if i%4 == 1 {
			th.RelDeadline = 25 * sim.Millisecond
		}
		threads[i] = th
	}
	sv, _ := s.(*SVR4)
	ml, _ := s.(*MLFQ)
	if sv != nil {
		sv.SetRealTime(threads[0], 3)
		sv.SetRealTime(threads[1], 7)
	}
	if res, ok := s.(*Reserves); ok {
		// Half the threads hold reserves small enough to run out, so
		// threads move between the reserved and background bands.
		for i, th := range threads[:4] {
			res.SetReserve(th, Work(i+1)*100_000, 100*sim.Millisecond)
		}
	}
	// level reads the thread's level, where the leaf has levels.
	level := func(th *Thread) int {
		switch {
		case sv != nil:
			_, l := sv.Level(th)
			return l
		case ml != nil:
			return ml.Level(th)
		}
		return 0
	}

	rng := rand.New(rand.NewSource(30))
	h := sha256.New()
	now := sim.Time(0)
	runnable := make([]bool, len(threads))
	// random returns the index of a random thread whose runnability is
	// want, or -1 if there is none.
	random := func(want bool) int {
		var idx []int
		for i, r := range runnable {
			if r == want {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return -1
		}
		return idx[rng.Intn(len(idx))]
	}
	wake := func(i int) {
		threads[i].WokeAt = now
		s.Enqueue(threads[i], now)
		runnable[i] = true
		fmt.Fprintf(h, "wake %d len %d\n", threads[i].ID, s.Len())
	}
	for i := range threads {
		wake(i)
	}

	before := make([]int, len(threads))
	for step := 0; step < 5000; step++ {
		if i := random(false); i >= 0 && rng.Intn(3) == 0 {
			wake(i)
		}
		for i, th := range threads {
			before[i] = level(th)
		}
		p := s.Pick(now)
		moved := 0 // threads this Pick boosted (svr4) or aged (mlfq)
		for i, th := range threads {
			if l := level(th); sv != nil && l > before[i] || ml != nil && l < before[i] {
				moved++
			}
		}
		if moved > 1 {
			multiMoves++
		}
		if ml != nil {
			agings += moved
		}
		if p == nil {
			fmt.Fprintf(h, "pick none\n")
			now += 5 * sim.Millisecond
			continue
		}
		q := s.Quantum(p, now)
		fmt.Fprintf(h, "pick %d quantum %d\n", p.ID, q)
		if i := random(false); i >= 0 && rng.Intn(4) == 0 {
			wake(i)
			fmt.Fprintf(h, "preempts %v\n", s.Preempts(p, threads[i], now))
		}

		full := min(q, 100*sim.Millisecond)
		var used sim.Time
		var extra Work
		switch rng.Intn(4) {
		case 0: // zero-length segment
		case 1:
			used = sim.Time(rng.Int63n(int64(full)))
		case 2:
			used = full
		case 3:
			used, extra = full, 1
		}
		now += used
		p.Segments++
		block := rng.Intn(5) == 0
		s.Charge(p, workFor(ips, used)+extra, now, !block)
		if block {
			runnable[p.ID-1] = false
		}
		fmt.Fprintf(h, "charge %d block %v len %d\n", used, block, s.Len())
		now += sim.Time(rng.Intn(3)) * sim.Millisecond
	}
	return hex.EncodeToString(h.Sum(nil)), multiMoves, agings
}
