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
// zero, partial and full-quantum charges, blocks, wakes that land
// mid-segment and Removes, and runs long enough that svr4 boosts several
// threads at one Pick (two of its threads are real-time, so the others
// wait past the one-second maxwait) and mlfq's aging fires; the test
// asserts both, because those are the moves that requeue several threads
// in one pass, in an order only this pin holds. Half of reserves'
// threads hold reserves small enough to run out, so its threads cross
// between the reserved heap and the background band. The threads carry
// three priorities and three periods, one in four is aperiodic and one
// in four has a relative deadline shorter than its period, so edf, rm
// and priority order them by keys that both differ and tie.
func TestQueueLeavesDecisionsPinned(t *testing.T) {
	want := map[string]string{
		"drr":      "309616d33a1771bd2cc7a880d4506dee2ccd6aa9eafbfea40b2e380cbcac52be",
		"edf":      "76bd28a681788bad57a33f9a2a55723241dae5190432e0e3817bfabb0adb4422",
		"eevdf":    "f990c9ff6e29af7c47205cf1bd533f26bbf605eee23a325faf97aa029f983609",
		"fifo":     "e4e06f580db16198d8dcf49ebe2acb4d6193d2e057c80a75ff358502af5f1431",
		"lottery":  "391298f77c6c3715e25f39df9bac07ebd32552b415e6387410779ad00e00113e",
		"mlfq":     "44c2af9f05d3a77d6ebe822ae8800eb7a38d52b19cc49d46031885a863e97edf",
		"priority": "c0146f17ebc870c5537b020891310c617fad2d22b5ac51d859ae43583c969441",
		"reserves": "484d4eaf51247fd2a4efd741a68cd86c9d6c9ace041c3c1d991ce73330a0c8e5",
		"rm":       "d375a41a824a68645a934957bcb96aaef19f95302afd174c044b361d082a04f2",
		"rr":       "072dc22bce9e94e70202a2871fc38e95509e663d7c9a9cf1c6e9b1db0085754d",
		"sfq":      "8eab7bc720b8ac57a926f72dc43d5d6d6a3f004e2362e26333573a34a53b76b5",
		"stride":   "9dfdbbd2e66a9312ab19cf52da244e7b2d9db3f8269ff67cb90a43aef78a5528",
		"svr4":     "4600d7402ad811881932e3e85d7ef9bda58a1a349a364d195173515e4acf8c11",
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

		if i := random(true); i >= 0 && rng.Intn(12) == 0 {
			s.Remove(threads[i], now)
			runnable[i] = false
			fmt.Fprintf(h, "remove %d len %d\n", threads[i].ID, s.Len())
		}
		now += sim.Time(rng.Intn(3)) * sim.Millisecond
	}
	return hex.EncodeToString(h.Sum(nil)), multiMoves, agings
}
