package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"hsfq/internal/sim"
)

// stateHarness builds one scheduler of each kind plus the thread set it
// schedules, so the round-trip test can rebuild an identical fresh
// instance for the restore side.
type stateHarness struct {
	name  string
	build func() (Scheduler, []*Thread)
}

// harnessThreads returns the three threads every harness schedules.
func harnessThreads() []*Thread {
	a := NewThread(1, "a", 1)
	b := NewThread(2, "b", 2)
	c := NewThread(3, "c", 4)
	c.Priority = 7
	b.Priority = 3
	a.Period, a.RelDeadline = 30*sim.Millisecond, 30*sim.Millisecond
	b.Period, b.RelDeadline = 50*sim.Millisecond, 40*sim.Millisecond
	return []*Thread{a, b, c}
}

// harnessNamed returns the stateHarnesses entry of the named leaf.
func harnessNamed(name string) stateHarness {
	for _, h := range stateHarnesses() {
		if h.name == name {
			return h
		}
	}
	panic("no state harness " + name)
}

func stateHarnesses() []stateHarness {
	return []stateHarness{
		{"sfq", func() (Scheduler, []*Thread) {
			ts := harnessThreads()
			s := NewSFQ(10 * sim.Millisecond)
			s.SetThreadQuantum(ts[1], 5*sim.Millisecond)
			return s, ts
		}},
		{"rr", func() (Scheduler, []*Thread) { return NewRoundRobin(10 * sim.Millisecond), harnessThreads() }},
		{"fifo", func() (Scheduler, []*Thread) { return NewFIFO(), harnessThreads() }},
		{"priority", func() (Scheduler, []*Thread) { return NewPriority(10 * sim.Millisecond), harnessThreads() }},
		{"edf", func() (Scheduler, []*Thread) { return NewEDF(10 * sim.Millisecond), harnessThreads() }},
		{"rm", func() (Scheduler, []*Thread) { return NewRM(10 * sim.Millisecond), harnessThreads() }},
		{"svr4", func() (Scheduler, []*Thread) {
			ts := harnessThreads()
			s := NewSVR4(nil, 100_000_000, 25*sim.Millisecond)
			s.SetRealTime(ts[2], 10)
			return s, ts
		}},
		{"lottery", func() (Scheduler, []*Thread) {
			return NewLottery(10*sim.Millisecond, sim.NewRand(42)), harnessThreads()
		}},
		{"stride", func() (Scheduler, []*Thread) { return NewStride(10 * sim.Millisecond), harnessThreads() }},
		{"eevdf", func() (Scheduler, []*Thread) {
			return NewEEVDF(10*sim.Millisecond, 1_000_000), harnessThreads()
		}},
		{"reserves", func() (Scheduler, []*Thread) {
			ts := harnessThreads()
			s := NewReserves(10 * sim.Millisecond)
			s.SetReserve(ts[0], 500_000, 30*sim.Millisecond)
			return s, ts
		}},
		{"mlfq", func() (Scheduler, []*Thread) {
			return NewMLFQ(4, 5*sim.Millisecond, 100*sim.Millisecond, 100_000_000), harnessThreads()
		}},
		{"drr", func() (Scheduler, []*Thread) {
			return NewDRR(5*sim.Millisecond, 100_000_000), harnessThreads()
		}},
	}
}

// driveStep performs one deterministic Pick/Charge cycle and returns the
// picked thread's ID, or -1 if the scheduler is empty. Work charged and
// the occasional block/re-enqueue vary with the step counter so tags,
// budgets, queue rotations, and feedback tables all move.
func driveStep(s Scheduler, threads []*Thread, step int, now *sim.Time) int {
	t := s.Pick(*now)
	if t == nil {
		// Everyone asleep: wake all blocked threads.
		for _, w := range threads {
			if w.State == StateBlocked {
				w.State = StateRunnable
				w.WokeAt = *now
				s.Enqueue(w, *now)
			}
		}
		return -1
	}
	used := Work(200_000 + 70_000*(step%5))
	*now += sim.Time(step%3+1) * sim.Millisecond
	blocks := step%7 == 3
	if blocks {
		t.State = StateBlocked
	}
	t.Segments++
	s.Charge(t, used, *now, !blocks)
	// Re-enqueue one blocked thread every few steps, as a wakeup would.
	if step%7 == 5 {
		for _, w := range threads {
			if w.State == StateBlocked {
				w.State = StateRunnable
				w.WokeAt = *now
				s.Enqueue(w, *now)
				break
			}
		}
	}
	return t.ID
}

// TestStateRoundTripContinuesIdentically drives each scheduler for a
// while, snapshots it mid-run, restores into a freshly built instance
// with fresh threads, and checks both continuations pick the identical
// thread sequence — the sched-layer half of resume equivalence. It also
// pins encoding canonicality: saving twice yields identical bytes.
func TestStateRoundTripContinuesIdentically(t *testing.T) {
	const warm, tail = 37, 80
	for _, h := range stateHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			s1, ts1 := h.build()
			now1 := sim.Time(0)
			for _, th := range ts1 {
				th.State = StateRunnable
				s1.Enqueue(th, now1)
			}
			for i := 0; i < warm; i++ {
				driveStep(s1, ts1, i, &now1)
			}

			var e sim.Enc
			st1 := s1.(Stater)
			if err := st1.SaveState(&e); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			snap := append([]byte(nil), e.Bytes()...)
			e.Reset()
			if err := st1.SaveState(&e); err != nil {
				t.Fatalf("second SaveState: %v", err)
			}
			if !bytes.Equal(snap, e.Bytes()) {
				t.Fatalf("SaveState is not canonical: two saves differ")
			}

			s2, ts2 := h.build()
			byID := map[int]*Thread{}
			for _, th := range ts2 {
				byID[th.ID] = th
			}
			// Thread-level fields the machine normally restores.
			for i, th := range ts2 {
				th.State = ts1[i].State
				th.Segments = ts1[i].Segments
				th.WokeAt = ts1[i].WokeAt
			}
			resolve := func(id int) *Thread { return byID[id] }
			if err := s2.(Stater).LoadState(sim.NewDec(snap), resolve); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if s1.Len() != s2.Len() {
				t.Fatalf("Len after restore = %d, want %d", s2.Len(), s1.Len())
			}

			now2 := now1
			for i := warm; i < warm+tail; i++ {
				got1 := driveStep(s1, ts1, i, &now1)
				got2 := driveStep(s2, ts2, i, &now2)
				if got1 != got2 {
					t.Fatalf("step %d: restored scheduler picked %d, original picked %d", i, got2, got1)
				}
			}
		})
	}
}

// TestLoadStateRejectsHostileInput checks that corrupt checkpoints fail
// with errors rather than panics or silent corruption.
func TestLoadStateRejectsHostileInput(t *testing.T) {
	for _, h := range stateHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			s1, ts1 := h.build()
			now := sim.Time(0)
			for _, th := range ts1 {
				th.State = StateRunnable
				s1.Enqueue(th, now)
			}
			for i := 0; i < 20; i++ {
				driveStep(s1, ts1, i, &now)
			}
			var e sim.Enc
			if err := s1.(Stater).SaveState(&e); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			snap := e.Bytes()

			fresh := func() (Stater, func(id int) *Thread) {
				s2, ts2 := h.build()
				byID := map[int]*Thread{}
				for _, th := range ts2 {
					byID[th.ID] = th
				}
				return s2.(Stater), func(id int) *Thread { return byID[id] }
			}

			// Truncations at every byte boundary must error, never panic.
			for cut := 0; cut < len(snap); cut += 7 {
				s2, resolve := fresh()
				if err := s2.LoadState(sim.NewDec(snap[:cut]), resolve); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			// Bit flips must either decode to the same scheduler or error;
			// they must never panic. (Many flips only touch float tags and
			// decode fine — that is acceptable.)
			for pos := 0; pos < len(snap); pos += 11 {
				mut := append([]byte(nil), snap...)
				mut[pos] ^= 0x80
				s2, resolve := fresh()
				_ = s2.LoadState(sim.NewDec(mut), resolve)
			}
		})
	}
}

// TestEEVDFLoadRejectsServedOutsideRequest: a request's progress lies in
// [0, reqWork) in every reachable state. A checkpoint carrying more once
// loaded, and the next Charge then issued one request per reqWork of it
// in a loop.
func TestEEVDFLoadRejectsServedOutsideRequest(t *testing.T) {
	h := harnessNamed("eevdf")
	s1, ts1 := h.build()
	now := sim.Time(0)
	for _, th := range ts1 {
		th.State = StateRunnable
		s1.Enqueue(th, now)
	}
	for i := 0; i < 5; i++ {
		driveStep(s1, ts1, i, &now)
	}
	var e sim.Enc
	if err := s1.(Stater).SaveState(&e); err != nil {
		t.Fatal(err)
	}
	// Header: vtime, total, seq, picked, row count; then per row: ID, ve,
	// vd, served, seq, queued.
	const served = 5*8 + 3*8
	for _, v := range []int64{-1, 1 << 38} {
		mut := append([]byte(nil), e.Bytes()...)
		if got := int64(binary.LittleEndian.Uint64(mut[served:])); got < 0 || got >= 1_000_000 {
			t.Fatalf("first row's served is %d: the layout moved", got)
		}
		binary.LittleEndian.PutUint64(mut[served:], uint64(v))
		s2, ts2 := h.build()
		resolve := func(id int) *Thread { return ts2[id-1] }
		if err := s2.(Stater).LoadState(sim.NewDec(mut), resolve); err == nil {
			t.Errorf("served %d accepted", v)
		}
	}
}

// TestLoadVerdictsPinned pins what LoadState accepts and what it restores.
// For each leaf it checkpoints a driven instance at several points, both
// between decisions and with a thread picked, then loads one-field
// mutants of each checkpoint into fresh instances: every 8-byte word
// overwritten with a few boundary values, every byte with 0, 1 and 2,
// and every pair of differing words below offset 200 swapped, which
// reorders rows. The resolver also knows a stranger, thread 4, that no
// checkpoint names. The digest hashes each verdict, with the re-saved
// bytes of every accepted load, so dropping or adding a load check
// changes it. Each pristine checkpoint is also loaded into an instance
// already holding the stranger as runnable, a load every leaf refuses.
func TestLoadVerdictsPinned(t *testing.T) {
	want := map[string]string{
		"sfq":           "946c8530219d28664fbd9b1d1a89fe96fb19749c80c8ae87c69428b876560ffb",
		"rr":            "6eb8f5aa32b7fd57cb4caadfa6112c8b99d19c337dd39740140b09482190c2af",
		"fifo":          "94736cb087e4dbf032c69bec857a94d83f3646cb56d3fb2a8d10136360048c6f",
		"priority":      "0b428ce3f00c15982f6e2c04cda2732cdc3428f7aad6d149bbedffef7fc27805",
		"edf":           "ec13d20ac59309b6da28674d0e413a6cea54b37b5d6c96e34a72e8b95cbeb147",
		"rm":            "f2047fc64fe4ec9658002a8aea9ee00e9dc4437fc8f1a64f29d64414b514da64",
		"svr4":          "db60511de601598c238f6b4e7c6ec988e1ef8332ff56d4072cb119221d51a5eb",
		"lottery":       "acf05bad0083cf9b474d5c664205c49e310ec2750edf3400525651e6db7f5d58",
		"stride":        "1722aeba0c600b736844b809c3baa73fe57491b3385ed4f19600d20be08d0503",
		"eevdf":         "eae22b65186630aa373f6e1146899a47c455eab45806c2f2491d4c63bacb49e3",
		"reserves":      "e20e143846da599f5ff00decedb70cac769a1fcb57b2c9dc7c8e81a990609fb4",
		"mlfq":          "686230ef723327d0c3f7bb2fd6e2067bd70af5576a88abf9fc5be73a426c0bef",
		"drr":           "9c5441deef06b875ed310a68118440246ba60e04eaa0fd3e28909b4a1cd19a3d",
		"sfq-donations": "f90e48357bf043240687480531c9b1228c8645379adb3b315dd96fcc01f706ae",
		"svr4-ts":       "410c282ca3aeefe4a99f73d6a25e260b3db71a07a9e807c81d62b0240c7c4095",
	}
	hs := append(stateHarnesses(),
		stateHarness{"sfq-donations", func() (Scheduler, []*Thread) {
			s, ts := harnessNamed("sfq").build()
			s.(*SFQ).Donate(ts[0], ts[1])
			s.(*SFQ).Donate(ts[2], ts[0])
			return s, ts
		}},
		// With no real-time thread to run first, TS threads block too,
		// so a mutated TS level reaches its range check.
		stateHarness{"svr4-ts", func() (Scheduler, []*Thread) {
			return NewSVR4(nil, 100_000_000, 25*sim.Millisecond), harnessThreads()
		}})
	for _, h := range hs {
		if got := loadVerdictDigest(t, h); got != want[h.name] {
			t.Errorf("%s: load verdict digest %s, pinned %s", h.name, got, want[h.name])
		}
	}
}

func loadVerdictDigest(t *testing.T, h stateHarness) string {
	words := []uint64{0, 1, 2, 3, 4, 99, 1<<64 - 1, 1 << 63}
	sum := sha256.New()
	var e sim.Enc
	load := func(snap []byte, stranger bool) {
		s, ts := h.build()
		extra := NewThread(4, "stranger", 1)
		if stranger {
			extra.State = StateRunnable
			s.Enqueue(extra, 0)
		}
		resolve := func(id int) *Thread {
			if id == extra.ID {
				return extra
			}
			for _, th := range ts {
				if th.ID == id {
					return th
				}
			}
			return nil
		}
		if err := s.(Stater).LoadState(sim.NewDec(snap), resolve); err != nil {
			sum.Write([]byte{0})
			return
		}
		e.Reset()
		if err := s.(Stater).SaveState(&e); err != nil {
			t.Fatalf("%s: re-save of an accepted load: %v", h.name, err)
		}
		sum.Write([]byte{1})
		sum.Write(e.Bytes())
	}
	for _, steps := range []int{0, 4, 13, 29, 50} {
		s, ts := h.build()
		now := sim.Time(0)
		for _, th := range ts {
			th.State = StateRunnable
			s.Enqueue(th, now)
		}
		for i := 0; i < steps; i++ {
			driveStep(s, ts, i, &now)
		}
		for _, picked := range []bool{false, true} {
			if picked {
				s.Pick(now)
			}
			e.Reset()
			if err := s.(Stater).SaveState(&e); err != nil {
				t.Fatalf("%s: SaveState: %v", h.name, err)
			}
			snap := append([]byte(nil), e.Bytes()...)
			mut := make([]byte, len(snap))
			for off := 0; off+8 <= len(snap); off++ {
				for _, w := range words {
					copy(mut, snap)
					binary.LittleEndian.PutUint64(mut[off:], w)
					load(mut, false)
				}
			}
			for off := range snap {
				for _, b := range []byte{0, 1, 2} {
					copy(mut, snap)
					mut[off] = b
					load(mut, false)
				}
			}
			for i := 0; i+8 <= min(len(snap), 200); i += 8 {
				for j := i + 8; j+8 <= min(len(snap), 200); j += 8 {
					if bytes.Equal(snap[i:i+8], snap[j:j+8]) {
						continue
					}
					copy(mut, snap)
					copy(mut[i:i+8], snap[j:j+8])
					copy(mut[j:j+8], snap[i:i+8])
					load(mut, false)
				}
			}
			load(snap, true)
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestLoadRowsRejectsMisresolvedID: each row's ID must resolve to a thread
// carrying that ID, or two rows could load into one thread's entry.
func TestLoadRowsRejectsMisresolvedID(t *testing.T) {
	ts := harnessThreads()
	var tb Table[int]
	for i, th := range ts {
		tb.Put(th, 10*i)
	}
	var e sim.Enc
	tb.SaveRows(&e, e.Int)
	load := func(resolve func(id int) *Thread) ([]int, error) {
		d := sim.NewDec(e.Bytes())
		var got []int
		err := LoadRows(d, "test", 16, resolve, func(th *Thread) error {
			got = append(got, th.ID, d.Int())
			return nil
		})
		return got, err
	}
	got, err := load(func(id int) *Thread { return ts[id-1] })
	if err != nil || !slices.Equal(got, []int{1, 0, 2, 10, 3, 20}) {
		t.Fatalf("LoadRows of SaveRows: rows %v, err %v", got, err)
	}
	if _, err := load(func(int) *Thread { return ts[0] }); err == nil {
		t.Fatal("LoadRows accepted IDs that all resolve to thread 1")
	}
}
