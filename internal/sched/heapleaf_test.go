package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsfq/internal/sim"
)

// The edf, rm, priority and reserves leaves queue their runnable threads
// on sim.TagHeap under encoded keys: a deadline, a 16-byte (period,
// priority) string, a complemented priority, and a replenishment instant
// tie-broken by a sign-flipped thread ID. TestHeapLeavesMatchReference
// holds each encoding to the comparator the leaf used before it, kept
// below as the reference.

// refEntry is one runnable thread as the reference sees it: the key its
// leaf read when the thread was last queued, and the sequence number that
// breaks ties.
type refEntry struct {
	t        *Thread
	deadline sim.Time // edf
	key      rmKey    // rm
	prio     int      // priority
	seq      uint64
}

// rmKey orders periodic threads by period (ascending) ahead of aperiodic
// threads by priority (descending).
type rmKey struct {
	period sim.Time // MaxInt64 for aperiodic
	prio   int
}

func (a rmKey) less(b rmKey) bool {
	if a.period != b.period {
		return a.period < b.period
	}
	return a.prio > b.prio
}

func rmKeyFor(t *Thread) rmKey {
	if t.Period > 0 {
		return rmKey{period: t.Period, prio: t.Priority}
	}
	return rmKey{period: sim.Time(math.MaxInt64), prio: t.Priority}
}

// edfBefore is EDF's reference order: earliest deadline first, FIFO among
// equal deadlines.
func edfBefore(e, o *refEntry) bool {
	if e.deadline != o.deadline {
		return e.deadline < o.deadline
	}
	return e.seq < o.seq
}

// rmBefore is RM's reference order: highest rate-monotonic priority
// first, FIFO among equal keys.
func rmBefore(e, o *refEntry) bool {
	if e.key != o.key {
		return e.key.less(o.key)
	}
	return e.seq < o.seq
}

// prioBefore is Priority's reference order: higher priority first, FIFO
// within a level.
func prioBefore(e, o *refEntry) bool {
	if e.prio != o.prio {
		return e.prio > o.prio
	}
	return e.seq < o.seq
}

// resBefore is Reserves' reference order within the reserved band:
// earliest replenishment first, ties by thread ID.
func resBefore(e, o *resEntry) bool {
	if e.Tag != o.Tag {
		return e.Tag < o.Tag
	}
	return e.t.ID < o.t.ID
}

// refQueue is the reference run queue of an edf, rm or priority leaf: it
// records each thread's key as the leaf reads it, and picks by linear
// scan.
type refQueue struct {
	kind    string
	entries map[*Thread]*refEntry
	seq     uint64
}

func (q *refQueue) enqueue(t *Thread, now sim.Time) {
	e := &refEntry{t: t, seq: q.seq}
	q.seq++
	switch q.kind {
	case "edf":
		if d := t.Deadline(); d > 0 {
			e.deadline = now + d
		} else {
			e.deadline = sim.Time(math.MaxInt64)
		}
	case "rm":
		e.key = rmKeyFor(t)
	case "priority":
		e.prio = t.Priority
	}
	q.entries[t] = e
}

func (q *refQueue) charge(t *Thread, runnable bool) {
	if !runnable {
		delete(q.entries, t)
		return
	}
	if q.kind == "priority" { // equal priorities round-robin
		q.entries[t].seq = q.seq
		q.seq++
	}
}

func (q *refQueue) before(e, o *refEntry) bool {
	switch q.kind {
	case "edf":
		return edfBefore(e, o)
	case "rm":
		return rmBefore(e, o)
	}
	return prioBefore(e, o)
}

func (q *refQueue) pick() *Thread {
	var min *refEntry
	for _, e := range q.entries {
		if min == nil || q.before(e, min) {
			min = e
		}
	}
	if min == nil {
		return nil
	}
	return min.t
}

func (q *refQueue) preempts(running, woken *Thread) bool {
	re, we := q.entries[running], q.entries[woken]
	if re == nil || we == nil {
		return false
	}
	switch q.kind {
	case "edf":
		return we.deadline < re.deadline
	case "rm":
		return we.key.less(re.key)
	}
	return we.prio > re.prio
}

// Key values at the edges of their types, drawn by the scripts below.
var (
	edgePriorities = []int{math.MinInt, math.MinInt + 1, -1, 0, 0, 1, 7, math.MaxInt - 1, math.MaxInt}
	// Periods repeat so equal periods meet different priorities; 0 makes
	// a thread aperiodic, and MaxInt64 ties a periodic thread with the
	// aperiodic ones.
	edgePeriods = []sim.Time{0, 0, 10 * sim.Millisecond, 10 * sim.Millisecond, 25 * sim.Millisecond, math.MaxInt64}
	// A relative deadline of MaxInt64 queued at time 0 gives a deadline
	// of MaxInt64, equal to a background thread's.
	edgeRelDeadlines = []sim.Time{0, 0, 5 * sim.Millisecond, math.MaxInt64}
	// Reserve-holder IDs: negative ones, and both ends of int short of
	// the checkpoint encoding's sentinels (math.MinInt bounds its row
	// keys, -1 means "no thread").
	edgeIDs = []int{math.MinInt + 1, -7, -2, 0, 3, 4, math.MaxInt - 1, math.MaxInt}
)

// TestHeapLeavesMatchReference drives each heap-ordered leaf with seeded
// scripts of Enqueue, Pick, Charge and Remove, with a save/restore into a
// fresh leaf now and then, and requires every Pick and every Preempts
// answer to match a linear scan of the runnable threads under the
// reference order. A thread's priority, period and relative deadline are
// redrawn from the edge values whenever it is not runnable, so rm sees
// its key change between enqueues. Reserves' Preempts compares budget
// bands, not keys, so only its Picks are checked.
func TestHeapLeavesMatchReference(t *testing.T) {
	for _, kind := range []string{"edf", "rm", "priority", "reserves"} {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				runHeapLeafScript(t, kind, seed)
			}
		})
	}
}

func newHeapLeaf(kind string) Scheduler {
	switch kind {
	case "edf":
		return NewEDF(DefaultQuantum)
	case "rm":
		return NewRM(DefaultQuantum)
	case "priority":
		return NewPriority(DefaultQuantum)
	}
	return NewReserves(DefaultQuantum)
}

func runHeapLeafScript(t *testing.T, kind string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	leaf := newHeapLeaf(kind)
	ref := &refQueue{kind: kind, entries: map[*Thread]*refEntry{}}
	var threads []*Thread
	byID := map[int]*Thread{}
	for i, id := range edgeIDs {
		if kind != "reserves" {
			id = i + 1
		}
		th := NewThread(id, fmt.Sprintf("t%d", i), 1)
		if kind == "reserves" && i%4 != 3 { // one in four stays background
			// Equal periods and a shared first enqueue instant make
			// equal replenishment instants.
			leaf.(*Reserves).SetReserve(th, Work(rng.Intn(3)+1)*300_000, 20*sim.Millisecond)
		}
		threads = append(threads, th)
		byID[id] = th
	}
	redraw := func(th *Thread) {
		th.Priority = edgePriorities[rng.Intn(len(edgePriorities))]
		th.Period = edgePeriods[rng.Intn(len(edgePeriods))]
		th.RelDeadline = edgeRelDeadlines[rng.Intn(len(edgeRelDeadlines))]
	}
	runnable := map[*Thread]bool{}
	var picked *Thread
	now := sim.Time(0)
	pick := func() {
		got := leaf.Pick(now)
		picked = got
		var want *Thread
		if kind == "reserves" {
			// Pick has promoted the refilled threads; the reserved band
			// is the queued entries, and only an empty band lets the
			// background band run.
			var min *resEntry
			for _, row := range leaf.(*Reserves).entries.Rows() {
				if e := row.E; e.Queued() && (min == nil || resBefore(e, min)) {
					min = e
				}
			}
			if min == nil {
				if got != nil && leaf.(*Reserves).entries.Get(got).Queued() {
					t.Fatalf("seed %d at %v: Pick %v from the reserved band, which is empty", seed, now, got)
				}
				return
			}
			want = min.t
		} else {
			want = ref.pick()
		}
		if got != want {
			t.Fatalf("seed %d at %v: Pick %v, reference %v", seed, now, got, want)
		}
	}
	checkPreempts := func(running, woken *Thread) {
		if kind == "reserves" {
			return
		}
		if got, want := leaf.Preempts(running, woken, now), ref.preempts(running, woken); got != want {
			t.Fatalf("seed %d at %v: Preempts(%v, %v) = %v, reference %v", seed, now, running, woken, got, want)
		}
	}
	anyRunnable := func() *Thread {
		var rs []*Thread
		for _, th := range threads {
			if runnable[th] {
				rs = append(rs, th)
			}
		}
		if len(rs) == 0 {
			return nil
		}
		return rs[rng.Intn(len(rs))]
	}

	for op := 0; op < 400; op++ {
		switch r := rng.Intn(20); {
		case r < 7: // wake a thread
			th := threads[rng.Intn(len(threads))]
			if runnable[th] {
				continue
			}
			redraw(th)
			leaf.Enqueue(th, now)
			ref.enqueue(th, now)
			runnable[th] = true
			if picked != nil {
				checkPreempts(picked, th)
			}
		case r < 11:
			pick()
		case r < 15: // end the picked thread's segment
			if picked == nil {
				pick()
				continue
			}
			stay := rng.Intn(3) != 0
			leaf.Charge(picked, Work(rng.Intn(600_000)), now, stay)
			ref.charge(picked, stay)
			runnable[picked] = stay
			picked = nil
		case r < 17: // dequeue a waiting thread, as a kill or a move does
			th := anyRunnable()
			if th == nil || th == picked {
				continue
			}
			leaf.Remove(th, now)
			ref.charge(th, false)
			runnable[th] = false
		case r < 19:
			if a, b := anyRunnable(), anyRunnable(); a != nil {
				checkPreempts(a, b)
			}
		default: // checkpoint the leaf and continue on a restored copy
			var enc sim.Enc
			if err := leaf.(Stater).SaveState(&enc); err != nil {
				t.Fatal(err)
			}
			restored := newHeapLeaf(kind)
			d := sim.NewDec(enc.Bytes())
			if err := restored.(Stater).LoadState(d, func(id int) *Thread { return byID[id] }); err != nil {
				t.Fatalf("seed %d at %v: restore: %v", seed, now, err)
			}
			leaf = restored
		}
		now += sim.Time(rng.Intn(4)) * sim.Millisecond
	}
}
