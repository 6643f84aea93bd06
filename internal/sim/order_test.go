package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// This file pins the engine's ordering contract against op scripts that
// exercise the whole Engine surface the simulator uses (At, After, AtSeq,
// Cancel, Step, Run, RunUntil), including callbacks that schedule while
// firing. After every op the harness checks the contract itself:
//
//   - events fire in strictly ascending (At, Seq) order;
//   - a cancelled event never fires;
//   - every other scheduled event fires exactly once;
//   - Pending equals the number of live events;
//   - the queue is a well-formed heap: each event's idx is its slot, and
//     none orders before its parent.

// orderHarness drives one engine and checks each firing against the
// contract as it happens.
type orderHarness struct {
	t       testing.TB
	eng     *Engine
	live    map[int]*Event // tag -> handle, for events not yet fired or cancelled
	done    map[int]string // tag -> "fired" or "cancelled"
	next    int            // next tag to assign
	fires   int
	lastAt  Time
	lastSeq uint64
}

func newOrderHarness(t testing.TB) *orderHarness {
	return &orderHarness{t: t, eng: NewEngine(), live: map[int]*Event{}, done: map[int]string{}}
}

// schedule arms one event at the given time under a fresh tag. then,
// when non-nil, runs inside the event's callback after the checks.
func (h *orderHarness) schedule(at Time, then func()) {
	tag := h.next
	h.next++
	h.live[tag] = h.eng.At(at, func() {
		h.fire(tag)
		if then != nil {
			then()
		}
	})
}

// restore re-arms one event under an explicit sequence number, the way a
// checkpoint restore does.
func (h *orderHarness) restore(at Time, seq uint64) {
	tag := h.next
	h.next++
	h.live[tag] = h.eng.AtSeq(at, seq, func() { h.fire(tag) })
}

// fire checks one firing against the contract. It reads the handle's Seq
// inside the callback, where the handle is still valid.
func (h *orderHarness) fire(tag int) {
	h.t.Helper()
	ev, ok := h.live[tag]
	if !ok {
		h.t.Fatalf("event %d fired after it was %s", tag, h.done[tag])
	}
	at, seq := h.eng.Now(), ev.Seq()
	if ev.At != at {
		h.t.Fatalf("event %d scheduled at %v fired at %v", tag, ev.At, at)
	}
	if h.fires > 0 && (at < h.lastAt || at == h.lastAt && seq <= h.lastSeq) {
		h.t.Fatalf("event %d fired at (%v, seq %d) after (%v, seq %d)", tag, at, seq, h.lastAt, h.lastSeq)
	}
	h.fires++
	h.lastAt, h.lastSeq = at, seq
	delete(h.live, tag)
	h.done[tag] = "fired"
}

// cancel removes the event with the given tag if it is still pending.
func (h *orderHarness) cancel(tag int) {
	if ev, ok := h.live[tag]; ok {
		h.eng.Cancel(ev)
		delete(h.live, tag)
		h.done[tag] = "cancelled"
	}
}

// liveTags returns the pending tags in scheduling order.
func (h *orderHarness) liveTags() []int {
	tags := make([]int, 0, len(h.live))
	for tag := range h.live {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	return tags
}

// checkPending fails unless the engine's queue holds exactly the live
// events and is a well-formed heap: every queued event's idx is its slot,
// and none orders before its parent under (At, seq).
func (h *orderHarness) checkPending(ctx string) {
	h.t.Helper()
	if got := h.eng.Pending(); got != len(h.live) {
		h.t.Fatalf("%s: Pending() = %d, want %d live events", ctx, got, len(h.live))
	}
	q := h.eng.queue
	for i, ev := range q {
		if ev.idx != i {
			h.t.Fatalf("%s: event in slot %d has idx %d", ctx, i, ev.idx)
		}
		if p := q[(i-1)/2]; i > 0 && ev.before(p) {
			h.t.Fatalf("%s: slot %d (%v, seq %d) orders before its parent (%v, seq %d)", ctx, i, ev.At, ev.seq, p.At, p.seq)
		}
	}
}

// drain runs the engine dry and checks that every event still live has
// fired.
func (h *orderHarness) drain(ctx string) {
	h.t.Helper()
	h.eng.Run()
	h.checkPending(ctx)
	if len(h.live) != 0 {
		h.t.Fatalf("%s: %d scheduled events never fired: %v", ctx, len(h.live), h.liveTags())
	}
}

// TestEngineOrderContract replays seeded random op scripts: schedules at
// mixed horizons (same-instant bursts through far-future events),
// interleaved cancels, and stepped and deadline-bounded dispatch, with
// callbacks themselves scheduling follow-on work.
func TestEngineOrderContract(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newOrderHarness(t)

		for round := 0; round < 300; round++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // one event at a mixed horizon
				var delta Time
				switch rng.Intn(4) {
				case 0:
					delta = 0
				case 1:
					delta = Time(rng.Intn(100))
				case 2:
					delta = Time(rng.Intn(1_000_000))
				default:
					delta = Time(rng.Int63n(int64(1) << uint(20+rng.Intn(25))))
				}
				h.schedule(h.eng.Now()+delta, nil)
			case 3: // same-instant burst
				at := h.eng.Now() + Time(rng.Intn(50_000))
				for j := 2 + rng.Intn(6); j > 0; j-- {
					h.schedule(at, nil)
				}
			case 4: // self-rescheduling event: each hop schedules the next
				delta := Time(rng.Intn(200_000))
				hops := 1 + rng.Intn(3)
				var arm func(at Time, hop int)
				arm = func(at Time, hop int) {
					h.schedule(at, func() {
						if hop < hops {
							arm(h.eng.Now()+delta/2+1, hop+1)
						}
					})
				}
				arm(h.eng.Now()+delta, 0)
			case 5, 6: // cancel a tag at or above the oldest pending one
				tags := h.liveTags()
				if len(tags) == 0 {
					continue
				}
				h.cancel(tags[0] + rng.Intn(h.next-tags[0]))
			case 7, 8: // step a few events
				for j := 1 + rng.Intn(4); j > 0; j-- {
					h.eng.Step()
				}
			default: // run to a deadline
				h.eng.RunUntil(h.eng.Now() + Time(rng.Intn(500_000)))
			}
			h.checkPending("round")
		}
		h.drain("final run")
		if h.eng.Fired() != uint64(h.fires) {
			t.Fatalf("seed %d: engine counted %d firings, harness saw %d", seed, h.eng.Fired(), h.fires)
		}
	}
}

// TestEngineOrderContractRestore pins the checkpoint-restore pattern:
// Reset to a forced clock and seq counter, re-arm a pending set through
// AtSeq under explicit (shuffled, same-instant-heavy) sequence numbers,
// cancel a few, and require the survivors to fire in (At, Seq) order.
func TestEngineOrderContractRestore(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		h := newOrderHarness(t)

		// A synthetic checkpoint: n pending events at few distinct instants
		// (forcing same-instant seq ordering) under shuffled original seqs.
		n := 5 + rng.Intn(60)
		base := Time(rng.Int63n(1_000_000_000))
		instants := make([]Time, 1+rng.Intn(8))
		for i := range instants {
			instants[i] = base + Time(rng.Int63n(int64(1)<<uint(10+rng.Intn(30))))
		}
		h.eng.Reset(base, uint64(n), 0)
		for _, seq := range rng.Perm(n) {
			h.restore(instants[rng.Intn(len(instants))], uint64(seq))
		}
		h.checkPending("restore")
		for _, tag := range h.liveTags() {
			if rng.Intn(8) == 0 {
				h.cancel(tag)
			}
		}
		h.checkPending("cancel")
		h.drain("restored run")
	}
}

// FuzzEngineOrder interprets arbitrary bytes as an op script driven
// through one engine under the contract checks. Each op is two bytes: an
// opcode selector and an argument.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 2, 0, 0})                     // twin instants, step
	f.Add([]byte{0, 200, 1, 3, 3, 1, 2, 8})                     // far push, burst, cancel, steps
	f.Add([]byte{1, 9, 1, 9, 4, 50, 2, 40})                     // bursts, run-until, drain
	f.Add([]byte{0, 255, 0, 1, 0, 0, 3, 0, 3, 1, 2, 9, 4, 255}) // cancel-heavy
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOrderHarness(t)
		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p], int64(data[p+1])
			switch op % 5 {
			case 0: // schedule at a spread-out horizon (arg scales the span)
				h.schedule(h.eng.Now()+Time(arg*arg*arg), nil)
			case 1: // same-instant burst of arg%7+2 events
				at := h.eng.Now() + Time(arg*17)
				for j := int64(0); j < arg%7+2; j++ {
					h.schedule(at, nil)
				}
			case 2: // step up to arg%5+1 events
				for j := int64(0); j < arg%5+1; j++ {
					h.eng.Step()
				}
			case 3: // cancel the (arg mod len)-th pending event
				if tags := h.liveTags(); len(tags) > 0 {
					h.cancel(tags[int(arg)%len(tags)])
				}
			case 4: // dispatch to a deadline
				h.eng.RunUntil(h.eng.Now() + Time(arg*1000))
			}
			h.checkPending("op")
		}
		h.drain("final run")
	})
}
