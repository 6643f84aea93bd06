package sim

import (
	"fmt"
)

// Event is a scheduled callback. Events fire in increasing time order;
// events at the same instant fire in the order they were scheduled, which
// keeps the simulation deterministic.
//
// Event handles are pooled: once an event has fired or been cancelled the
// engine may recycle the Event value for a later At/After, so holders must
// drop their reference at that point. Cancelled is meaningful only until
// the handle's event is recycled.
type Event struct {
	At Time
	Fn func()
	// Core tags the event with the CPU core it concerns, for observability
	// on multicore machines (0 on a uniprocessor). It does not affect
	// ordering and is not part of the engine's checkpointed state; owners
	// re-set it when re-arming restored events.
	Core int
	seq  uint64
	idx  int // queue position marker, -1 once popped or cancelled
}

// Cancelled reports whether the event has been removed from the queue
// (either by firing or by Engine.Cancel).
func (e *Event) Cancelled() bool { return e.idx == -1 }

// before reports whether e fires ahead of o: earlier time first, FIFO
// (ascending seq) at the same instant.
func (e *Event) before(o *Event) bool {
	return e.At < o.At || e.At == o.At && e.seq < o.seq
}

// eventHeap is the engine's pending-event queue: a binary min-heap
// ordered by (At, seq) in which every queued event's idx is its slot.
// Every simulated event passes through it, so it is Heap[T] written out
// for *Event: Heap[T] with a pointer type argument calls HeapLess and
// HeapIndex through the generic dictionary, indirectly and never
// inlined, where these sift loops compare and write idx inline. Because
// (At, seq) is a strict total order, the firing order does not depend on
// how the sifts arrange the rest of the array.
type eventHeap []*Event

// push queues ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the earliest event, setting its idx to -1.
func (h *eventHeap) pop() *Event {
	top := (*h)[0]
	h.remove(top)
	return top
}

// remove detaches the queued event ev, setting its idx to -1: the last
// event fills ev's slot and sifts down, or up if it cannot move down.
func (h *eventHeap) remove(ev *Event) {
	q := *h
	i, n := ev.idx, len(q)-1
	last := q[n]
	q[n] = nil // release the reference; the pool may outlive the event
	*h = q[:n]
	if i != n && h.down(i, last) == i {
		h.up(i, last)
	}
	ev.idx = -1
}

// up places ev, which belongs at slot j or above, by moving the hole at
// j towards the root past every parent that ev fires ahead of.
func (h eventHeap) up(j int, ev *Event) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		p := h[i]
		if !ev.before(p) {
			break
		}
		h[j], p.idx = p, j
		j = i
	}
	h[j], ev.idx = ev, j
}

// down places ev, which belongs at slot i or below, by moving the hole at
// i towards the leaves past every smaller child that fires ahead of ev.
// It returns ev's final slot.
func (h eventHeap) down(i int, ev *Event) int {
	n := len(h)
	for {
		c := 2*i + 1 // left child; negative after int overflow
		if c >= n || c < 0 {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r // right child
		}
		child := h[c]
		if !child.before(ev) {
			break
		}
		h[i], child.idx = child, i
		i = c
	}
	h[i], ev.idx = ev, i
	return i
}

// Engine is the discrete-event simulation loop. Its pending events live
// in one binary min-heap (eventHeap) ordered by (At, Seq): strictly
// ascending time, and among events at the same instant, ascending
// sequence number. At panics on past times and AtSeq forbids reused
// sequence numbers, so that order is strict and the next event to fire
// is always unique. The zero value is not usable; create one with
// NewEngine.
type Engine struct {
	now    Time
	queue  eventHeap
	free   []*Event // fired/cancelled events awaiting reuse
	seq    uint64
	fired  uint64
	halted bool
}

// NewEngine returns an engine whose clock starts at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have executed, a cheap progress
// and determinism probe for tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Seq returns the next sequence number this engine will assign — the
// engine-side counter, not any event's own number (for that, see
// Event.Seq). Together with Now and Fired it is the engine's whole
// mutable state apart from the pending events themselves; checkpoints
// capture it so that restored runs hand out the same FIFO tie-break
// ordering the original run would have.
func (e *Engine) Seq() uint64 { return e.seq }

// Seq returns this event's already-assigned scheduling sequence number —
// the FIFO tie-break among events at the same instant, drawn from the
// engine counter Engine.Seq reports the next value of. Checkpoints
// record it per pending event so restores can re-arm events under their
// original numbers (Engine.AtSeq) and reproduce the exact pop order.
func (e *Event) Seq() uint64 { return e.seq }

// Reset discards every pending event (returning the handles to the pool)
// and forces the clock and counters, clearing any halt. It exists for
// checkpoint restore: a freshly built simulation carries the build's
// initial events, which Reset drops before the restored pending events are
// re-armed. Holders of outstanding event handles must drop them.
func (e *Engine) Reset(now Time, seq, fired uint64) {
	for len(e.queue) > 0 {
		e.release(e.queue.pop())
	}
	e.now, e.seq, e.fired, e.halted = now, seq, fired, false
}

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at the absolute time at. Scheduling in the past
// panics: it is always a simulation bug, never recoverable input error.
// The returned handle is valid until the event fires or is cancelled,
// after which the engine recycles it.
func (e *Engine) At(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fn, ev.Core, ev.seq = at, fn, 0, e.seq
	} else {
		ev = &Event{At: at, Fn: fn, seq: e.seq, idx: -1}
	}
	e.seq++
	e.queue.push(ev)
	return ev
}

// AtSeq schedules fn at the absolute time at under an explicit sequence
// number. It exists for checkpoint restore: re-arming pending events with
// their original seqs makes the restored engine indistinguishable from
// the saved one, so save→restore→save is a byte-level fixed point. The
// caller must pass seqs below the engine's next counter (Reset to the
// saved value first) and must not reuse a seq; restore code validates
// both before calling.
func (e *Engine) AtSeq(at Time, seq uint64, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", at, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: re-armed event seq %d not below engine seq %d", seq, e.seq))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fn, ev.Core, ev.seq = at, fn, 0, seq
	} else {
		ev = &Event{At: at, Fn: fn, seq: seq, idx: -1}
	}
	e.queue.push(ev)
	return ev
}

// After schedules fn to run delta after the current time.
func (e *Engine) After(delta Time, fn func()) *Event {
	return e.At(e.now+delta, fn)
}

// Cancel removes ev from the queue if it has not fired. It is safe to call
// on an already-fired or already-cancelled event only while the holder has
// not released the handle to a new At/After (see Event).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.idx == -1 {
		return
	}
	e.queue.remove(ev)
	e.release(ev)
}

// release returns a detached event to the pool.
func (e *Engine) release(ev *Event) {
	ev.Fn = nil // free the closure for collection while pooled
	e.free = append(e.free, ev)
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire(e.queue.pop())
	return true
}

// fire executes one popped event and recycles its handle.
func (e *Engine) fire(ev *Event) {
	e.now = ev.At
	e.fired++
	fn := ev.Fn
	fn()
	// Recycle only after the callback: the handle stays stable while its
	// own callback runs, so holders can clear their reference inside it.
	e.release(ev)
}

// Run executes events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && len(e.queue) > 0 {
		e.fire(e.queue.pop())
	}
}

// RunUntil executes events with At <= deadline, then advances the clock to
// the deadline (even if no event lies exactly there). Events scheduled at
// the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && len(e.queue) > 0 && e.queue[0].At <= deadline {
		e.fire(e.queue.pop())
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }
