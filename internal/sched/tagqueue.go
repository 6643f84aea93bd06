package sched

import (
	"cmp"
	"fmt"

	"hsfq/internal/sim"
)

// tagQueue is the run queue of the leaves that order their runnable
// threads by a tag, sfq, stride, eevdf, edf, rm and priority: what
// threadQueue is to the FIFO leaves. It holds one Table of entries, one
// sim.TagHeap of the runnable ones and the counter that stamps Seq, so
// equal tags pop FIFO. It carries those leaves' entry creation, the
// runnable check of Enqueue, Len, Forget, the smaller-tag preemption rule
// and the checkpoint rows (state.go); each leaf sets the Tag in its
// Enqueue and Charge and keeps any other per-thread state in its entries'
// x.
//
// Each Charge looks its entry up and calls the heap itself: a shared
// lookup helper, with its panic, would not inline and would add a call
// to every decision. push, requeue and head do inline (go build
// -gcflags=-m=2 reports push and requeue at cost 76 of 80). The panics
// and load errors name the leaf through a who argument, not a field: one
// more field would move SFQ from the 128-byte into the 144-byte size
// class, paid for every sfq leaf a simulation builds.
type tagQueue[K cmp.Ordered, X any] struct {
	entries Table[*tagEntry[K, X]]
	heap    sim.TagHeap[K, *tagEntry[K, X]]
	seq     uint64
}

// tagEntry is one thread's place in a tagQueue. Tag is the leaf's key,
// Seq breaks ties FIFO among equal tags, and x is the leaf's own state.
// The entry is queued while the thread is runnable.
type tagEntry[K cmp.Ordered, X any] struct {
	sim.Tagged[K, *tagEntry[K, X]]
	x X // ahead of t, so an empty X adds no trailing padding
	t *Thread
}

// entryFor returns t's entry, creating it on first contact.
func (q *tagQueue[K, X]) entryFor(t *Thread) *tagEntry[K, X] {
	e := q.entries.Get(t)
	if e == nil {
		e = &tagEntry[K, X]{t: t}
		e.Item = e
		q.entries.Put(t, e)
	}
	return e
}

// admit returns the entry of t, which an Enqueue is making runnable, and
// panics if t already is. The leaf sets the Tag and then calls push. It
// looks t up itself and calls entryFor only to create, so a wake makes
// one call below Enqueue: the table lookup.
func (q *tagQueue[K, X]) admit(t *Thread, who string) *tagEntry[K, X] {
	e := q.entries.Get(t)
	if e == nil {
		return q.entryFor(t)
	}
	if e.Queued() {
		panic(fmt.Sprintf("%s: Enqueue of runnable thread %v", who, t))
	}
	return e
}

// push stamps e's Seq from the counter and queues it.
func (q *tagQueue[K, X]) push(e *tagEntry[K, X]) {
	e.Seq = q.seq
	q.seq++
	q.heap.Push(&e.Tagged)
}

// requeue stamps the queued e's Seq from the counter, which sends it
// behind every equal tag, and restores heap order after its Tag changed.
func (q *tagQueue[K, X]) requeue(e *tagEntry[K, X]) {
	e.Seq = q.seq
	q.seq++
	q.heap.Fix(&e.Tagged)
}

// head returns the runnable thread with the smallest (Tag, Seq), or nil.
// It indexes the slice whose length it checked: through Len and Min, a
// Pick that inlines it kept a bounds check and a stack frame.
func (q *tagQueue[K, X]) head() *Thread {
	items := q.heap.Items()
	if len(items) == 0 {
		return nil
	}
	return items[0].Item.t
}

// Len implements Scheduler.
func (q *tagQueue[K, X]) Len() int { return q.heap.Len() }

// preempts is the rule of the leaves whose wakeups preempt, edf, rm and
// priority: both threads runnable, and woken's tag smaller.
func (q *tagQueue[K, X]) preempts(running, woken *Thread) bool {
	re := q.entries.Get(running)
	we := q.entries.Get(woken)
	if re == nil || we == nil || !re.Queued() || !we.Queued() {
		return false
	}
	return we.Tag < re.Tag
}

// forget drops the entry of t, which must not be runnable.
func (q *tagQueue[K, X]) forget(t *Thread, who string) {
	if e := q.entries.Get(t); e != nil {
		if e.Queued() {
			panic(fmt.Sprintf("%s: Forget of runnable thread %v", who, t))
		}
		q.entries.Delete(t)
	}
}
