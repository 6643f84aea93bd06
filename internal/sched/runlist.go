package sched

import (
	"fmt"

	"hsfq/internal/sim"
)

// This file provides runList, the intrusive FIFO under every leaf whose
// runnable threads wait in arrival order: the one queue of rr, fifo,
// lottery and drr, each level of mlfq, each priority of svr4 and reserves'
// background band. It is to those queues what sim.TagHeap is to the
// ordered ones, and threadQueue, below, is to rr, fifo and lottery what
// tagQueue (tagqueue.go) is to the ordered leaves. An owner embeds a link
// whose Item points back at the owner, so queueing at either end and
// removal from the middle take O(1) and allocate nothing, and a walk from
// Front visits the queue in order.

// link is one element of a runList. The zero link is not queued.
type link[T any] struct {
	next, prev *link[T]
	queued     bool
	Item       T
}

// Queued reports whether x is in a list.
func (x *link[T]) Queued() bool { return x.queued }

// Next returns the element behind x in its list, or nil at the back.
func (x *link[T]) Next() *link[T] { return x.next }

// runList is a doubly-linked FIFO of links. The zero value is an empty
// list ready for use. A link may be in at most one list at a time.
type runList[T any] struct {
	head, tail *link[T]
	n          int
}

// Len returns the number of queued elements.
func (l *runList[T]) Len() int { return l.n }

// Front returns the first element, or nil if the list is empty.
func (l *runList[T]) Front() *link[T] { return l.head }

// PushBack queues x, which must not be queued, at the back.
func (l *runList[T]) PushBack(x *link[T]) {
	x.prev, x.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = x
	} else {
		l.head = x
	}
	l.tail = x
	x.queued = true
	l.n++
}

// PushFront queues x, which must not be queued, at the front.
func (l *runList[T]) PushFront(x *link[T]) {
	x.prev, x.next = nil, l.head
	if l.head != nil {
		l.head.prev = x
	} else {
		l.tail = x
	}
	l.head = x
	x.queued = true
	l.n++
}

// Remove takes x, which must be queued in l, out of l.
func (l *runList[T]) Remove(x *link[T]) {
	if x.prev != nil {
		x.prev.next = x.next
	} else {
		l.head = x.next
	}
	if x.next != nil {
		x.next.prev = x.prev
	} else {
		l.tail = x.prev
	}
	x.next, x.prev = nil, nil
	x.queued = false
	l.n--
}

// threadQueue is the run queue of the leaves that keep no per-thread
// state of their own, rr, fifo and lottery: a runList of threads whose
// links live in a Table, so finding a thread's place is one lookup, not a
// scan. It carries those leaves' Enqueue, Len and checkpoint codec; who
// names the leaf in panics and errors.
type threadQueue struct {
	who   string
	list  runList[*Thread]
	links Table[*link[*Thread]]
}

// linkFor returns t's link, creating it on first contact.
func (q *threadQueue) linkFor(t *Thread) *link[*Thread] {
	x := q.links.Get(t)
	if x == nil {
		x = &link[*Thread]{Item: t}
		q.links.Put(t, x)
	}
	return x
}

// Enqueue implements Scheduler: the back of the queue.
func (q *threadQueue) Enqueue(t *Thread, now sim.Time) {
	x := q.linkFor(t)
	if x.Queued() {
		panic(fmt.Sprintf("%s: Enqueue of runnable thread %v", q.who, t))
	}
	q.list.PushBack(x)
}

// Len implements Scheduler.
func (q *threadQueue) Len() int { return q.list.Len() }

// queued reports whether t is in the queue.
func (q *threadQueue) queued(t *Thread) bool {
	x := q.links.Get(t)
	return x != nil && x.Queued()
}

// head returns the thread at the front of the queue, or nil.
func (q *threadQueue) head() *Thread {
	if x := q.list.Front(); x != nil {
		return x.Item
	}
	return nil
}

// front returns the link at the front of the queue, which must be t's:
// rr and fifo pick the front thread, so only it may be charged.
func (q *threadQueue) front(t *Thread) *link[*Thread] {
	x := q.list.Front()
	if x == nil || x.Item != t {
		panic(fmt.Sprintf("%s: Charge of thread %v that was not picked", q.who, t))
	}
	return x
}
