package sim

import "cmp"

// This file provides TagHeap, the intrusive min-heap behind every run
// queue a scheduling decision walks: the hierarchy's (internal/core),
// fairqueue's packet queues and every heap-ordered leaf scheduler
// (internal/sched). It replaces container/heap, whose interface-typed
// Push/Pop box every element into an `any`; here elements carry their own
// position, so a steady-state push/remove/fix cycle performs no
// allocation at all.
//
// Every such order has the form (tag, sequence number) for some ordered
// tag type: a float64 for the node and SFQ start tags, Stride's pass and
// EEVDF's virtual deadline; a Time for EDF's deadline and Reserves'
// replenishment instant; an int for Priority (the complement of the
// priority, so higher pops first); and a string for RM's (period,
// priority) key. The element is the concrete struct Tagged, so the sift
// loops compare tags and write slots inline, like the engine's eventHeap
// (events.go): they never call a method of the element's type parameter,
// and no instantiation (TagHeap[go.shape.float64,go.shape.*uint8] and the
// like in profiles) makes dictionary calls.
//
// The heap sifts with container/heap's algorithm, and because every order
// is a strict total order (no two queued elements share a (Tag, Seq)
// pair), the minimum element — the only element scheduling decisions
// observe — is identical no matter how the rest of the array is arranged.
// Schedules are therefore bit-for-bit those of the container/heap
// implementation this replaced; TestHeapMatchesContainerHeap pins that
// equivalence.
//
// This package has one other heap: the engine's eventHeap (events.go),
// which every simulated event passes through. It stays a concrete heap of
// *Event because a fold of the engine onto TagHeap[Time, *Event], even
// with a dedicated pop, read the benchmark's engine sim_ns_per_wall_ns
// lower at the median in both of two runs of 8 interleaved 12 s pairs:
// by 2.2% (lower in 7 of 8) and by 0.7% (lower in 5 of 8).

// Tagged is one element of a TagHeap. An owner holds a Tagged whose Item
// points back at the owner, and orders it by (Tag, Seq): smaller Tag
// first, and among equal tags smaller Seq. Owners stamp Seq so that no two
// queued elements tie: most from a monotonically increasing counter, so
// equal tags pop FIFO. The zero Tagged is not queued; an owner may change
// Tag and Seq while it is not queued, or while queued if it calls Fix
// right after.
type Tagged[K cmp.Ordered, T any] struct {
	Tag  K
	Seq  uint64
	slot int // position in the heap plus one; 0 while not queued
	Item T
}

// Queued reports whether x is in a heap.
func (x *Tagged[K, T]) Queued() bool { return x.slot != 0 }

// Slot returns x's position in its heap's Items, or -1 if x is not
// queued.
func (x *Tagged[K, T]) Slot() int { return x.slot - 1 }

// Before reports whether x pops ahead of y.
func (x *Tagged[K, T]) Before(y *Tagged[K, T]) bool {
	return x.Tag < y.Tag || x.Tag == y.Tag && x.Seq < y.Seq
}

// TagHeap is an intrusive binary min-heap of Tagged elements ordered by
// (Tag, Seq). The zero value is an empty heap ready for use. An element
// may be in at most one heap at a time.
type TagHeap[K cmp.Ordered, T any] struct {
	items []*Tagged[K, T]
}

// Len returns the number of queued elements.
func (h *TagHeap[K, T]) Len() int { return len(h.items) }

// Min returns the minimum element without removing it. It panics on an
// empty heap, like indexing a slice out of range.
func (h *TagHeap[K, T]) Min() *Tagged[K, T] { return h.items[0] }

// Items exposes the underlying array for read-only scans (EEVDF's
// eligibility filter, invariant checkers). Callers must not reorder it or
// change a Tag or Seq through it.
func (h *TagHeap[K, T]) Items() []*Tagged[K, T] { return h.items }

// Push queues x, which must not be queued.
func (h *TagHeap[K, T]) Push(x *Tagged[K, T]) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

// Remove detaches the queued element x: the last element fills x's slot
// and sifts down, or up if it cannot move down.
func (h *TagHeap[K, T]) Remove(x *Tagged[K, T]) {
	q := h.items
	i, n := x.slot-1, len(q)-1
	last := q[n]
	q[n] = nil // drop the stale pointer so a removed owner can be collected
	h.items = q[:n]
	if i != n && h.down(i, last) == i {
		h.up(i, last)
	}
	x.slot = 0
}

// Fix restores heap order after the queued element x changed its Tag or
// Seq. It is equivalent to Remove followed by Push of x, but cheaper.
func (h *TagHeap[K, T]) Fix(x *Tagged[K, T]) {
	if i := x.slot - 1; h.down(i, x) == i {
		h.up(i, x)
	}
}

// up places x, which belongs at slot j or above, by moving the hole at j
// towards the root past every parent that x pops ahead of.
func (h *TagHeap[K, T]) up(j int, x *Tagged[K, T]) {
	q := h.items
	for j > 0 {
		i := (j - 1) / 2 // parent
		p := q[i]
		if !x.Before(p) {
			break
		}
		q[j], p.slot = p, j+1
		j = i
	}
	q[j], x.slot = x, j+1
}

// down places x, which belongs at slot i or below, by moving the hole at i
// towards the leaves past every smaller child that pops ahead of x. It
// returns x's final slot.
func (h *TagHeap[K, T]) down(i int, x *Tagged[K, T]) int {
	q := h.items
	n := len(q)
	for {
		c := 2*i + 1 // left child; negative after int overflow
		if c >= n || c < 0 {
			break
		}
		if r := c + 1; r < n && q[r].Before(q[c]) {
			c = r // right child
		}
		child := q[c]
		if !child.Before(x) {
			break
		}
		q[i], child.slot = child, i+1
		i = c
	}
	q[i], x.slot = x, i+1
	return i
}
