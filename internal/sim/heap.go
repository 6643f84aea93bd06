package sim

// This file provides the two intrusive min-heaps behind the runnable sets
// of the hierarchy (internal/core) and the heap-based leaf schedulers
// (internal/sched). Both replace container/heap, whose interface-typed
// Push/Pop box every element into an `any`; here elements carry their own
// position, so a steady-state push/remove/fix cycle performs no
// allocation at all.
//
// TagHeap serves every order of the form (float64 tag, sequence number):
// the core.Node run queues and the SFQ leaf (start tag), Stride (pass)
// and EEVDF (virtual deadline). These sit on every scheduling decision.
// Its element is the concrete struct Tagged, so its sift loops compare
// tags and write slots inline, like the engine's eventHeap (events.go):
// it never calls a method of its type parameter, and its one shared
// instantiation (go.shape.*uint8 in profiles) makes no dictionary calls.
//
// Heap serves the orders that are not (float64, seq): EDF (an int64
// deadline), RM (a composite rate-monotonic key), Priority (descending
// priority) and Reserves (a thread-ID tie-break). Its comparisons are not
// direct calls: every pointer type argument shares one GC shape, so
// HeapLess and HeapIndex are called through the generic dictionary,
// indirectly and never inlined.
//
// Both sift with container/heap's algorithm, and because both orders are
// strict total orders (keys tie-broken by a monotone sequence number), the
// minimum element — the only element scheduling decisions observe — is
// identical no matter how the rest of the array is arranged. Schedules
// are therefore bit-for-bit those of the container/heap implementation
// these replaced; TestHeapMatchesContainerHeap pins that equivalence for
// both heaps.

// HeapItem constrains the element type of Heap. T is invariably a pointer
// to a struct that embeds its own heap-index field.
type HeapItem[T any] interface {
	// HeapLess reports whether the receiver must pop before other. It
	// must implement a strict total order: implementations compare their
	// priority key first and break exact ties on a monotonically
	// increasing sequence number, so equal keys pop FIFO and the heap
	// minimum is unique.
	HeapLess(other T) bool

	// HeapIndex returns a pointer to the field in which the heap keeps
	// the item's current position. The heap updates it on every move and
	// sets it to -1 when the item leaves the heap; items must initialize
	// it to -1 and never write it while queued.
	HeapIndex() *int
}

// Heap is an intrusive min-heap. The zero value is an empty heap ready
// for use. An item may be in at most one heap at a time (its index field
// admits only one position); this is exactly the ownership discipline the
// schedulers already maintain.
type Heap[T HeapItem[T]] struct {
	items []T
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Min returns the minimum item without removing it. It panics on an empty
// heap, like indexing a slice out of range.
func (h *Heap[T]) Min() T { return h.items[0] }

// Items exposes the underlying array for read-only scans (EEVDF's
// eligibility filter, invariant checkers). Callers must not reorder or
// mutate ordering keys through it.
func (h *Heap[T]) Items() []T { return h.items }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	*x.HeapIndex() = len(h.items)
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum item, setting its index to -1.
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.remove(n)
}

// Remove removes and returns the item at index i, setting its index to -1.
func (h *Heap[T]) Remove(i int) T {
	n := len(h.items) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	return h.remove(n)
}

// Fix restores heap order after the item at index i changed its key. It is
// equivalent to Remove followed by Push of the same item, but cheaper.
func (h *Heap[T]) Fix(i int) {
	if !h.down(i, len(h.items)) {
		h.up(i)
	}
}

// remove detaches the (already sifted-to-last) item at position n.
func (h *Heap[T]) remove(n int) T {
	x := h.items[n]
	var zero T
	h.items[n] = zero // release the reference; the pool may outlive the item
	h.items = h.items[:n]
	*x.HeapIndex() = -1
	return x
}

func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	*h.items[i].HeapIndex() = i
	*h.items[j].HeapIndex() = j
}

func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.items[j].HeapLess(h.items[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *Heap[T]) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.items[j2].HeapLess(h.items[j1]) {
			j = j2 // right child
		}
		if !h.items[j].HeapLess(h.items[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// Tagged is one element of a TagHeap. An owner holds a Tagged whose Item
// points back at the owner, and orders it by (Tag, Seq): smaller Tag
// first, and among equal tags smaller Seq. Owners stamp Seq from a
// monotonically increasing counter, so the order is strict and equal tags
// pop FIFO. The zero Tagged is not queued; an owner may change Tag and Seq
// while it is not queued, or while queued if it calls Fix right after.
type Tagged[T any] struct {
	Tag  float64
	Seq  uint64
	slot int // position in the heap plus one; 0 while not queued
	Item T
}

// Queued reports whether x is in a heap.
func (x *Tagged[T]) Queued() bool { return x.slot != 0 }

// Slot returns x's position in its heap's Items, or -1 if x is not
// queued.
func (x *Tagged[T]) Slot() int { return x.slot - 1 }

// Before reports whether x pops ahead of y.
func (x *Tagged[T]) Before(y *Tagged[T]) bool {
	return x.Tag < y.Tag || x.Tag == y.Tag && x.Seq < y.Seq
}

// TagHeap is an intrusive binary min-heap of Tagged elements ordered by
// (Tag, Seq). The zero value is an empty heap ready for use. An element
// may be in at most one heap at a time.
type TagHeap[T any] struct {
	items []*Tagged[T]
}

// Len returns the number of queued elements.
func (h *TagHeap[T]) Len() int { return len(h.items) }

// Min returns the minimum element without removing it. It panics on an
// empty heap, like indexing a slice out of range.
func (h *TagHeap[T]) Min() *Tagged[T] { return h.items[0] }

// Items exposes the underlying array for read-only scans (EEVDF's
// eligibility filter, invariant checkers). Callers must not reorder it or
// change a Tag or Seq through it.
func (h *TagHeap[T]) Items() []*Tagged[T] { return h.items }

// Push queues x, which must not be queued.
func (h *TagHeap[T]) Push(x *Tagged[T]) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

// Remove detaches the queued element x: the last element fills x's slot
// and sifts down, or up if it cannot move down.
func (h *TagHeap[T]) Remove(x *Tagged[T]) {
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
func (h *TagHeap[T]) Fix(x *Tagged[T]) {
	if i := x.slot - 1; h.down(i, x) == i {
		h.up(i, x)
	}
}

// up places x, which belongs at slot j or above, by moving the hole at j
// towards the root past every parent that x pops ahead of.
func (h *TagHeap[T]) up(j int, x *Tagged[T]) {
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
func (h *TagHeap[T]) down(i int, x *Tagged[T]) int {
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
