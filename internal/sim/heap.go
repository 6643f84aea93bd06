package sim

// This file provides the intrusive min-heap behind the runnable child
// heaps of the hierarchy (internal/core) and the heap-based leaf
// schedulers (internal/sched). It replaces container/heap, whose
// interface-typed Push/Pop box every element into an `any`; here elements
// carry their own index, so a steady-state push/pop/fix cycle performs no
// allocation at all. Comparisons are not direct calls, though: every
// pointer type argument shares one GC shape (go.shape.*uint8 in
// profiles), so HeapLess and HeapIndex are called through the generic
// dictionary, indirectly and never inlined. The simulation event queue,
// which every event passes through, therefore has its own concrete heap
// (eventHeap in events.go).
//
// The sift-up/sift-down algorithm is the same as container/heap's, and
// because HeapLess is required to be a strict total order (keys tie-broken
// by a monotone sequence number), the minimum element — the only element
// scheduling decisions observe — is identical no matter how the rest of
// the array is arranged. Schedules are therefore bit-for-bit those of the
// container/heap implementation this replaced; TestHeapMatchesContainerHeap
// pins that equivalence.

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
