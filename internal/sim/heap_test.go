package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// hItem is a test heap element with the (key, seq) strict total order
// every scheduler in this repository uses. It can sit in a Heap, through
// idx, or in a TagHeap, through the embedded Tagged; either way Tag is its
// key.
type hItem struct {
	Tagged[*hItem]
	idx int
}

func newHItem(key float64, seq uint64) *hItem {
	it := &hItem{idx: -1}
	it.Tag, it.Seq, it.Item = key, seq, it
	return it
}

func (a *hItem) HeapLess(b *hItem) bool {
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	return a.Seq < b.Seq
}

func (a *hItem) HeapIndex() *int { return &a.idx }

// heapUnderTest is the surface the heap tests drive, so one script checks
// both Heap and TagHeap. TagHeap has no Pop; its Pop is Remove(Min()).
type heapUnderTest interface {
	Len() int
	Min() *hItem
	At(i int) *hItem   // the item in slot i
	Slot(x *hItem) int // x's slot, or -1 when not queued
	Push(x *hItem)
	Pop() *hItem
	Fix(x *hItem)
	Remove(x *hItem) *hItem
}

type genericHeap struct{ h Heap[*hItem] }

func (g *genericHeap) Len() int               { return g.h.Len() }
func (g *genericHeap) Min() *hItem            { return g.h.Min() }
func (g *genericHeap) At(i int) *hItem        { return g.h.Items()[i] }
func (g *genericHeap) Slot(x *hItem) int      { return x.idx }
func (g *genericHeap) Push(x *hItem)          { g.h.Push(x) }
func (g *genericHeap) Pop() *hItem            { return g.h.Pop() }
func (g *genericHeap) Fix(x *hItem)           { g.h.Fix(x.idx) }
func (g *genericHeap) Remove(x *hItem) *hItem { return g.h.Remove(x.idx) }

type tagHeap struct{ h TagHeap[*hItem] }

func (t *tagHeap) Len() int          { return t.h.Len() }
func (t *tagHeap) Min() *hItem       { return t.h.Min().Item }
func (t *tagHeap) At(i int) *hItem   { return t.h.Items()[i].Item }
func (t *tagHeap) Slot(x *hItem) int { return x.Slot() }
func (t *tagHeap) Push(x *hItem)     { t.h.Push(&x.Tagged) }
func (t *tagHeap) Pop() *hItem {
	m := t.h.Min()
	t.h.Remove(m)
	return m.Item
}
func (t *tagHeap) Fix(x *hItem) { t.h.Fix(&x.Tagged) }
func (t *tagHeap) Remove(x *hItem) *hItem {
	t.h.Remove(&x.Tagged)
	return x
}

// heapsUnderTest lists the heaps every heap test runs against.
var heapsUnderTest = []struct {
	name string
	mk   func() heapUnderTest
}{
	{"Heap", func() heapUnderTest { return &genericHeap{} }},
	{"TagHeap", func() heapUnderTest { return &tagHeap{} }},
}

// refHeap drives the same elements through container/heap as the oracle.
type refHeap []*refItem

type refItem struct {
	key float64
	seq uint64
	idx int
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refItem)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// TestHeapMatchesContainerHeap drives Heap and TagHeap, each in turn,
// and container/heap through the same random operation sequences — push,
// pop, fix (with key mutation), remove at a random index — and requires
// identical minima, lengths, and pop order throughout. Keys are drawn from
// a small set so seq tie-breaks are exercised constantly.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for _, hc := range heapsUnderTest {
		t.Run(hc.name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				matchContainerHeap(t, trial, hc.mk())
			}
		})
	}
}

func matchContainerHeap(t *testing.T, trial int, h heapUnderTest) {
	rng := rand.New(rand.NewSource(int64(trial)))
	var ref refHeap
	var hs []*hItem
	var rs []*refItem
	var seq uint64

	check := func(op string) {
		t.Helper()
		if h.Len() != ref.Len() {
			t.Fatalf("trial %d after %s: Len %d, oracle %d", trial, op, h.Len(), ref.Len())
		}
		if h.Len() > 0 {
			m, o := h.Min(), ref[0]
			if m.Tag != o.key || m.Seq != o.seq {
				t.Fatalf("trial %d after %s: Min (%v,%d), oracle (%v,%d)",
					trial, op, m.Tag, m.Seq, o.key, o.seq)
			}
		}
	}

	for op := 0; op < 300; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || h.Len() == 0: // push
			key := float64(rng.Intn(5))
			a := newHItem(key, seq)
			b := &refItem{key: key, seq: seq, idx: -1}
			seq++
			h.Push(a)
			heap.Push(&ref, b)
			hs = append(hs, a)
			rs = append(rs, b)
			check("push")
		case r < 6: // pop
			a := h.Pop()
			b := heap.Pop(&ref).(*refItem)
			if a.Tag != b.key || a.Seq != b.seq {
				t.Fatalf("trial %d: Pop (%v,%d), oracle (%v,%d)", trial, a.Tag, a.Seq, b.key, b.seq)
			}
			if i := h.Slot(a); i != -1 {
				t.Fatalf("trial %d: popped item keeps index %d", trial, i)
			}
			hs = drop(hs, a)
			rs = dropRef(rs, b)
			check("pop")
		case r < 8: // fix with key mutation, same element in both heaps
			i := rng.Intn(len(hs))
			a, b := hs[i], rs[i]
			key := float64(rng.Intn(5))
			newSeq := seq
			seq++
			a.Tag, a.Seq = key, newSeq
			b.key, b.seq = key, newSeq
			h.Fix(a)
			heap.Fix(&ref, b.idx)
			check("fix")
		default: // remove a random live element
			i := rng.Intn(len(hs))
			a, b := hs[i], rs[i]
			got := h.Remove(a)
			if got != a {
				t.Fatalf("trial %d: Remove returned wrong item", trial)
			}
			if i := h.Slot(a); i != -1 {
				t.Fatalf("trial %d: removed item keeps index %d", trial, i)
			}
			heap.Remove(&ref, b.idx)
			hs = drop(hs, a)
			rs = dropRef(rs, b)
			check("remove")
		}
		// Index integrity on every step.
		for i := 0; i < h.Len(); i++ {
			if j := h.Slot(h.At(i)); j != i {
				t.Fatalf("trial %d: item at %d has index %d", trial, i, j)
			}
		}
	}

	// Drain: pop order must match exactly, including all ties.
	for h.Len() > 0 {
		a := h.Pop()
		b := heap.Pop(&ref).(*refItem)
		if a.Tag != b.key || a.Seq != b.seq {
			t.Fatalf("trial %d drain: Pop (%v,%d), oracle (%v,%d)", trial, a.Tag, a.Seq, b.key, b.seq)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("trial %d: oracle retains %d items", trial, ref.Len())
	}
}

func drop(s []*hItem, x *hItem) []*hItem {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func dropRef(s []*refItem, x *refItem) []*refItem {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// TestHeapOperationsDoNotAllocate verifies the steady-state heap cycle is
// allocation-free once the backing array has grown, for both heaps.
func TestHeapOperationsDoNotAllocate(t *testing.T) {
	for _, hc := range heapsUnderTest {
		t.Run(hc.name, func(t *testing.T) {
			h := hc.mk()
			for i := 0; i < 64; i++ {
				h.Push(newHItem(float64(i%7), uint64(i)))
			}
			allocs := testing.AllocsPerRun(100, func() {
				it := h.Pop()
				it.Tag++
				h.Push(it)
				h.Fix(it)
				min := h.Min()
				h.Remove(min)
				h.Push(min)
			})
			if allocs != 0 {
				t.Fatalf("heap cycle allocates %v times per run, want 0", allocs)
			}
		})
	}
}

// TestEventPoolRecycles verifies fired and cancelled events are reused
// rather than reallocated, and that the pooled At/After path is
// allocation-free in steady state.
func TestEventPoolRecycles(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		eng.At(eng.Now(), fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev := eng.At(eng.Now()+1, fn)
		eng.Cancel(ev)
		eng.At(eng.Now()+1, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("pooled event scheduling allocates %v times per run, want 0", allocs)
	}
}
