package sched

import (
	"fmt"
	"slices"
)

// Table is one owner's per-thread state — a leaf's tags, a hierarchy's
// thread-to-leaf attachment, a machine's thread bookkeeping — held as
// (thread, entry) rows in ascending Thread.ID order. Ranging over Rows
// visits threads in ID order, the canonical checkpoint order, so no
// SaveState has to sort.
//
// Get is O(1) while the held IDs are contiguous, as they are wherever
// threads are numbered from a counter: t's row is at t.ID minus the first
// row's ID. Otherwise, e.g. a leaf holding every Nth thread of a larger
// numbering, Get binary-searches. Memory is proportional to the rows
// held, never to the ID span.
//
// A row belongs to its *Thread, not only to its ID: Get accepts a row
// only if it holds t itself, and Put panics when a different thread
// already holds t.ID.
//
// The zero Table is empty and ready to use.
type Table[E any] struct {
	rows []Row[E]
	base int // rows[0].T.ID, so the direct index costs no extra load
}

// Row is one thread's entry in a Table.
type Row[E any] struct {
	T *Thread
	E E
}

// find returns the index of the row holding id, or the index at which
// such a row would be inserted.
func (tb *Table[E]) find(id int) int {
	rows := tb.rows
	if i := id - tb.base; uint(i) < uint(len(rows)) && rows[i].T.ID == id {
		return i
	}
	lo, hi := 0, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rows[m].T.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Get returns t's entry, or the zero E if t holds no row.
func (tb *Table[E]) Get(t *Thread) E {
	if i := tb.find(t.ID); i < len(tb.rows) && tb.rows[i].T == t {
		return tb.rows[i].E
	}
	var zero E
	return zero
}

// Holder returns the thread holding id, or nil.
func (tb *Table[E]) Holder(id int) *Thread {
	if i := tb.find(id); i < len(tb.rows) && tb.rows[i].T.ID == id {
		return tb.rows[i].T
	}
	return nil
}

// Put sets t's entry, inserting its row in ID order if t holds none. It
// panics if a different thread already holds t.ID.
func (tb *Table[E]) Put(t *Thread, e E) {
	i := tb.find(t.ID)
	if i < len(tb.rows) && tb.rows[i].T.ID == t.ID {
		if tb.rows[i].T != t {
			panic(fmt.Sprintf("sched: thread %v reuses the ID of %v", t, tb.rows[i].T))
		}
		tb.rows[i].E = e
		return
	}
	tb.rows = slices.Insert(tb.rows, i, Row[E]{T: t, E: e})
	tb.base = tb.rows[0].T.ID
}

// Delete removes t's row, if t holds one.
func (tb *Table[E]) Delete(t *Thread) {
	if i := tb.find(t.ID); i < len(tb.rows) && tb.rows[i].T == t {
		tb.rows = slices.Delete(tb.rows, i, i+1)
		if len(tb.rows) > 0 {
			tb.base = tb.rows[0].T.ID
		}
	}
}

// Len returns the number of rows.
func (tb *Table[E]) Len() int { return len(tb.rows) }

// Rows returns the rows in ascending thread-ID order. The slice is the
// table's own storage: callers may range over it but must not modify it.
func (tb *Table[E]) Rows() []Row[E] { return tb.rows }
