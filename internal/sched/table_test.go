package sched

import "testing"

// TestTableOrderAndLookup covers both lookup paths: contiguous IDs (direct
// index) and a sparse set filled out of order (binary search), with rows
// always in ascending ID order and foreign threads never matched.
func TestTableOrderAndLookup(t *testing.T) {
	for _, ids := range [][]int{{1, 2, 3, 4, 5}, {40, 3, 1003, 500, 7}} {
		var tb Table[int]
		threads := map[int]*Thread{}
		for _, id := range ids {
			threads[id] = NewThread(id, "t", 1)
			tb.Put(threads[id], id*10)
		}
		prev := -1
		for _, r := range tb.Rows() {
			if r.T.ID <= prev {
				t.Fatalf("ids %v: rows out of order at %d", ids, r.T.ID)
			}
			prev = r.T.ID
		}
		for id, th := range threads {
			if got := tb.Get(th); got != id*10 {
				t.Errorf("ids %v: Get(%d) = %d", ids, id, got)
			}
			if tb.Get(NewThread(id, "other", 1)) != 0 {
				t.Errorf("ids %v: foreign thread with ID %d matched", ids, id)
			}
		}
		tb.Delete(threads[ids[2]])
		if tb.Len() != len(ids)-1 || tb.Get(threads[ids[2]]) != 0 || tb.Get(threads[ids[3]]) != ids[3]*10 {
			t.Errorf("ids %v: Delete(%d) left %v", ids, ids[2], tb.Rows())
		}
	}
}
