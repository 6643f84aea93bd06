package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// listItem is a runList element for the reference test: the owner of a
// link, identified by a number.
type listItem struct {
	link[*listItem]
	id int
}

// TestRunListMatchesSliceDeque drives runList and a plain slice deque
// through the same seeded operation scripts — push at either end, remove
// of a random queued element, front, length and membership queries — and
// requires the list to hold the deque's elements in the deque's order
// after every operation.
func TestRunListMatchesSliceDeque(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		items := make([]*listItem, 12)
		for i := range items {
			items[i] = &listItem{id: i}
			items[i].Item = items[i]
		}
		var l runList[*listItem]
		var ref []*listItem // front first
		for op := 0; op < 300; op++ {
			x := items[rng.Intn(len(items))]
			inRef := slices.Contains(ref, x)
			if x.Queued() != inRef {
				t.Fatalf("trial %d op %d: item %d Queued %v, deque holds it %v", trial, op, x.id, x.Queued(), inRef)
			}
			switch r := rng.Intn(5); {
			case inRef && r < 2:
				l.Remove(&x.link)
				ref = slices.DeleteFunc(ref, func(y *listItem) bool { return y == x })
			case inRef:
				// Leave x queued; the checks below still run.
			case r < 3:
				l.PushBack(&x.link)
				ref = append(ref, x)
			default:
				l.PushFront(&x.link)
				ref = append([]*listItem{x}, ref...)
			}

			if l.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len %d, deque %d", trial, op, l.Len(), len(ref))
			}
			if f := l.Front(); len(ref) == 0 && f != nil || len(ref) > 0 && (f == nil || f.Item != ref[0]) {
				t.Fatalf("trial %d op %d: Front does not match the deque's front", trial, op)
			}
			var walk []*listItem
			for y := l.Front(); y != nil; y = y.Next() {
				walk = append(walk, y.Item)
			}
			if !slices.Equal(walk, ref) {
				t.Fatalf("trial %d op %d: walk %v, deque %v", trial, op, ids(walk), ids(ref))
			}
		}
	}
}

func ids(items []*listItem) []int {
	out := make([]int, len(items))
	for i, x := range items {
		out[i] = x.id
	}
	return out
}
