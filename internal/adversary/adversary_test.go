package adversary

import (
	"strings"
	"testing"
)

// TestMatrixPredicatesHold runs every attack × leaf × {1, 4}-core cell
// and requires every isolation predicate to hold — Isolated cells keep
// their victims above the bound, Gameable cells demonstrably land.
func TestMatrixPredicatesHold(t *testing.T) {
	cells := Matrix([]int{1, 4})
	if len(cells) == 0 {
		t.Fatal("empty matrix")
	}
	for _, c := range cells {
		r, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		t.Logf("%-28s expect=%-8s share=%.4f bound=%.4f", c.ID(), c.Expect, r.VictimShare, c.Bound)
		if r.Violation != "" {
			t.Errorf("%s", r.Violation)
		}
	}
}

// TestMatrixDeterminism runs the matrix at 1 and 4 cores twice and
// requires identical outcome digests — the reproducibility contract that
// makes any suite failure bisectable from the cell's config alone.
func TestMatrixDeterminism(t *testing.T) {
	first := map[string]string{}
	for _, c := range Matrix([]int{1, 4}) {
		r, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		first[c.ID()] = r.Digest
	}
	for _, c := range Matrix([]int{1, 4}) {
		r, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		if r.Digest != first[c.ID()] {
			t.Errorf("%s: digest changed across runs: %s then %s", c.ID(), first[c.ID()], r.Digest)
		}
	}
}

// TestMatrixShape pins the matrix structure: every cell's config
// validates, cell IDs are unique, the victim thread exists in each
// scenario, and 4-core cells pin every thread to core 0 under the
// partitioned policy so their contention matches the 1-core cell.
func TestMatrixShape(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Matrix([]int{1, 4}) {
		if seen[c.ID()] {
			t.Errorf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
		if err := c.Config.Validate(); err != nil {
			t.Errorf("%s: config invalid: %v", c.ID(), err)
		}
		found := false
		for _, th := range c.Config.Threads {
			if th.Name == c.Victim {
				found = true
			}
			if c.Cores > 1 && (th.Affinity == nil || *th.Affinity != 0) {
				t.Errorf("%s: thread %s not pinned to core 0", c.ID(), th.Name)
			}
		}
		if !found {
			t.Errorf("%s: no victim thread %q", c.ID(), c.Victim)
		}
		if c.Cores > 1 && c.Config.Policy != "partitioned" {
			t.Errorf("%s: policy %q, want partitioned", c.ID(), c.Config.Policy)
		}
		if !strings.Contains(c.Predicate, "victim-share") {
			t.Errorf("%s: predicate %q does not name its condition", c.ID(), c.Predicate)
		}
	}
}
