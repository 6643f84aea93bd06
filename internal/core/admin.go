package core

import (
	"fmt"
	"io"
	"strings"

	"hsfq/internal/sched"
)

// This file holds the hsfq_admin-style operations: weight changes,
// introspection, invariant checking, and DOT export.

// SetNodeWeight changes a node's weight, the paper's canonical hsfq_admin
// example ("changing the weight of a node"). The change takes effect at
// the node's next charge; accumulated tags are not rewritten, so past
// service stays accounted at the old rate — exactly how the paper's Fig. 11
// dynamic-allocation experiment behaves.
func (s *Structure) SetNodeWeight(id NodeID, weight float64) error {
	n := s.Node(id)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	if n.parent == nil {
		return fmt.Errorf("core: the root has no weight")
	}
	if weight <= 0 {
		return fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	n.weight = weight
	return nil
}

// NodeWeightOf returns a node's weight, the read half of hsfq_admin.
func (s *Structure) NodeWeightOf(id NodeID) (float64, error) {
	n := s.Node(id)
	if n == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	return n.weight, nil
}

// SetThreadWeight changes a thread's weight. If the thread's leaf
// scheduler tracks aggregate weight (sched.WeightSetter), the change is
// routed through it so bookkeeping stays consistent even while the thread
// is runnable.
func (s *Structure) SetThreadWeight(t *sched.Thread, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	n := s.byThread.Get(t)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrNoThread, t)
	}
	if ws, ok := n.leaf.(sched.WeightSetter); ok {
		ws.SetWeight(t, weight)
		return nil
	}
	t.Weight = weight
	return nil
}

// Bandwidth returns the fraction of total CPU bandwidth the node is
// entitled to when every node is busy: the product along the path of
// weight_i / sum(sibling weights).
func (s *Structure) Bandwidth(id NodeID) (float64, error) {
	n := s.Node(id)
	if n == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	frac := 1.0
	for ; n.parent != nil; n = n.parent {
		var sum float64
		for _, c := range n.parent.children {
			sum += c.weight
		}
		frac *= n.weight / sum
	}
	return frac, nil
}

// NodeInfo is a read-only snapshot of a node, for tools and tests.
type NodeInfo struct {
	ID          NodeID
	Path        string
	Weight      float64
	Leaf        bool
	LeafName    string
	Runnable    bool
	Start       float64
	Finish      float64
	VirtualTime float64
	Children    []NodeID
	Threads     int
}

// Info returns a snapshot of the node with the given id.
func (s *Structure) Info(id NodeID) (NodeInfo, error) {
	n := s.Node(id)
	if n == nil {
		return NodeInfo{}, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	info := NodeInfo{
		ID:          n.id,
		Path:        s.PathOf(id),
		Weight:      n.weight,
		Leaf:        n.IsLeaf(),
		Runnable:    n.Runnable(),
		Start:       n.run.Tag,
		Finish:      n.finish,
		VirtualTime: n.VirtualTime(),
		Threads:     len(s.threadsOf(n)),
	}
	if n.IsLeaf() {
		info.LeafName = n.leaf.Name()
	}
	for _, c := range n.children {
		info.Children = append(info.Children, c.id)
	}
	return info, nil
}

// Walk visits every node in depth-first creation order.
func (s *Structure) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(s.root)
}

// Depth returns the number of edges from the root to the node.
func (s *Structure) Depth(id NodeID) (int, error) {
	n := s.Node(id)
	if n == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	d := 0
	for ; n.parent != nil; n = n.parent {
		d++
	}
	return d, nil
}

// CheckInvariants validates the structural and scheduling invariants of
// the tree; tests and the property suite call it after random operation
// sequences. It returns the first violation found, or nil.
func (s *Structure) CheckInvariants() error {
	var err error
	s.Walk(func(n *Node) {
		if err != nil {
			return
		}
		err = s.checkNode(n)
	})
	return err
}

func (s *Structure) checkNode(n *Node) error {
	path := s.PathOf(n.id)
	if n.parent == nil && n != s.root {
		return fmt.Errorf("core: non-root node %q without parent", path)
	}
	if n.weight <= 0 {
		return fmt.Errorf("core: node %q with weight %v", path, n.weight)
	}
	if n.IsLeaf() != (n.leaf != nil) {
		return fmt.Errorf("core: node %q leaf state inconsistent", path)
	}
	if n.IsLeaf() && len(n.children) > 0 {
		return fmt.Errorf("core: leaf %q has children", path)
	}
	// byName map mirrors the children slice.
	if len(n.byName) != len(n.children) {
		return fmt.Errorf("core: node %q name index out of sync", path)
	}
	for _, c := range n.children {
		if n.byName[c.name] != c {
			return fmt.Errorf("core: node %q child %q not in name index", path, c.name)
		}
		if c.parent != n {
			return fmt.Errorf("core: child %q of %q has wrong parent", c.name, path)
		}
	}
	// Heap membership: exactly the runnable children, each with a
	// consistent index and start >= finish never required, but
	// start <= finish always (F = S + l/w with l >= 0).
	runq := n.runq.Items()
	inHeap := make(map[*Node]bool, len(runq))
	for i, x := range runq {
		c := x.Item
		if c == nil || &c.run != x {
			return fmt.Errorf("core: heap slot %d under %q does not point back at its node", i, path)
		}
		if x.Slot() != i {
			return fmt.Errorf("core: node %q heap index %d inconsistent", s.PathOf(c.id), i)
		}
		if c.parent != n {
			return fmt.Errorf("core: node %q in wrong heap", s.PathOf(c.id))
		}
		inHeap[c] = true
	}
	// Heap order property.
	for i := range runq {
		for _, j := range []int{2*i + 1, 2*i + 2} {
			if j < len(runq) && runq[j].Before(runq[i]) {
				return fmt.Errorf("core: heap order violated under %q", path)
			}
		}
	}
	for _, c := range n.children {
		if c.run.Queued() && !inHeap[c] {
			return fmt.Errorf("core: node %q claims heap membership it lacks", s.PathOf(c.id))
		}
		if c.IsLeaf() {
			if (c.leaf.Len() > 0) != c.run.Queued() {
				return fmt.Errorf("core: leaf %q runnable flag out of sync with scheduler", s.PathOf(c.id))
			}
		} else {
			if (c.runq.Len() > 0) != c.run.Queued() {
				return fmt.Errorf("core: node %q runnable flag out of sync with children", s.PathOf(c.id))
			}
		}
		if c.run.Tag < 0 || c.finish < 0 {
			return fmt.Errorf("core: node %q has negative tags", s.PathOf(c.id))
		}
	}
	return nil
}

// WriteDOT renders the structure in Graphviz DOT format, one box per node
// labeled with its path component, weight, and leaf algorithm.
func (s *Structure) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph hsfq {\n  rankdir=TB;\n  node [shape=box];\n")
	s.Walk(func(n *Node) {
		label := n.name
		if n.parent == nil {
			label = "root"
		}
		if n.IsLeaf() {
			label += fmt.Sprintf("\\nw=%g leaf=%s threads=%d", n.weight, n.leaf.Name(), len(s.threadsOf(n)))
		} else if n.parent != nil {
			label += fmt.Sprintf("\\nw=%g", n.weight)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", n.id, label)
		if n.parent != nil {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.parent.id, n.id)
		}
	})
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders a compact indented tree, for debugging and the hsfqctl
// tool.
func (s *Structure) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		name := n.name
		if n.parent == nil {
			name = "/"
		}
		fmt.Fprintf(&b, "%s (id=%d w=%g", name, n.id, n.weight)
		if n.IsLeaf() {
			fmt.Fprintf(&b, " leaf=%s threads=%d", n.leaf.Name(), len(s.threadsOf(n)))
		}
		if n.Runnable() {
			b.WriteString(" runnable")
		}
		b.WriteString(")\n")
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(s.root, 0)
	return b.String()
}

// Threads returns the threads attached to a leaf, sorted by ID.
func (s *Structure) Threads(id NodeID) ([]*sched.Thread, error) {
	n := s.Node(id)
	if n == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	if !n.IsLeaf() {
		return nil, fmt.Errorf("%w: %q", ErrNotLeaf, s.PathOf(id))
	}
	return s.threadsOf(n), nil
}

// Detach removes a blocked thread from the structure entirely. Like Move,
// it refuses runnable threads and the picked thread until it is charged.
func (s *Structure) Detach(t *sched.Thread) error {
	if s.byThread.Get(t) == nil {
		return fmt.Errorf("%w: %v", ErrNoThread, t)
	}
	if s.busy(t) {
		return fmt.Errorf("%w: %v", ErrThreadRunning, t)
	}
	s.byThread.Delete(t)
	return nil
}

// WriteScript emits the structure as an hsfqctl-style script of mknod and
// weight commands that rebuilds its shape (leaf schedulers are emitted by
// algorithm name; quanta are not recorded on the Scheduler interface and
// fall back to each algorithm's default).
func (s *Structure) WriteScript(w io.Writer) error {
	var b strings.Builder
	s.Walk(func(n *Node) {
		if n.parent == nil {
			return
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, "mknod %s %g %s\n", s.PathOf(n.id), n.weight, n.leaf.Name())
		} else {
			fmt.Fprintf(&b, "mknod %s %g\n", s.PathOf(n.id), n.weight)
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}
