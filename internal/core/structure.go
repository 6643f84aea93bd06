// Package core implements the paper's primary contribution: a hierarchical
// CPU scheduling framework in which an operating system partitions CPU
// bandwidth among application classes with Start-time Fair Queuing (SFQ),
// and each class partitions its allocation among sub-classes or threads
// with a scheduler of its own choosing.
//
// The hierarchy is a tree, the "scheduling structure" of §4. Every thread
// belongs to exactly one leaf node; every node has a weight determining the
// share of its parent's bandwidth it receives. Intermediate nodes are
// scheduled by SFQ: each carries a start tag and a finish tag in its
// parent's virtual-time domain, and every parent dispatches the runnable
// child with the minimum start tag. Leaf nodes delegate to a pluggable
// sched.Scheduler (SFQ, EDF, RM, SVR4 TS, ...).
//
// The API mirrors the paper's system calls:
//
//	hsfq_mknod   -> Structure.Mknod / MknodPath
//	hsfq_parse   -> Structure.Parse
//	hsfq_rmnod   -> Structure.Rmnod
//	hsfq_move    -> Structure.Move
//	hsfq_admin   -> Structure.SetNodeWeight, NodeWeightOf, Info, ...
//
// and the kernel entry points:
//
//	hsfq_schedule -> Structure.Pick
//	hsfq_update   -> Structure.Charge
//	hsfq_setrun   -> Structure.Enqueue (first runnable thread in a leaf)
//	hsfq_sleep    -> Structure.Charge/Remove (last runnable thread leaves)
//
// Structure itself implements sched.Scheduler, so the simulated CPU drives
// a full hierarchy and a flat leaf scheduler through the same interface.
package core

import (
	"errors"
	"fmt"
	"strings"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// NodeID identifies a node in a scheduling structure, as the int node
// identifiers returned by hsfq_mknod do in the paper.
type NodeID int

// RootID is the identifier of the root node of every structure.
const RootID NodeID = 1

// Errors returned by the structure-manipulation API.
var (
	ErrNoNode        = errors.New("core: no such node")
	ErrNotLeaf       = errors.New("core: node is not a leaf")
	ErrIsLeaf        = errors.New("core: node is a leaf")
	ErrHasChildren   = errors.New("core: node has children")
	ErrHasThreads    = errors.New("core: node has threads")
	ErrDupName       = errors.New("core: sibling with that name exists")
	ErrBadWeight     = errors.New("core: weight must be positive")
	ErrBadName       = errors.New("core: invalid node name")
	ErrNoThread      = errors.New("core: thread not in structure")
	ErrThreadRunning = errors.New("core: thread is runnable; block it before moving")
)

// Node is one vertex of the scheduling structure. Exported accessors are
// read-only; all mutation goes through Structure so tag and runnable-set
// invariants hold.
type Node struct {
	id       NodeID
	name     string // path component; "" for the root
	parent   *Node
	children []*Node
	byName   map[string]*Node

	weight float64

	// SFQ state, in the parent's virtual-time domain. run.Tag is the
	// start tag and run.Seq its FIFO tie-break: "threads are serviced in
	// the increasing order of the start tags; ties are broken
	// arbitrarily", and we break them FIFO for determinism. run is queued
	// on the parent's runq exactly while the node is runnable.
	run    sim.Tagged[float64, *Node]
	finish float64

	// Virtual-time state for this node's own domain.
	runq      sim.TagHeap[float64, *Node] // runnable children ordered by start tag
	maxFinish float64                     // max finish tag ever assigned to a child

	// Leaf state.
	leaf sched.Scheduler
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Weight returns the node's weight.
func (n *Node) Weight() float64 { return n.weight }

// IsLeaf reports whether the node is a leaf (has an attached scheduler).
func (n *Node) IsLeaf() bool { return n.leaf != nil }

// Leaf returns the node's leaf scheduler, or nil for intermediate nodes.
func (n *Node) Leaf() sched.Scheduler { return n.leaf }

// Tags returns the node's SFQ start and finish tags in its parent's
// virtual-time domain. The root carries no tags and reports zeros.
func (n *Node) Tags() (start, finish float64) { return n.run.Tag, n.finish }

// Runnable reports whether the node is eligible for scheduling, i.e. some
// leaf in its subtree has a runnable thread.
func (n *Node) Runnable() bool {
	if n.parent == nil {
		return n.runq.Len() > 0
	}
	return n.run.Queued()
}

// VirtualTime returns v(t) of the node's own scheduling domain: the
// minimum start tag among runnable children while busy, and the maximum
// finish tag ever assigned while idle (§3, rule 2). Leaves report 0.
func (n *Node) VirtualTime() float64 {
	if n.runq.Len() > 0 {
		return n.runq.Min().Tag
	}
	return n.maxFinish
}

// Children returns the node's children in creation order.
func (n *Node) Children() []*Node {
	out := make([]*Node, len(n.children))
	copy(out, n.children)
	return out
}

// Structure is a scheduling structure: the tree plus the thread-to-leaf
// table. It implements sched.Scheduler.
type Structure struct {
	root *Node
	// nodes is indexed by NodeID. IDs are handed out as len(nodes) and
	// never reused: Rmnod leaves a nil hole, and index 0 (below RootID)
	// is always nil.
	nodes    []*Node
	byThread sched.Table[*Node] // each attached thread's leaf
	seq      uint64
	runnable int // total runnable threads across all leaves
	picked   *sched.Thread
	pickedAt *Node
}

// NewStructure returns a structure containing only the root node. The root
// has no weight and no scheduler of its own; it only dispatches its
// children by SFQ.
func NewStructure() *Structure {
	root := &Node{id: RootID, weight: 1, byName: make(map[string]*Node)}
	return &Structure{root: root, nodes: []*Node{nil, root}}
}

// Root returns the root node.
func (s *Structure) Root() *Node { return s.root }

// Node returns the node with the given id, or nil.
func (s *Structure) Node(id NodeID) *Node {
	if uint(id) >= uint(len(s.nodes)) {
		return nil
	}
	return s.nodes[id]
}

// Mknod creates a node named name (a single path component) as a child of
// parent, with the given weight. If leaf is non-nil the node is a leaf
// scheduled internally by that scheduler; otherwise it is an intermediate
// node whose children are scheduled by SFQ. It returns the new node's id,
// mirroring hsfq_mknod.
func (s *Structure) Mknod(name string, parent NodeID, weight float64, leaf sched.Scheduler) (NodeID, error) {
	p := s.Node(parent)
	if p == nil {
		return 0, fmt.Errorf("%w: parent %d", ErrNoNode, parent)
	}
	if p.IsLeaf() {
		return 0, fmt.Errorf("%w: parent %q", ErrIsLeaf, s.PathOf(parent))
	}
	if weight <= 0 {
		return 0, fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	if name == "" || strings.ContainsRune(name, '/') || name == "." || name == ".." {
		return 0, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if _, dup := p.byName[name]; dup {
		return 0, fmt.Errorf("%w: %q under %q", ErrDupName, name, s.PathOf(parent))
	}
	n := &Node{
		id:     NodeID(len(s.nodes)),
		name:   name,
		parent: p,
		weight: weight,
		byName: make(map[string]*Node),
		leaf:   leaf,
	}
	n.run.Item = n
	p.children = append(p.children, n)
	p.byName[name] = n
	s.nodes = append(s.nodes, n)
	return n.id, nil
}

// MknodPath creates every missing intermediate node along path (with
// weight 1) and then the final node with the given weight and leaf
// scheduler, a convenience equivalent to repeated Mknod calls.
func (s *Structure) MknodPath(path string, weight float64, leaf sched.Scheduler) (NodeID, error) {
	if !strings.HasPrefix(path, "/") {
		return 0, fmt.Errorf("%w: path %q is not absolute", ErrBadName, path)
	}
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, fmt.Errorf("%w: path %q names the root", ErrBadName, path)
	}
	cur := s.root
	for _, comp := range parts[:len(parts)-1] {
		child, ok := cur.byName[comp]
		if !ok {
			id, err := s.Mknod(comp, cur.id, 1, nil)
			if err != nil {
				return 0, err
			}
			child = s.nodes[id]
		}
		cur = child
	}
	return s.Mknod(parts[len(parts)-1], cur.id, weight, leaf)
}

// Parse resolves a name to a node id, mirroring hsfq_parse. Absolute names
// start with "/"; relative names are resolved against hint. "." and ".."
// components are honored.
func (s *Structure) Parse(name string, hint NodeID) (NodeID, error) {
	var cur *Node
	if strings.HasPrefix(name, "/") {
		cur = s.root
	} else {
		cur = s.Node(hint)
		if cur == nil {
			return 0, fmt.Errorf("%w: hint %d", ErrNoNode, hint)
		}
	}
	for _, comp := range splitPath(name) {
		switch comp {
		case ".":
		case "..":
			if cur.parent != nil {
				cur = cur.parent
			}
		default:
			child, ok := cur.byName[comp]
			if !ok {
				return 0, fmt.Errorf("%w: %q (component %q)", ErrNoNode, name, comp)
			}
			cur = child
		}
	}
	return cur.id, nil
}

// PathOf returns the absolute name of a node, e.g. "/best-effort/user1".
func (s *Structure) PathOf(id NodeID) string {
	n := s.Node(id)
	if n == nil {
		return fmt.Sprintf("<bad node %d>", id)
	}
	if n.parent == nil {
		return "/"
	}
	var parts []string
	for ; n.parent != nil; n = n.parent {
		parts = append(parts, n.name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// Rmnod removes a node, mirroring hsfq_rmnod: "a node can be removed only
// if it does not have any child nodes" — or, for leaves, any threads.
func (s *Structure) Rmnod(id NodeID) error {
	n := s.Node(id)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	if n.parent == nil {
		return fmt.Errorf("core: cannot remove the root")
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrHasChildren, s.PathOf(id))
	}
	if len(s.threadsOf(n)) > 0 {
		return fmt.Errorf("%w: %q", ErrHasThreads, s.PathOf(id))
	}
	if n.run.Queued() {
		return fmt.Errorf("core: node %q is runnable", s.PathOf(id))
	}
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	delete(p.byName, n.name)
	s.nodes[id] = nil
	return nil
}

// Attach places a blocked or new thread in a leaf node. The thread starts
// competing when it is enqueued. Its ID must be unique in the structure.
func (s *Structure) Attach(t *sched.Thread, leaf NodeID) error {
	n := s.Node(leaf)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNoNode, leaf)
	}
	if !n.IsLeaf() {
		return fmt.Errorf("%w: %q", ErrNotLeaf, s.PathOf(leaf))
	}
	if u := s.byThread.Holder(t.ID); u == t {
		return fmt.Errorf("core: thread %v already attached; use Move", t)
	} else if u != nil {
		return fmt.Errorf("core: thread %v reuses the ID of attached thread %v", t, u)
	}
	s.byThread.Put(t, n)
	return nil
}

// Move reassigns a blocked thread to another leaf, mirroring hsfq_move.
// Runnable threads, and the picked thread until it is charged, must be
// blocked first so their leaf's tags settle.
func (s *Structure) Move(t *sched.Thread, to NodeID) error {
	if s.byThread.Get(t) == nil {
		return fmt.Errorf("%w: %v", ErrNoThread, t)
	}
	if s.busy(t) {
		return fmt.Errorf("%w: %v", ErrThreadRunning, t)
	}
	dst := s.Node(to)
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrNoNode, to)
	}
	if !dst.IsLeaf() {
		return fmt.Errorf("%w: %q", ErrNotLeaf, s.PathOf(to))
	}
	s.byThread.Put(t, dst)
	return nil
}

// busy reports whether t may not leave its leaf: it is runnable or
// running, or it is the picked thread, which Charge charges at the leaf
// it was picked from.
func (s *Structure) busy(t *sched.Thread) bool {
	return t.State == sched.StateRunnable || t.State == sched.StateRunning || t == s.picked
}

// LeafOf returns the leaf node a thread is attached to, or nil.
func (s *Structure) LeafOf(t *sched.Thread) *Node { return s.byThread.Get(t) }

// threadsOf returns the threads attached to leaf n, in ID order.
func (s *Structure) threadsOf(n *Node) []*sched.Thread {
	var out []*sched.Thread
	for _, r := range s.byThread.Rows() {
		if r.E == n {
			out = append(out, r.T)
		}
	}
	return out
}

func splitPath(p string) []string {
	var parts []string
	for _, c := range strings.Split(p, "/") {
		if c != "" {
			parts = append(parts, c)
		}
	}
	return parts
}
