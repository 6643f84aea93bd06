package core

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Structure implements sched.Stater: the whole hierarchy — per-node SFQ
// tags, runnable-heap memberships, and every leaf scheduler's state —
// round-trips through a checkpoint. The tree shape itself is NOT
// serialized: the rebuild recreates the same nodes with the same IDs
// deterministically, and LoadState verifies the checkpoint describes the
// structure it is being loaded into (same node set, same leaf/interior
// split) before touching anything.
var _ sched.Stater = (*Structure)(nil)

// SaveState implements sched.Stater. Nodes are emitted in ID order so
// the encoding is canonical; leaf schedulers must implement sched.Stater
// themselves.
func (s *Structure) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	e.Int(s.runnable)
	if s.picked != nil {
		e.Int(s.picked.ID)
	} else {
		e.Int(-1)
	}
	if s.pickedAt != nil {
		e.Int(int(s.pickedAt.id))
	} else {
		e.Int(-1)
	}

	e.Int(s.numNodes())
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		e.Int(int(n.id))
		e.F64(n.weight)
		e.F64(n.run.Tag)
		e.F64(n.finish)
		e.U64(n.run.Seq)
		e.F64(n.maxFinish)
		e.Bool(n.run.Queued())
		if n.IsLeaf() {
			e.Bool(true)
			st, ok := n.leaf.(sched.Stater)
			if !ok {
				return fmt.Errorf("core: leaf %q scheduler %q does not support checkpointing",
					s.PathOf(n.id), n.leaf.Name())
			}
			if err := st.SaveState(e); err != nil {
				return err
			}
		} else {
			e.Bool(false)
		}
	}
	return nil
}

// LoadState implements sched.Stater. Runnable-heap memberships are
// rebuilt by pushing nodes in ID order, which is sound because the heap
// order (start tag, stamp sequence) is a strict total order: the
// sequence of minima the hsfq_schedule walk observes does not depend on
// the heap's internal layout.
func (s *Structure) LoadState(d *sim.Dec, resolve func(id int) *sched.Thread) error {
	if s.runnable != 0 || s.root.runq.Len() != 0 {
		return fmt.Errorf("core: LoadState into a structure with runnable threads")
	}
	s.seq = d.U64()
	runnable := d.Int()
	pickedID := d.Int()
	pickedAtID := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if runnable < 0 {
		return fmt.Errorf("core: negative runnable count %d", runnable)
	}

	var inRunq []*Node
	nodes, leafRunnable := 0, 0
	err := d.Rows("core node", 35, func(id int) error {
		nodes++
		nd := s.Node(NodeID(id))
		if nd == nil {
			return fmt.Errorf("core: checkpoint references unknown node %d", id)
		}
		weight := d.F64()
		nd.run.Tag = d.F64()
		nd.finish = d.F64()
		nd.run.Seq = d.U64()
		nd.maxFinish = d.F64()
		inQ := d.Bool()
		isLeaf := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if !(weight > 0) {
			return fmt.Errorf("core: node %d with non-positive weight %v", id, weight)
		}
		nd.weight = weight
		if isLeaf != nd.IsLeaf() {
			return fmt.Errorf("core: node %d leafness mismatch (checkpoint %v, structure %v)",
				id, isLeaf, nd.IsLeaf())
		}
		if inQ {
			if nd.parent == nil {
				return fmt.Errorf("core: root marked runnable in a parent heap")
			}
			inRunq = append(inRunq, nd)
		}
		if !isLeaf {
			return nil
		}
		st, ok := nd.leaf.(sched.Stater)
		if !ok {
			return fmt.Errorf("core: leaf %q scheduler %q does not support checkpointing",
				s.PathOf(nd.id), nd.leaf.Name())
		}
		if err := st.LoadState(d, resolve); err != nil {
			return err
		}
		leafRunnable += nd.leaf.Len()
		return nil
	})
	if err != nil {
		return err
	}
	if live := s.numNodes(); nodes != live {
		return fmt.Errorf("core: checkpoint has %d nodes, structure has %d", nodes, live)
	}
	if leafRunnable != runnable {
		return fmt.Errorf("core: leaves hold %d runnable threads but structure count is %d",
			leafRunnable, runnable)
	}
	for _, nd := range inRunq {
		nd.parent.runq.Push(&nd.run)
	}
	s.runnable = runnable

	s.picked, s.pickedAt = nil, nil
	if pickedID != -1 {
		t := resolve(pickedID)
		if t == nil {
			return fmt.Errorf("core: picked thread %d unknown", pickedID)
		}
		nd := s.Node(NodeID(pickedAtID))
		if nd == nil || !nd.IsLeaf() {
			return fmt.Errorf("core: picked-at node %d missing or not a leaf", pickedAtID)
		}
		if s.byThread.Get(t) != nd {
			return fmt.Errorf("core: picked thread %v is not attached to picked-at node %q", t, s.PathOf(nd.id))
		}
		s.picked, s.pickedAt = t, nd
	} else if pickedAtID != -1 {
		return fmt.Errorf("core: picked-at node %d without a picked thread", pickedAtID)
	}
	return s.CheckInvariants()
}

// numNodes returns the number of nodes in the structure, root included.
func (s *Structure) numNodes() int {
	c := 0
	for _, n := range s.nodes {
		if n != nil {
			c++
		}
	}
	return c
}
