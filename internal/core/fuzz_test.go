package core

import (
	"bytes"
	"fmt"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// opsWorld is a structure under a fuzz script plus what a single-core
// cpu.Machine would know about it: the thread pool, the picked thread,
// the clock, and the node edits that rebuild the same tree.
type opsWorld struct {
	s       *Structure
	threads []*sched.Thread // IDs 1..len, attached or not
	picked  *sched.Thread
	now     sim.Time
	edits   []nodeEdit
}

// nodeEdit is one successful Mknod (kind "" for an interior node) or,
// with rm set, Rmnod. Replaying the edits in order on a new structure
// hands out the same node IDs.
type nodeEdit struct {
	rm     bool
	id     NodeID
	name   string
	parent NodeID
	weight float64
	kind   string
}

const (
	fuzzThreads  = 8
	fuzzMaxNodes = 24
)

// fuzzLeaf builds a leaf of the named kind. Every leaf comes from the
// same configuration, so a rebuild recreates identical static state.
func fuzzLeaf(kind string) sched.Scheduler {
	if kind == "" {
		return nil
	}
	l, err := sched.New(kind, sched.LeafConfig{
		Quantum: 3 * sim.Millisecond, Levels: 3, Aging: 20 * sim.Millisecond, RNG: sim.NewRand(7),
	})
	if err != nil {
		panic(err)
	}
	return l
}

func newOpsWorld() *opsWorld {
	w := &opsWorld{s: NewStructure()}
	for i := 1; i <= fuzzThreads; i++ {
		th := sched.NewThread(i, fmt.Sprintf("t%d", i), float64(i%3+1))
		th.Priority = i % 4
		if i%2 == 0 { // t6 and t8 share a period, so rm breaks the tie by priority
			th.Period = sim.Time(10*min(i, 6)) * sim.Millisecond
		}
		w.threads = append(w.threads, th)
	}
	return w
}

// nodes returns the live nodes matching keep, in ID order.
func (w *opsWorld) nodes(keep func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range w.s.nodes {
		if n != nil && keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// charge charges the picked thread as a machine does when its segment
// ends.
func (w *opsWorld) charge(used sched.Work, runnable bool) {
	t := w.picked
	w.picked = nil
	t.Segments++
	if runnable {
		t.State, t.ReadyAt = sched.StateRunnable, w.now
	} else {
		t.State = sched.StateBlocked
	}
	w.s.Charge(t, used, w.now, runnable)
}

// dispatch picks the next thread and asks for its quantum. It returns the
// thread's ID and quantum, or -1.
func (w *opsWorld) dispatch() (int, sim.Time) {
	t := w.s.Pick(w.now)
	if t == nil {
		return -1, 0
	}
	w.picked = t
	t.State = sched.StateRunning
	return t.ID, w.s.Quantum(t, w.now)
}

// decide is one turn of a machine's dispatch loop: charge the picked
// thread, if any, and pick the next.
func (w *opsWorld) decide(used sched.Work, runnable bool) (int, sim.Time) {
	w.now += sim.Millisecond
	if w.picked != nil {
		w.charge(used, runnable)
	}
	return w.dispatch()
}

// rebuild returns a world with the same tree, fresh leaves, and copies
// of the threads attached where w's are, ready for LoadState.
func (w *opsWorld) rebuild(tb testing.TB) *opsWorld {
	r := &opsWorld{s: NewStructure(), now: w.now, edits: w.edits}
	for _, ed := range w.edits {
		if ed.rm {
			if err := r.s.Rmnod(ed.id); err != nil {
				tb.Fatalf("replaying rmnod %d: %v", ed.id, err)
			}
			continue
		}
		id, err := r.s.Mknod(ed.name, ed.parent, ed.weight, fuzzLeaf(ed.kind))
		if err != nil || id != ed.id {
			tb.Fatalf("replaying mknod %s: id %d, want %d, err %v", ed.name, id, ed.id, err)
		}
	}
	for _, th := range w.threads {
		c := *th
		r.threads = append(r.threads, &c)
		if n := w.s.LeafOf(th); n != nil {
			if err := r.s.Attach(&c, n.id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if w.picked != nil {
		r.picked = r.threads[w.picked.ID-1]
	}
	return r
}

// roundTrip saves w, loads the bytes into a rebuild, and requires the
// rebuild to re-save the same bytes and to make the same next 12
// decisions. The script then continues on the restored world.
func (w *opsWorld) roundTrip(tb testing.TB) *opsWorld {
	var e1, e2 sim.Enc
	if err := w.s.SaveState(&e1); err != nil {
		tb.Fatalf("SaveState: %v", err)
	}
	r := w.rebuild(tb)
	resolve := func(id int) *sched.Thread {
		if id < 1 || id > len(r.threads) {
			return nil
		}
		return r.threads[id-1]
	}
	if err := r.s.LoadState(sim.NewDec(e1.Bytes()), resolve); err != nil {
		tb.Fatalf("LoadState of a fresh save: %v\n%s", err, w.s)
	}
	if err := r.s.SaveState(&e2); err != nil {
		tb.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		tb.Fatalf("save → load → save changed the bytes\n%s", w.s)
	}
	for i := 0; i < 12; i++ {
		used, runnable := sched.Work(150_000+40_000*i), i%4 != 3
		id1, q1 := w.decide(used, runnable)
		id2, q2 := r.decide(used, runnable)
		if id1 != id2 || q1 != q2 {
			tb.Fatalf("decision %d after restore: picked %d (quantum %v), original %d (quantum %v)", i, id2, q2, id1, q1)
		}
	}
	return r
}

// FuzzStructureOps drives a structure whose leaves are of every
// registered kind through a byte script of the hsfq system calls and
// kernel entry points. Thread states follow the machine's rules: only a
// blocked thread wakes, one thread at a time is picked and only it is
// charged, and a thread blocks only through its charge. The invariants are
// checked after every operation, and a checkpoint round trip must be exact
// and must not change the next decisions. Op 8 does nothing, so the other
// ops keep the numbers the hand-written seeds use.
func FuzzStructureOps(f *testing.F) {
	f.Add([]byte{0, 1, 11, 1, 2, 0, 0, 7, 0, 9, 10, 3, 1, 11})
	f.Add([]byte("\x00\x00\x04\x02\x00\x00\x0a\x01\x02\x00\x01\x02\x01\x07\x00\x07\x01\x09\x0b\x0a\x05\x01\x09\x0b"))
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		script := make([]byte, 1500)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		f.Add(script)
	}
	names := sched.Names()
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		pick := func(xs []*Node) *Node {
			if len(xs) == 0 {
				return nil
			}
			return xs[next()%len(xs)]
		}
		isLeaf := func(n *Node) bool { return n.IsLeaf() }
		w := newOpsWorld()
		for len(script) > 0 {
			op := next() % 12
			th := w.threads[next()%len(w.threads)]
			w.now += sim.Millisecond
			switch op {
			case 0: // mknod
				p := pick(w.nodes(func(n *Node) bool { return !n.IsLeaf() }))
				kind := ""
				if k := next() % (len(names) + 1); k < len(names) {
					kind = names[k]
				}
				weight := float64(next()%4 + 1)
				if len(w.nodes(func(*Node) bool { return true })) >= fuzzMaxNodes {
					break
				}
				name := fmt.Sprintf("n%d", len(w.edits))
				if id, err := w.s.Mknod(name, p.id, weight, fuzzLeaf(kind)); err == nil {
					w.edits = append(w.edits, nodeEdit{id: id, name: name, parent: p.id, weight: weight, kind: kind})
				}
			case 1: // rmnod
				if n := pick(w.nodes(func(n *Node) bool { return n != w.s.root })); n != nil {
					if w.s.Rmnod(n.id) == nil {
						w.edits = append(w.edits, nodeEdit{rm: true, id: n.id})
					}
				}
			case 2: // attach
				if n := pick(w.nodes(isLeaf)); n != nil && w.s.LeafOf(th) == nil {
					if err := w.s.Attach(th, n.id); err != nil {
						t.Fatalf("attach of an unattached thread: %v", err)
					}
				}
			case 3: // detach
				_ = w.s.Detach(th) // refused while th is busy or unattached
			case 4: // move
				if n := pick(w.nodes(isLeaf)); n != nil {
					_ = w.s.Move(th, n.id) // refused while th is busy or unattached
				}
			case 5: // node weight
				if n := pick(w.nodes(func(n *Node) bool { return n != w.s.root })); n != nil {
					if err := w.s.SetNodeWeight(n.id, float64(next()%5+1)); err != nil {
						t.Fatal(err)
					}
				}
			case 6: // thread weight
				_ = w.s.SetThreadWeight(th, float64(next()%5+1)) // refused while unattached
			case 7: // wake
				if w.s.LeafOf(th) != nil && (th.State == sched.StateNew || th.State == sched.StateBlocked) {
					th.State, th.WokeAt, th.ReadyAt = sched.StateRunnable, w.now, w.now
					w.s.Enqueue(th, w.now)
				}
			case 9: // pick + quantum
				if w.picked == nil {
					w.dispatch()
				}
			case 10: // charge
				if w.picked != nil {
					w.charge(sched.Work(next()*20_000+1), next()%3 != 0)
				}
			case 11: // checkpoint round trip
				w = w.roundTrip(t)
			}
			if err := w.s.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v\n%s", op, err, w.s)
			}
		}
	})
}
