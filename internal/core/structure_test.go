package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func q() *sched.SFQ { return sched.NewSFQ(10 * sim.Millisecond) }

// buildPaperFig2 constructs the example structure of the paper's Fig. 2:
// root -> {hard-real-time (1), soft-real-time (3), best-effort (6)},
// best-effort -> {user1 (1), user2 (1)}.
func buildPaperFig2(t *testing.T) (*Structure, map[string]NodeID) {
	t.Helper()
	s := NewStructure()
	ids := map[string]NodeID{}
	mk := func(name string, parent NodeID, w float64, leaf sched.Scheduler) NodeID {
		id, err := s.Mknod(name, parent, w, leaf)
		if err != nil {
			t.Fatalf("mknod %s: %v", name, err)
		}
		ids[name] = id
		return id
	}
	mk("hard-real-time", RootID, 1, sched.NewEDF(0))
	mk("soft-real-time", RootID, 3, q())
	be := mk("best-effort", RootID, 6, nil)
	mk("user1", be, 1, q())
	mk("user2", be, 1, sched.NewSVR4(nil, 100_000_000, 0))
	return s, ids
}

func TestMknodAndPaths(t *testing.T) {
	s, ids := buildPaperFig2(t)
	if got := s.PathOf(ids["user1"]); got != "/best-effort/user1" {
		t.Errorf("PathOf = %q", got)
	}
	if got := s.PathOf(RootID); got != "/" {
		t.Errorf("root path %q", got)
	}
	if got := s.PathOf(999); !strings.Contains(got, "bad node") {
		t.Errorf("bad id path %q", got)
	}
	n := s.Node(ids["best-effort"])
	if n.IsLeaf() || len(n.Children()) != 2 {
		t.Error("best-effort node shape wrong")
	}
	if s.Node(ids["user1"]).Leaf() == nil {
		t.Error("user1 leaf scheduler missing")
	}
}

func TestMknodErrors(t *testing.T) {
	s, ids := buildPaperFig2(t)
	cases := []struct {
		name   string
		parent NodeID
		weight float64
		err    error
	}{
		{"x", 999, 1, ErrNoNode},
		{"x", ids["user1"], 1, ErrIsLeaf},
		{"x", RootID, 0, ErrBadWeight},
		{"x", RootID, -2, ErrBadWeight},
		{"", RootID, 1, ErrBadName},
		{"a/b", RootID, 1, ErrBadName},
		{".", RootID, 1, ErrBadName},
		{"..", RootID, 1, ErrBadName},
		{"best-effort", RootID, 1, ErrDupName},
	}
	for _, c := range cases {
		if _, err := s.Mknod(c.name, c.parent, c.weight, nil); !errors.Is(err, c.err) {
			t.Errorf("Mknod(%q, %d, %v) err = %v, want %v", c.name, c.parent, c.weight, err, c.err)
		}
	}
}

func TestParse(t *testing.T) {
	s, ids := buildPaperFig2(t)
	cases := []struct {
		name string
		hint NodeID
		want NodeID
	}{
		{"/best-effort/user1", 0, ids["user1"]},
		{"/", 0, RootID},
		{"user2", ids["best-effort"], ids["user2"]},
		{"./user1", ids["best-effort"], ids["user1"]},
		{"../soft-real-time", ids["best-effort"], ids["soft-real-time"]},
		{"..", RootID, RootID}, // ".." at root stays at root
		{"/best-effort/./user2", 0, ids["user2"]},
	}
	for _, c := range cases {
		got, err := s.Parse(c.name, c.hint)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q, %d) = %d, %v; want %d", c.name, c.hint, got, err, c.want)
		}
	}
	if _, err := s.Parse("/no/such", 0); !errors.Is(err, ErrNoNode) {
		t.Errorf("missing path err %v", err)
	}
	if _, err := s.Parse("x", 999); !errors.Is(err, ErrNoNode) {
		t.Errorf("bad hint err %v", err)
	}
}

func TestMknodPath(t *testing.T) {
	s := NewStructure()
	id, err := s.MknodPath("/a/b/c", 4, q())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PathOf(id); got != "/a/b/c" {
		t.Errorf("path %q", got)
	}
	if w, _ := s.NodeWeightOf(id); w != 4 {
		t.Errorf("weight %v", w)
	}
	// Intermediates got weight 1 and are not leaves.
	aid, err := s.Parse("/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := s.NodeWeightOf(aid); w != 1 {
		t.Errorf("intermediate weight %v", w)
	}
	// Reusing the prefix works.
	if _, err := s.MknodPath("/a/b/d", 2, q()); err != nil {
		t.Fatal(err)
	}
	// Relative paths rejected.
	if _, err := s.MknodPath("x/y", 1, nil); !errors.Is(err, ErrBadName) {
		t.Errorf("relative path err %v", err)
	}
	if _, err := s.MknodPath("/", 1, nil); !errors.Is(err, ErrBadName) {
		t.Errorf("root path err %v", err)
	}
}

func TestRmnod(t *testing.T) {
	s, ids := buildPaperFig2(t)
	// Busy intermediate refuses.
	if err := s.Rmnod(ids["best-effort"]); !errors.Is(err, ErrHasChildren) {
		t.Errorf("rm of parent err %v", err)
	}
	// Leaf with threads refuses.
	th := sched.NewThread(1, "t", 1)
	if err := s.Attach(th, ids["user1"]); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmnod(ids["user1"]); !errors.Is(err, ErrHasThreads) {
		t.Errorf("rm of occupied leaf err %v", err)
	}
	if err := s.Detach(th); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmnod(ids["user1"]); err != nil {
		t.Errorf("rm of empty leaf: %v", err)
	}
	if _, err := s.Parse("/best-effort/user1", 0); err == nil {
		t.Error("removed node still resolvable")
	}
	// Root refuses; unknown refuses.
	if err := s.Rmnod(RootID); err == nil {
		t.Error("removed the root")
	}
	if err := s.Rmnod(999); !errors.Is(err, ErrNoNode) {
		t.Errorf("rm unknown err %v", err)
	}
	// Name can be reused after removal.
	if _, err := s.Mknod("user1", ids["best-effort"], 2, q()); err != nil {
		t.Errorf("reuse of removed name: %v", err)
	}
}

func TestAttachMoveDetach(t *testing.T) {
	s, ids := buildPaperFig2(t)
	th := sched.NewThread(1, "t", 1)
	if err := s.Attach(th, ids["best-effort"]); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("attach to non-leaf err %v", err)
	}
	if err := s.Attach(th, 999); !errors.Is(err, ErrNoNode) {
		t.Errorf("attach to unknown err %v", err)
	}
	if err := s.Attach(th, ids["user1"]); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(th, ids["user2"]); err == nil {
		t.Error("double attach allowed")
	}
	if err := s.Attach(sched.NewThread(1, "same-id", 1), ids["user2"]); err == nil {
		t.Error("second thread with an attached thread's ID allowed")
	}
	if got := s.LeafOf(th); got.ID() != ids["user1"] {
		t.Errorf("LeafOf = %v", got.ID())
	}

	// Move while blocked works; while runnable refuses.
	if err := s.Move(th, ids["user2"]); err != nil {
		t.Fatal(err)
	}
	if got := s.LeafOf(th); got.ID() != ids["user2"] {
		t.Errorf("LeafOf after move = %v", got.ID())
	}
	s.Enqueue(th, 0)
	th.State = sched.StateRunnable
	if err := s.Move(th, ids["user1"]); !errors.Is(err, ErrThreadRunning) {
		t.Errorf("move of runnable err %v", err)
	}
	if err := s.Detach(th); !errors.Is(err, ErrThreadRunning) {
		t.Errorf("detach of runnable err %v", err)
	}
	s.Pick(0)
	s.Charge(th, 0, 0, false)
	th.State = sched.StateBlocked
	if err := s.Move(th, ids["user1"]); err != nil {
		t.Errorf("move after block: %v", err)
	}
	if err := s.Move(th, ids["best-effort"]); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("move to non-leaf err %v", err)
	}
	if err := s.Detach(th); err != nil {
		t.Errorf("detach: %v", err)
	}
	other := sched.NewThread(2, "o", 1)
	if err := s.Move(other, ids["user1"]); !errors.Is(err, ErrNoThread) {
		t.Errorf("move of unattached err %v", err)
	}
}

// twoLeaves builds SFQ leaves /x and /y with thread a attached to /x.
func twoLeaves(t *testing.T) (s *Structure, a *sched.Thread, x, y NodeID) {
	t.Helper()
	s = NewStructure()
	x, errX := s.Mknod("x", RootID, 1, q())
	y, errY := s.Mknod("y", RootID, 1, q())
	if err := errors.Join(errX, errY); err != nil {
		t.Fatal(err)
	}
	a = sched.NewThread(1, "a", 1)
	must(s.Attach(a, x))
	return s, a, x, y
}

// pickA enqueues a and picks it, leaving it uncharged.
func pickA(t *testing.T, s *Structure, a *sched.Thread) {
	t.Helper()
	s.Enqueue(a, 0)
	if got := s.Pick(0); got != a {
		t.Fatalf("Pick = %v, want %v", got, a)
	}
}

// TestMoveRefusesPickedThread: Charge charges the picked thread at the
// leaf it was picked from, so until then Move refuses it, whatever its
// State says.
func TestMoveRefusesPickedThread(t *testing.T) {
	s, a, _, y := twoLeaves(t)
	pickA(t, s, a)
	if err := s.Move(a, y); !errors.Is(err, ErrThreadRunning) {
		t.Fatalf("Move of the picked thread: err %v, want ErrThreadRunning", err)
	}
	s.Charge(a, 1, 0, false)
	if err := s.Move(a, y); err != nil {
		t.Fatalf("Move after its charge: %v", err)
	}
}

// TestDetachRefusesPickedThread is TestMoveRefusesPickedThread for Detach.
func TestDetachRefusesPickedThread(t *testing.T) {
	s, a, _, _ := twoLeaves(t)
	pickA(t, s, a)
	if err := s.Detach(a); !errors.Is(err, ErrThreadRunning) {
		t.Fatalf("Detach of the picked thread: err %v, want ErrThreadRunning", err)
	}
	s.Charge(a, 1, 0, false)
	if err := s.Detach(a); err != nil {
		t.Fatalf("Detach after its charge: %v", err)
	}
}

// TestLoadStateRejectsPickedAtOtherLeaf: a checkpoint whose picked-at
// node is not the picked thread's leaf must fail to load, not panic at
// the next Charge.
func TestLoadStateRejectsPickedAtOtherLeaf(t *testing.T) {
	s, a, _, y := twoLeaves(t)
	pickA(t, s, a)
	var e sim.Enc
	if err := s.SaveState(&e); err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		r, ra, _, _ := twoLeaves(t)
		return r.LoadState(sim.NewDec(b), func(id int) *sched.Thread {
			if id == ra.ID {
				return ra
			}
			return nil
		})
	}
	if err := load(e.Bytes()); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	// The header is seq, runnable count, picked thread, picked-at node.
	b := e.Bytes()
	binary.LittleEndian.PutUint64(b[24:32], uint64(y))
	if err := load(b); err == nil {
		t.Fatal("LoadState accepted a picked-at node that is not the picked thread's leaf")
	}
}

// TestMoveRoundTripKeepsLeafTags pins what hsfq_move relies on: a thread
// that leaves an SFQ leaf and comes back resumes there from the finish
// tag it left with, S = max(v, F), and both leaves keep checkpointing its
// entry while it is away.
func TestMoveRoundTripKeepsLeafTags(t *testing.T) {
	s := NewStructure()
	aID, err := s.Mknod("a", RootID, 1, q())
	if err != nil {
		t.Fatal(err)
	}
	bID, err := s.Mknod("b", RootID, 1, q())
	if err != nil {
		t.Fatal(err)
	}
	leafA := s.Node(aID).Leaf().(*sched.SFQ)
	leafB := s.Node(bID).Leaf().(*sched.SFQ)
	mover := sched.NewThread(1, "mover", 1)
	peer := sched.NewThread(2, "peer", 4) // stays in a, short quanta
	for _, th := range []*sched.Thread{mover, peer} {
		if err := s.Attach(th, aID); err != nil {
			t.Fatal(err)
		}
		s.Enqueue(th, 0)
	}
	// The mover takes one long quantum per visit and the heavier peer
	// short ones, so when the mover returns its finish tag is still ahead
	// of a's virtual time and the stamp shows whether a kept it.
	now := sim.Time(0)
	runAndBlock := func() {
		for {
			p := s.Pick(now)
			now += sim.Millisecond
			if p == mover {
				s.Charge(p, 50_000_000, now, false)
				mover.State = sched.StateBlocked
				return
			}
			s.Charge(p, 1_000_000, now, true)
		}
	}

	runAndBlock()
	_, finish := leafA.Tags(mover)
	if err := s.Move(mover, bID); err != nil {
		t.Fatal(err)
	}
	s.Enqueue(mover, now)
	runAndBlock()
	if err := s.Move(mover, aID); err != nil {
		t.Fatal(err)
	}

	if _, f := leafA.Tags(mover); f != finish {
		t.Fatalf("leaf a finish tag after round trip %v, want %v", f, finish)
	}
	want := max(leafA.VirtualTime(), finish)
	if leafA.VirtualTime() >= finish {
		t.Fatalf("v(a)=%v not below F=%v: the stamp cannot show F was kept", leafA.VirtualTime(), finish)
	}
	s.Enqueue(mover, now)
	if start, _ := leafA.Tags(mover); start != want {
		t.Errorf("re-entry start tag %v, want max(v, F) = %v", start, want)
	}

	byID := map[int]*sched.Thread{mover.ID: mover, peer.ID: peer}
	for name, leaf := range map[string]*sched.SFQ{"a": leafA, "b": leafB} {
		var e sim.Enc
		if err := leaf.SaveState(&e); err != nil {
			t.Fatal(err)
		}
		listed := false
		resolve := func(id int) *sched.Thread {
			listed = listed || id == mover.ID
			return byID[id]
		}
		if err := q().LoadState(sim.NewDec(e.Bytes()), resolve); err != nil {
			t.Fatalf("leaf %s: %v", name, err)
		}
		if !listed {
			t.Errorf("leaf %s checkpoint does not list the mover", name)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAdminOps(t *testing.T) {
	s, ids := buildPaperFig2(t)
	if err := s.SetNodeWeight(ids["soft-real-time"], 5); err != nil {
		t.Fatal(err)
	}
	if w, _ := s.NodeWeightOf(ids["soft-real-time"]); w != 5 {
		t.Errorf("weight %v", w)
	}
	if err := s.SetNodeWeight(RootID, 2); err == nil {
		t.Error("set weight of root allowed")
	}
	if err := s.SetNodeWeight(ids["user1"], 0); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight err %v", err)
	}
	if err := s.SetNodeWeight(999, 1); !errors.Is(err, ErrNoNode) {
		t.Errorf("unknown node err %v", err)
	}
	if _, err := s.NodeWeightOf(999); !errors.Is(err, ErrNoNode) {
		t.Errorf("weight of unknown err %v", err)
	}
}

func TestBandwidth(t *testing.T) {
	s, ids := buildPaperFig2(t)
	// Fig. 2: best-effort gets 6/10 of the root; user1 half of that.
	if bw, _ := s.Bandwidth(ids["best-effort"]); !near(bw, 0.6) {
		t.Errorf("best-effort bandwidth %v", bw)
	}
	if bw, _ := s.Bandwidth(ids["user1"]); !near(bw, 0.3) {
		t.Errorf("user1 bandwidth %v", bw)
	}
	if bw, _ := s.Bandwidth(RootID); bw != 1 {
		t.Errorf("root bandwidth %v", bw)
	}
	if _, err := s.Bandwidth(999); !errors.Is(err, ErrNoNode) {
		t.Errorf("unknown err %v", err)
	}
}

func TestInfoDepthWalk(t *testing.T) {
	s, ids := buildPaperFig2(t)
	info, err := s.Info(ids["user1"])
	if err != nil {
		t.Fatal(err)
	}
	if !info.Leaf || info.LeafName != "sfq" || info.Path != "/best-effort/user1" {
		t.Errorf("info %+v", info)
	}
	if d, _ := s.Depth(ids["user1"]); d != 2 {
		t.Errorf("depth %d", d)
	}
	if d, _ := s.Depth(RootID); d != 0 {
		t.Errorf("root depth %d", d)
	}
	count := 0
	s.Walk(func(*Node) { count++ })
	if count != 6 {
		t.Errorf("walked %d nodes, want 6", count)
	}
	if _, err := s.Info(999); !errors.Is(err, ErrNoNode) {
		t.Errorf("info unknown err %v", err)
	}
	if _, err := s.Depth(999); !errors.Is(err, ErrNoNode) {
		t.Errorf("depth unknown err %v", err)
	}
}

func TestThreadsListingSorted(t *testing.T) {
	s, ids := buildPaperFig2(t)
	for _, id := range []int{5, 2, 9} {
		th := sched.NewThread(id, "t", 1)
		if err := s.Attach(th, ids["user1"]); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := s.Threads(ids["user1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0].ID != 2 || ts[1].ID != 5 || ts[2].ID != 9 {
		t.Errorf("threads %v", ts)
	}
	if _, err := s.Threads(ids["best-effort"]); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("threads of non-leaf err %v", err)
	}
}

func TestStringAndDOT(t *testing.T) {
	s, ids := buildPaperFig2(t)
	th := sched.NewThread(1, "t", 1)
	if err := s.Attach(th, ids["user1"]); err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"best-effort", "user1", "leaf=sfq", "w=6"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	var b strings.Builder
	if err := s.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{"digraph", "user2", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestWriteScript(t *testing.T) {
	s, ids := buildPaperFig2(t)
	_ = ids
	var b strings.Builder
	if err := s.WriteScript(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"mknod /hard-real-time 1 edf",
		"mknod /soft-real-time 3 sfq",
		"mknod /best-effort 6\n",
		"mknod /best-effort/user1 1 sfq",
		"mknod /best-effort/user2 1 svr4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("script missing %q:\n%s", want, out)
		}
	}
	if w := s.Node(ids["user2"]).Weight(); w != 1 {
		t.Errorf("Weight accessor %v", w)
	}
}
