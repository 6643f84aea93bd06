package sched

import (
	"fmt"
	"math"
	"slices"

	"hsfq/internal/sim"
)

// Stater is implemented by schedulers whose mutable state can be captured
// into a checkpoint and restored into a freshly rebuilt simulation. Static
// configuration (quanta, dispatch tables, request sizes) is NOT
// serialized — the rebuild recreates it deterministically — only state
// that advances as the simulation runs: tags, queues, passes, budgets,
// RNG streams.
//
// Encodings are canonical: per-thread entries are emitted in thread-ID
// order (the order of each leaf's Table), so identical state always
// produces identical bytes. Load resolves thread IDs through the supplied
// resolve function and validates every structural invariant it relies on
// (strictly increasing IDs, no thread queued twice, picked threads
// runnable), so corrupt or hostile checkpoints fail with an error rather
// than corrupting the scheduler.
//
// Heaps are rebuilt by pushing runnable entries in thread-ID order. That
// is sound because every heap in this package tie-breaks on a monotone
// sequence number: the ordering is a strict total order, so the sequence
// of minima — the only thing the scheduling trace observes — does not
// depend on the heap's internal array layout.
type Stater interface {
	SaveState(e *sim.Enc) error
	LoadState(d *sim.Dec, resolve func(id int) *Thread) error
}

var (
	_ Stater = (*SFQ)(nil)
	_ Stater = (*RoundRobin)(nil)
	_ Stater = (*FIFO)(nil)
	_ Stater = (*Priority)(nil)
	_ Stater = (*EDF)(nil)
	_ Stater = (*RM)(nil)
	_ Stater = (*SVR4)(nil)
	_ Stater = (*Lottery)(nil)
	_ Stater = (*Stride)(nil)
	_ Stater = (*EEVDF)(nil)
	_ Stater = (*Reserves)(nil)
	_ Stater = (*MLFQ)(nil)
	_ Stater = (*DRR)(nil)
)

// encTID appends a thread reference: the ID, or -1 for "none".
func encTID(e *sim.Enc, t *Thread) {
	if t == nil {
		e.Int(-1)
		return
	}
	e.Int(t.ID)
}

// decTID reads a thread ID written by encTID and resolves it. A -1
// yields (nil, nil); an unknown ID is an error.
func decTID(d *sim.Dec, resolve func(id int) *Thread, what string) (*Thread, error) {
	id := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if id == -1 {
		return nil, nil
	}
	t := resolve(id)
	if t == nil {
		return nil, fmt.Errorf("sched: %s references unknown thread %d", what, id)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// SFQ

// SaveState implements Stater. Tag totals are stored as raw float bits:
// they were accumulated incrementally, so recomputing them from weights
// would not reproduce the exact values the uninterrupted run carries.
func (s *SFQ) SaveState(e *sim.Enc) error {
	e.F64(s.maxFinish)
	e.U64(s.seq)
	e.F64(s.total)
	if s.inService != nil {
		encTID(e, s.inService.t)
	} else {
		e.Int(-1)
	}

	e.Int(s.donated.Len())
	for _, r := range s.donated.Rows() {
		e.Int(r.T.ID)
		e.F64(r.E)
	}

	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.F64(en.Tag)
		e.F64(en.finish)
		e.Time(en.quantum)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	}
	return nil
}

// LoadState implements Stater.
func (s *SFQ) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("sfq: LoadState into a scheduler with runnable threads")
	}
	s.maxFinish = d.F64()
	s.seq = d.U64()
	s.total = d.F64()
	svcID := d.Int()

	s.donated = Table[float64]{}
	n := d.Count(16)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		amt := d.F64()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("sfq: donation thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("sfq: donation references unknown thread %d", id)
		}
		s.donated.Put(t, amt)
	}

	n = d.Count(41)
	prev = math.MinInt
	s.inService = nil
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("sfq: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("sfq: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.Queued() {
			return fmt.Errorf("sfq: thread %d already runnable", id)
		}
		en.Tag = d.F64()
		en.finish = d.F64()
		en.quantum = d.Time()
		en.Seq = d.U64()
		runnable := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if en.quantum < 0 {
			return fmt.Errorf("sfq: negative quantum for thread %d", id)
		}
		if runnable {
			s.heap.Push(&en.Tagged)
		}
		if id == svcID {
			s.inService = en
		}
	}
	if svcID != -1 {
		if s.inService == nil {
			return fmt.Errorf("sfq: in-service thread %d not in checkpoint", svcID)
		}
		if !s.inService.Queued() {
			return fmt.Errorf("sfq: in-service thread %d not runnable", svcID)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// RoundRobin / FIFO: the queue order IS the state.

// SaveState implements Stater.
func (r *RoundRobin) SaveState(e *sim.Enc) error {
	e.Int(len(r.queue))
	for _, t := range r.queue {
		e.Int(t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (r *RoundRobin) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if len(r.queue) != 0 {
		return fmt.Errorf("rr: LoadState into a scheduler with runnable threads")
	}
	n := d.Count(8)
	for i := 0; i < n; i++ {
		t, err := decTID(d, resolve, "rr queue")
		if err != nil {
			return err
		}
		if t == nil || r.index(t) != -1 {
			return fmt.Errorf("rr: invalid or duplicate queue entry at position %d", i)
		}
		r.queue = append(r.queue, t)
	}
	return d.Err()
}

// SaveState implements Stater.
func (f *FIFO) SaveState(e *sim.Enc) error {
	e.Int(len(f.queue))
	for _, t := range f.queue {
		e.Int(t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (f *FIFO) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if len(f.queue) != 0 {
		return fmt.Errorf("fifo: LoadState into a scheduler with runnable threads")
	}
	n := d.Count(8)
	for i := 0; i < n; i++ {
		t, err := decTID(d, resolve, "fifo queue")
		if err != nil {
			return err
		}
		if t == nil || f.index(t) != -1 {
			return fmt.Errorf("fifo: invalid or duplicate queue entry at position %d", i)
		}
		f.queue = append(f.queue, t)
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// Priority

// SaveState implements Stater.
func (s *Priority) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Int(en.prio)
		e.U64(en.seq)
		e.Bool(en.idx != -1)
	}
	return nil
}

// LoadState implements Stater.
func (s *Priority) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("priority: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	n := d.Count(25)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("priority: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("priority: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.idx != -1 {
			return fmt.Errorf("priority: thread %d already runnable", id)
		}
		en.prio = d.Int()
		en.seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(en)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// EDF

// SaveState implements Stater.
func (s *EDF) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Time(en.deadline)
		e.U64(en.seq)
		e.Bool(en.idx != -1)
	}
	return nil
}

// LoadState implements Stater.
func (s *EDF) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("edf: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	n := d.Count(25)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("edf: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("edf: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.idx != -1 {
			return fmt.Errorf("edf: thread %d already runnable", id)
		}
		en.deadline = d.Time()
		en.seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(en)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// RM

// SaveState implements Stater.
func (s *RM) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Time(en.key.period)
		e.Int(en.key.prio)
		e.U64(en.seq)
		e.Bool(en.idx != -1)
	}
	return nil
}

// LoadState implements Stater.
func (s *RM) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("rm: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	n := d.Count(33)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("rm: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("rm: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.idx != -1 {
			return fmt.Errorf("rm: thread %d already runnable", id)
		}
		en.key.period = d.Time()
		en.key.prio = d.Int()
		en.seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(en)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// SVR4

// SaveState implements Stater. Per-priority FIFO queue order is state:
// front-inserted preempted threads must come back out ahead of
// tail-inserted ones, so queues are serialized as ordered ID lists, one
// per occupied global priority (ascending).
func (s *SVR4) SaveState(e *sim.Enc) error {
	if s.picked != nil {
		encTID(e, s.picked.t)
	} else {
		e.Int(-1)
	}
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Int(en.class)
		e.Int(en.level)
		e.Time(en.waitFrom)
	}
	s.prioScratch = s.prioScratch[:0]
	for p := range s.queues {
		s.prioScratch = append(s.prioScratch, p)
	}
	slices.Sort(s.prioScratch)
	e.Int(len(s.prioScratch))
	for _, p := range s.prioScratch {
		q := s.queues[p]
		e.Int(p)
		e.Int(len(q))
		for _, en := range q {
			e.Int(en.t.ID)
		}
	}
	return nil
}

// LoadState implements Stater. Runnability is derived from queue
// membership; every queued thread's saved class and level must place it
// exactly on the priority it was saved under.
func (s *SVR4) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.count != 0 {
		return fmt.Errorf("svr4: LoadState into a scheduler with runnable threads")
	}
	pickedID := d.Int()
	n := d.Count(32)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("svr4: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("svr4: checkpoint references unknown thread %d", id)
		}
		en := s.entry(t)
		en.class = d.Int()
		en.level = d.Int()
		en.waitFrom = d.Time()
		en.runnable = false
		if err := d.Err(); err != nil {
			return err
		}
		switch en.class {
		case classTS:
			if en.level < 0 || en.level >= TSLevels {
				return fmt.Errorf("svr4: TS level %d of thread %d out of range", en.level, id)
			}
		case classRT:
			if en.level < 0 || en.level >= RTLevels {
				return fmt.Errorf("svr4: RT priority %d of thread %d out of range", en.level, id)
			}
		default:
			return fmt.Errorf("svr4: unknown class %d of thread %d", en.class, id)
		}
	}

	s.picked = nil
	np := d.Count(24)
	prevP := math.MinInt
	for i := 0; i < np; i++ {
		p := d.Int()
		cnt := d.Count(8)
		if err := d.Err(); err != nil {
			return err
		}
		if p <= prevP {
			return fmt.Errorf("svr4: queue priorities not strictly increasing at %d", p)
		}
		prevP = p
		if cnt == 0 {
			return fmt.Errorf("svr4: empty queue at priority %d", p)
		}
		for j := 0; j < cnt; j++ {
			id := d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			t := resolve(id)
			if t == nil {
				return fmt.Errorf("svr4: queue references unknown thread %d", id)
			}
			en := s.entries.Get(t)
			if en == nil {
				return fmt.Errorf("svr4: queued thread %d has no entry", id)
			}
			if en.runnable {
				return fmt.Errorf("svr4: thread %d queued twice", id)
			}
			if en.globalPrio() != p {
				return fmt.Errorf("svr4: thread %d queued at priority %d but carries %d", id, p, en.globalPrio())
			}
			en.runnable = true
			s.queues[p] = append(s.queues[p], en)
			s.count++
			if id == pickedID {
				s.picked = en
			}
		}
	}
	if pickedID != -1 && s.picked == nil {
		return fmt.Errorf("svr4: picked thread %d is not runnable", pickedID)
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// Lottery

// SaveState implements Stater. The RNG state is essential: without it a
// resumed run would hold different lotteries and diverge immediately.
func (l *Lottery) SaveState(e *sim.Enc) error {
	e.U64(l.rng.State())
	e.F64(l.total)
	encTID(e, l.picked)
	e.Int(len(l.queue))
	for _, t := range l.queue {
		e.Int(t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (l *Lottery) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if len(l.queue) != 0 {
		return fmt.Errorf("lottery: LoadState into a scheduler with runnable threads")
	}
	st := d.U64()
	l.total = d.F64()
	picked, err := decTID(d, resolve, "lottery picked thread")
	if err != nil {
		return err
	}
	n := d.Count(8)
	for i := 0; i < n; i++ {
		t, err := decTID(d, resolve, "lottery queue")
		if err != nil {
			return err
		}
		if t == nil || l.index(t) != -1 {
			return fmt.Errorf("lottery: invalid or duplicate queue entry at position %d", i)
		}
		l.queue = append(l.queue, t)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if picked != nil && l.index(picked) == -1 {
		return fmt.Errorf("lottery: picked thread %d is not queued", picked.ID)
	}
	l.picked = picked
	l.rng.SetState(st)
	return nil
}

// ---------------------------------------------------------------------------
// Stride

// SaveState implements Stater.
func (s *Stride) SaveState(e *sim.Enc) error {
	e.F64(s.global)
	e.U64(s.seq)
	e.F64(s.total)
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.F64(en.Tag)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	}
	return nil
}

// LoadState implements Stater.
func (s *Stride) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("stride: LoadState into a scheduler with runnable threads")
	}
	s.global = d.F64()
	s.seq = d.U64()
	s.total = d.F64()
	n := d.Count(25)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("stride: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("stride: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.Queued() {
			return fmt.Errorf("stride: thread %d already runnable", id)
		}
		en.Tag = d.F64()
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// EEVDF

// SaveState implements Stater.
func (s *EEVDF) SaveState(e *sim.Enc) error {
	e.F64(s.vtime)
	e.F64(s.total)
	e.U64(s.seq)
	if s.picked != nil {
		encTID(e, s.picked.t)
	} else {
		e.Int(-1)
	}
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.F64(en.ve)
		e.F64(en.Tag)
		e.I64(int64(en.served))
		e.U64(en.Seq)
		e.Bool(en.Queued())
	}
	return nil
}

// LoadState implements Stater.
func (s *EEVDF) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("eevdf: LoadState into a scheduler with runnable threads")
	}
	s.vtime = d.F64()
	s.total = d.F64()
	s.seq = d.U64()
	pickedID := d.Int()
	s.picked = nil
	n := d.Count(41)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("eevdf: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("eevdf: checkpoint references unknown thread %d", id)
		}
		en := s.entryFor(t)
		if en.Queued() {
			return fmt.Errorf("eevdf: thread %d already runnable", id)
		}
		en.ve = d.F64()
		en.Tag = d.F64()
		en.served = Work(d.I64())
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		if id == pickedID {
			s.picked = en
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if pickedID != -1 {
		if s.picked == nil || !s.picked.Queued() {
			return fmt.Errorf("eevdf: picked thread %d is not runnable", pickedID)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// MLFQ

// SaveState implements Stater. Like SVR4, per-level FIFO order is state
// (front-inserted preempted threads come back out first), so each occupied
// level is serialized as an ordered ID list after the per-thread entries.
func (s *MLFQ) SaveState(e *sim.Enc) error {
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Int(en.level)
		e.Time(en.waitFrom)
	}
	occupied := 0
	for i := range s.levels {
		if s.levels[i].head != nil {
			occupied++
		}
	}
	e.Int(occupied)
	for i := range s.levels {
		if s.levels[i].head == nil {
			continue
		}
		n := 0
		for en := s.levels[i].head; en != nil; en = en.next {
			n++
		}
		e.Int(i)
		e.Int(n)
		for en := s.levels[i].head; en != nil; en = en.next {
			e.Int(en.t.ID)
		}
	}
	return nil
}

// LoadState implements Stater. Runnability is derived from queue
// membership; every queued thread's saved level must place it exactly on
// the level it was saved under.
func (s *MLFQ) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.count != 0 {
		return fmt.Errorf("mlfq: LoadState into a scheduler with runnable threads")
	}
	n := d.Count(24)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("mlfq: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("mlfq: checkpoint references unknown thread %d", id)
		}
		en := s.entry(t)
		en.level = d.Int()
		en.waitFrom = d.Time()
		en.queued = false
		if err := d.Err(); err != nil {
			return err
		}
		if en.level < 0 || en.level >= len(s.levels) {
			return fmt.Errorf("mlfq: level %d of thread %d out of range", en.level, id)
		}
	}
	nl := d.Count(16)
	prevL := math.MinInt
	for i := 0; i < nl; i++ {
		lvl := d.Int()
		cnt := d.Count(8)
		if err := d.Err(); err != nil {
			return err
		}
		if lvl <= prevL {
			return fmt.Errorf("mlfq: queue levels not strictly increasing at %d", lvl)
		}
		prevL = lvl
		if lvl < 0 || lvl >= len(s.levels) {
			return fmt.Errorf("mlfq: queue at level %d out of range", lvl)
		}
		if cnt == 0 {
			return fmt.Errorf("mlfq: empty queue at level %d", lvl)
		}
		for j := 0; j < cnt; j++ {
			id := d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			t := resolve(id)
			if t == nil {
				return fmt.Errorf("mlfq: queue references unknown thread %d", id)
			}
			en := s.entries.Get(t)
			if en == nil {
				return fmt.Errorf("mlfq: queued thread %d has no entry", id)
			}
			if en.queued {
				return fmt.Errorf("mlfq: thread %d queued twice", id)
			}
			if en.level != lvl {
				return fmt.Errorf("mlfq: thread %d queued at level %d but carries %d", id, lvl, en.level)
			}
			wf := en.waitFrom
			s.insert(en, wf, tailInsert)
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// DRR

// SaveState implements Stater. The adaptive quanta are per-thread learned
// state; the round-robin queue order is serialized as an ordered ID list.
func (s *DRR) SaveState(e *sim.Enc) error {
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.Time(en.quantum)
	}
	e.Int(s.count)
	for en := s.list.head; en != nil; en = en.next {
		e.Int(en.t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (s *DRR) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.count != 0 {
		return fmt.Errorf("drr: LoadState into a scheduler with runnable threads")
	}
	n := d.Count(16)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("drr: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("drr: checkpoint references unknown thread %d", id)
		}
		en := s.entry(t)
		en.quantum = d.Time()
		en.queued = false
		if err := d.Err(); err != nil {
			return err
		}
		if en.quantum < s.minQ || en.quantum > s.maxQ {
			return fmt.Errorf("drr: quantum %v of thread %d outside [%v, %v]", en.quantum, id, s.minQ, s.maxQ)
		}
	}
	nq := d.Count(8)
	for i := 0; i < nq; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("drr: queue references unknown thread %d", id)
		}
		en := s.entries.Get(t)
		if en == nil {
			return fmt.Errorf("drr: queued thread %d has no entry", id)
		}
		if en.queued {
			return fmt.Errorf("drr: thread %d queued twice", id)
		}
		s.insert(en, tailInsert)
	}
	return d.Err()
}

// ---------------------------------------------------------------------------
// Reserves

// SaveState implements Stater. The background band is an ordered
// round-robin queue, so it is serialized as an ordered ID list; reserved
// (budgeted) membership is per-entry and the heap is rebuilt from it.
func (s *Reserves) SaveState(e *sim.Enc) error {
	e.Int(s.count)
	if s.picked != nil {
		encTID(e, s.picked.t)
	} else {
		e.Int(-1)
	}
	e.Int(s.entries.Len())
	for _, r := range s.entries.Rows() {
		en := r.E
		e.Int(en.t.ID)
		e.I64(int64(en.capacity))
		e.Time(en.period)
		e.I64(int64(en.budget))
		e.Time(en.refillAt)
		e.Bool(en.runnable)
		e.Bool(en.idx != -1)
	}
	e.Int(len(s.bg))
	for _, en := range s.bg {
		e.Int(en.t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (s *Reserves) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.count != 0 {
		return fmt.Errorf("reserves: LoadState into a scheduler with runnable threads")
	}
	savedCount := d.Int()
	pickedID := d.Int()
	s.picked = nil
	n := d.Count(42)
	prev := math.MinInt
	runnable := 0
	for i := 0; i < n; i++ {
		id := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("reserves: thread IDs not strictly increasing at %d", id)
		}
		prev = id
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("reserves: checkpoint references unknown thread %d", id)
		}
		en := s.entry(t)
		en.capacity = Work(d.I64())
		en.period = d.Time()
		en.budget = Work(d.I64())
		en.refillAt = d.Time()
		en.runnable = d.Bool()
		reserved := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if en.capacity != 0 && (en.capacity < 0 || en.period <= 0) {
			return fmt.Errorf("reserves: thread %d with invalid reserve C=%d T=%v", id, en.capacity, en.period)
		}
		if en.refillAt < -1 {
			return fmt.Errorf("reserves: thread %d with invalid replenishment time %v", id, en.refillAt)
		}
		if reserved && !en.runnable {
			return fmt.Errorf("reserves: thread %d reserved but not runnable", id)
		}
		en.idx = -1
		if reserved {
			// Pushing in thread-ID order is sound: the heap order
			// (refillAt, thread ID) is a strict total order.
			s.heap.Push(en)
		}
		if en.runnable {
			runnable++
		}
		if id == pickedID {
			s.picked = en
		}
	}
	nbg := d.Count(8)
	if d.Err() == nil && nbg != runnable-s.heap.Len() {
		return fmt.Errorf("reserves: background band has %d threads, want %d", nbg, runnable-s.heap.Len())
	}
	for i := 0; i < nbg; i++ {
		t, err := decTID(d, resolve, "reserves background band")
		if err != nil {
			return err
		}
		if t == nil {
			return fmt.Errorf("reserves: invalid background entry at position %d", i)
		}
		en := s.entries.Get(t)
		if en == nil || !en.runnable || en.idx != -1 {
			return fmt.Errorf("reserves: background thread %d not runnable or already reserved", t.ID)
		}
		for _, x := range s.bg {
			if x == en {
				return fmt.Errorf("reserves: thread %d in background band twice", t.ID)
			}
		}
		s.bg = append(s.bg, en)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if runnable != savedCount {
		return fmt.Errorf("reserves: %d runnable threads but count %d", runnable, savedCount)
	}
	s.count = runnable
	if pickedID != -1 && (s.picked == nil || !s.picked.runnable) {
		return fmt.Errorf("reserves: picked thread %d is not runnable", pickedID)
	}
	return nil
}
