package sched

import (
	"fmt"
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
// Encodings are canonical: per-thread entries are written by
// Table.SaveRows in thread-ID order, so identical state always produces
// identical bytes. Load reads them back through LoadRows, and ordered
// queues through loadQueue, which own the ID order, the resolution of
// each ID through the supplied resolve function and the rejection of
// unknown threads. Each leaf adds only its own checks (ranges, no thread
// queued twice, picked threads runnable), so corrupt or hostile
// checkpoints fail with an error rather than corrupting the scheduler.
//
// Heaps are rebuilt by pushing runnable entries in thread-ID order. That
// is sound because every heap in this package tie-breaks on a sequence
// number no two queued entries share: the ordering is a strict total
// order, so the sequence of minima — the only thing the scheduling trace
// observes — does not depend on the heap's internal array layout.
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

// SaveRows appends tb's rows in thread-ID order: the row count, then per
// row the thread's ID followed by whatever row writes for its entry.
// LoadRows reads the list back.
func (tb *Table[E]) SaveRows(e *sim.Enc, row func(E)) {
	e.Int(len(tb.rows))
	for _, r := range tb.rows {
		e.Int(r.T.ID)
		row(r.E)
	}
}

// LoadRows reads a row list written by SaveRows: Dec.Rows, with each ID
// resolved to a thread that carries that ID before row decodes the rest
// of the row. Rows therefore name distinct threads, in ID order. Each row
// is at least minBytes long, its ID included; who names the list in
// errors.
func LoadRows(d *sim.Dec, who string, minBytes int, resolve func(id int) *Thread, row func(*Thread) error) error {
	return d.Rows(who, minBytes, func(id int) error {
		t := resolve(id)
		if t == nil {
			return fmt.Errorf("%s: checkpoint references unknown thread %d", who, id)
		}
		if t.ID != id {
			return fmt.Errorf("%s: thread ID %d resolves to thread %v", who, id, t)
		}
		return row(t)
	})
}

// loadQueue reads an ordered list of thread IDs, a count and then the
// IDs in queue order, and hands each resolved thread to add. -1 and
// unknown IDs are errors; add keeps the leaf's own duplicate and
// placement checks.
func loadQueue(d *sim.Dec, who string, resolve func(id int) *Thread, add func(*Thread) error) error {
	n := d.Count(8)
	for i := 0; i < n; i++ {
		t, err := decTID(d, resolve, who)
		if err != nil {
			return err
		}
		if t == nil {
			return fmt.Errorf("sched: %s holds no thread at position %d", who, i)
		}
		if err := add(t); err != nil {
			return err
		}
	}
	return d.Err()
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

	s.donated.SaveRows(e, e.F64)
	s.entries.SaveRows(e, func(en *sfqEntry) {
		e.F64(en.Tag)
		e.F64(en.finish)
		e.Time(en.quantum)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
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
	err := LoadRows(d, "sfq donation", 16, resolve, func(t *Thread) error {
		s.donated.Put(t, d.F64())
		return nil
	})
	if err != nil {
		return err
	}

	s.inService = nil
	err = LoadRows(d, "sfq", 41, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		en.Tag = d.F64()
		en.finish = d.F64()
		en.quantum = d.Time()
		en.Seq = d.U64()
		runnable := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if en.quantum < 0 {
			return fmt.Errorf("sfq: negative quantum for thread %d", t.ID)
		}
		if runnable {
			s.heap.Push(&en.Tagged)
		}
		if t.ID == svcID {
			s.inService = en
		}
		return nil
	})
	if err != nil {
		return err
	}
	if svcID != -1 && (s.inService == nil || !s.inService.Queued()) {
		return fmt.Errorf("sfq: in-service thread %d not runnable", svcID)
	}
	return nil
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
	return loadQueue(d, "rr queue", resolve, func(t *Thread) error {
		if r.index(t) != -1 {
			return fmt.Errorf("rr: thread %d queued twice", t.ID)
		}
		r.queue = append(r.queue, t)
		return nil
	})
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
	return loadQueue(d, "fifo queue", resolve, func(t *Thread) error {
		if f.index(t) != -1 {
			return fmt.Errorf("fifo: thread %d queued twice", t.ID)
		}
		f.queue = append(f.queue, t)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Priority

// SaveState implements Stater.
func (s *Priority) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.entries.SaveRows(e, func(en *prioEntry) {
		e.Int(^en.Tag)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
	return nil
}

// LoadState implements Stater.
func (s *Priority) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("priority: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	return LoadRows(d, "priority", 25, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		en.Tag = ^d.Int()
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// EDF

// SaveState implements Stater.
func (s *EDF) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.entries.SaveRows(e, func(en *edfEntry) {
		e.Time(en.Tag)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
	return nil
}

// LoadState implements Stater.
func (s *EDF) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("edf: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	return LoadRows(d, "edf", 25, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		en.Tag = d.Time()
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// RM

// SaveState implements Stater.
func (s *RM) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.entries.SaveRows(e, func(en *rmEntry) {
		e.Time(en.period)
		e.Int(en.prio)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
	return nil
}

// LoadState implements Stater.
func (s *RM) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.heap.Len() != 0 {
		return fmt.Errorf("rm: LoadState into a scheduler with runnable threads")
	}
	s.seq = d.U64()
	return LoadRows(d, "rm", 33, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		period, prio := d.Time(), d.Int()
		en.setKey(period, prio)
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		return nil
	})
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
	s.entries.SaveRows(e, func(en *svr4Entry) {
		e.Int(en.class)
		e.Int(en.level)
		e.Time(en.waitFrom)
	})
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
	err := LoadRows(d, "svr4", 32, resolve, func(t *Thread) error {
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
				return fmt.Errorf("svr4: TS level %d of thread %d out of range", en.level, t.ID)
			}
		case classRT:
			if en.level < 0 || en.level >= RTLevels {
				return fmt.Errorf("svr4: RT priority %d of thread %d out of range", en.level, t.ID)
			}
		default:
			return fmt.Errorf("svr4: unknown class %d of thread %d", en.class, t.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}

	s.picked = nil
	err = d.Rows("svr4 queue", 24, func(p int) error {
		err := loadQueue(d, "svr4 queue", resolve, func(t *Thread) error {
			en := s.entries.Get(t)
			if en == nil {
				return fmt.Errorf("svr4: queued thread %d has no entry", t.ID)
			}
			if en.runnable {
				return fmt.Errorf("svr4: thread %d queued twice", t.ID)
			}
			if en.globalPrio() != p {
				return fmt.Errorf("svr4: thread %d queued at priority %d but carries %d", t.ID, p, en.globalPrio())
			}
			en.runnable = true
			s.queues[p] = append(s.queues[p], en)
			s.count++
			if t.ID == pickedID {
				s.picked = en
			}
			return nil
		})
		if err == nil && len(s.queues[p]) == 0 {
			return fmt.Errorf("svr4: empty queue at priority %d", p)
		}
		return err
	})
	if err != nil {
		return err
	}
	if pickedID != -1 && s.picked == nil {
		return fmt.Errorf("svr4: picked thread %d is not runnable", pickedID)
	}
	return nil
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
	err = loadQueue(d, "lottery queue", resolve, func(t *Thread) error {
		if l.index(t) != -1 {
			return fmt.Errorf("lottery: thread %d queued twice", t.ID)
		}
		l.queue = append(l.queue, t)
		return nil
	})
	if err != nil {
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
	s.entries.SaveRows(e, func(en *strideEntry) {
		e.F64(en.Tag)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
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
	return LoadRows(d, "stride", 25, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		en.Tag = d.F64()
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		return nil
	})
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
	s.entries.SaveRows(e, func(en *eevdfEntry) {
		e.F64(en.ve)
		e.F64(en.Tag)
		e.I64(int64(en.served))
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
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
	err := LoadRows(d, "eevdf", 41, resolve, func(t *Thread) error {
		en := s.entryFor(t)
		en.ve = d.F64()
		en.Tag = d.F64()
		en.served = Work(d.I64())
		en.Seq = d.U64()
		if d.Err() == nil && (en.served < 0 || en.served >= s.reqWork) {
			return fmt.Errorf("eevdf: thread %d served %d outside [0, %d)", t.ID, en.served, s.reqWork)
		}
		if d.Bool() && d.Err() == nil {
			s.heap.Push(&en.Tagged)
		}
		if t.ID == pickedID {
			s.picked = en
		}
		return nil
	})
	if err != nil {
		return err
	}
	if pickedID != -1 && (s.picked == nil || !s.picked.Queued()) {
		return fmt.Errorf("eevdf: picked thread %d is not runnable", pickedID)
	}
	return nil
}

// ---------------------------------------------------------------------------
// MLFQ

// SaveState implements Stater. Like SVR4, per-level FIFO order is state
// (front-inserted preempted threads come back out first), so each occupied
// level is serialized as an ordered ID list after the per-thread entries.
func (s *MLFQ) SaveState(e *sim.Enc) error {
	s.entries.SaveRows(e, func(en *mlfqEntry) {
		e.Int(en.level)
		e.Time(en.waitFrom)
	})
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
	err := LoadRows(d, "mlfq", 24, resolve, func(t *Thread) error {
		en := s.entry(t)
		en.level = d.Int()
		en.waitFrom = d.Time()
		en.queued = false
		if err := d.Err(); err != nil {
			return err
		}
		if en.level < 0 || en.level >= len(s.levels) {
			return fmt.Errorf("mlfq: level %d of thread %d out of range", en.level, t.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return d.Rows("mlfq queue", 16, func(lvl int) error {
		if lvl < 0 || lvl >= len(s.levels) {
			return fmt.Errorf("mlfq: queue at level %d out of range", lvl)
		}
		err := loadQueue(d, "mlfq queue", resolve, func(t *Thread) error {
			en := s.entries.Get(t)
			if en == nil {
				return fmt.Errorf("mlfq: queued thread %d has no entry", t.ID)
			}
			if en.queued {
				return fmt.Errorf("mlfq: thread %d queued twice", t.ID)
			}
			if en.level != lvl {
				return fmt.Errorf("mlfq: thread %d queued at level %d but carries %d", t.ID, lvl, en.level)
			}
			s.insert(en, en.waitFrom, tailInsert)
			return nil
		})
		if err == nil && s.levels[lvl].head == nil {
			return fmt.Errorf("mlfq: empty queue at level %d", lvl)
		}
		return err
	})
}

// ---------------------------------------------------------------------------
// DRR

// SaveState implements Stater. The adaptive quanta are per-thread learned
// state; the round-robin queue order is serialized as an ordered ID list.
func (s *DRR) SaveState(e *sim.Enc) error {
	s.entries.SaveRows(e, func(en *drrEntry) { e.Time(en.quantum) })
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
	err := LoadRows(d, "drr", 16, resolve, func(t *Thread) error {
		en := s.entry(t)
		en.quantum = d.Time()
		en.queued = false
		if err := d.Err(); err != nil {
			return err
		}
		if en.quantum < s.minQ || en.quantum > s.maxQ {
			return fmt.Errorf("drr: quantum %v of thread %d outside [%v, %v]", en.quantum, t.ID, s.minQ, s.maxQ)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return loadQueue(d, "drr queue", resolve, func(t *Thread) error {
		en := s.entries.Get(t)
		if en == nil {
			return fmt.Errorf("drr: queued thread %d has no entry", t.ID)
		}
		if en.queued {
			return fmt.Errorf("drr: thread %d queued twice", t.ID)
		}
		s.insert(en, tailInsert)
		return nil
	})
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
	s.entries.SaveRows(e, func(en *resEntry) {
		e.I64(int64(en.capacity))
		e.Time(en.period)
		e.I64(int64(en.budget))
		e.Time(en.Tag)
		e.Bool(en.runnable)
		e.Bool(en.Queued())
	})
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
	runnable := 0
	err := LoadRows(d, "reserves", 42, resolve, func(t *Thread) error {
		en := s.entry(t)
		en.capacity = Work(d.I64())
		en.period = d.Time()
		en.budget = Work(d.I64())
		en.Tag = d.Time()
		en.runnable = d.Bool()
		reserved := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if en.capacity != 0 && (en.capacity < 0 || en.period <= 0) {
			return fmt.Errorf("reserves: thread %d with invalid reserve C=%d T=%v", t.ID, en.capacity, en.period)
		}
		if en.Tag < -1 {
			return fmt.Errorf("reserves: thread %d with invalid replenishment time %v", t.ID, en.Tag)
		}
		if reserved && !en.runnable {
			return fmt.Errorf("reserves: thread %d reserved but not runnable", t.ID)
		}
		if reserved {
			// Pushing in thread-ID order is sound: the heap order
			// (replenishment instant, thread ID) is a strict total order.
			s.heap.Push(&en.Tagged)
		}
		if en.runnable {
			runnable++
		}
		if t.ID == pickedID {
			s.picked = en
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = loadQueue(d, "reserves background band", resolve, func(t *Thread) error {
		en := s.entries.Get(t)
		if en == nil || !en.runnable || en.Queued() {
			return fmt.Errorf("reserves: background thread %d not runnable or already reserved", t.ID)
		}
		if slices.Contains(s.bg, en) {
			return fmt.Errorf("reserves: thread %d in background band twice", t.ID)
		}
		s.bg = append(s.bg, en)
		return nil
	})
	if err != nil {
		return err
	}
	if len(s.bg) != runnable-s.heap.Len() {
		return fmt.Errorf("reserves: background band has %d threads, want %d", len(s.bg), runnable-s.heap.Len())
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
