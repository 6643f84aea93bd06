package sched

import (
	"fmt"

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

// saveQueues appends the non-empty queues of a leaf with one FIFO per
// level, in level order: how many there are, then per queue its key, its
// length and its thread IDs front to back. key and thread read an
// entry's level key and thread. LoadState reads the queues back through
// Dec.Rows, with loadQueue for each.
func saveQueues[E any](e *sim.Enc, queues []runList[E], key func(E) int, thread func(E) *Thread) {
	n := 0
	for i := range queues {
		if queues[i].Len() > 0 {
			n++
		}
	}
	e.Int(n)
	for i := range queues {
		q := &queues[i]
		if q.Len() == 0 {
			continue
		}
		e.Int(key(q.Front().Item))
		e.Int(q.Len())
		for x := q.Front(); x != nil; x = x.Next() {
			e.Int(thread(x.Item).ID)
		}
	}
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
	s.saveRows(e, func(en *tagEntry[float64, sfqTags]) {
		e.F64(en.Tag)
		e.F64(en.x.finish)
		e.Time(en.x.quantum)
	})
	return nil
}

// LoadState implements Stater.
func (s *SFQ) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("sfq"); err != nil {
		return err
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
	err = s.loadRows(d, "sfq", 24, resolve, func(en *tagEntry[float64, sfqTags]) error {
		en.Tag = d.F64()
		en.x.finish = d.F64()
		en.x.quantum = d.Time()
		if en.x.quantum < 0 {
			return fmt.Errorf("sfq: negative quantum for thread %d", en.t.ID)
		}
		if en.t.ID == svcID {
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
// RoundRobin / FIFO / Lottery: the queue order IS the state.

// SaveState implements Stater: the queue's length, then its thread IDs
// front to back.
func (q *threadQueue) SaveState(e *sim.Enc) error {
	e.Int(q.list.Len())
	for x := q.list.Front(); x != nil; x = x.Next() {
		e.Int(x.Item.ID)
	}
	return nil
}

// LoadState implements Stater.
func (q *threadQueue) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if q.list.Len() != 0 {
		return fmt.Errorf("%s: LoadState into a scheduler with runnable threads", q.who)
	}
	return loadQueue(d, q.who+" queue", resolve, func(t *Thread) error {
		x := q.linkFor(t)
		if x.Queued() {
			return fmt.Errorf("%s: thread %d queued twice", q.who, t.ID)
		}
		q.list.PushBack(x)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Tag queues, under sfq, stride, eevdf, edf, rm and priority: every row
// ends in the entry's (Seq, queued).

// saveRows appends the queue's entries in thread-ID order: per row the
// thread's ID, the leaf's own fields, which row writes, then Seq and
// whether the entry is queued. Each leaf writes its counter, seq, in its
// own header.
func (q *tagQueue[K, X]) saveRows(e *sim.Enc, row func(*tagEntry[K, X])) {
	q.entries.SaveRows(e, func(en *tagEntry[K, X]) {
		row(en)
		e.U64(en.Seq)
		e.Bool(en.Queued())
	})
}

// loadable refuses a load into a queue that already holds runnable
// threads.
func (q *tagQueue[K, X]) loadable(who string) error {
	if q.heap.Len() != 0 {
		return fmt.Errorf("%s: LoadState into a scheduler with runnable threads", who)
	}
	return nil
}

// loadRows reads rows written by saveRows through LoadRows. row decodes
// and checks the leaf's own fields, at least fieldBytes of them, so a
// row with its ID, Seq and queued byte is at least 17+fieldBytes long.
// The heap is rebuilt by pushing the queued entries in thread-ID order.
func (q *tagQueue[K, X]) loadRows(d *sim.Dec, who string, fieldBytes int, resolve func(id int) *Thread, row func(*tagEntry[K, X]) error) error {
	return LoadRows(d, who, 17+fieldBytes, resolve, func(t *Thread) error {
		en := q.entryFor(t)
		if err := row(en); err != nil {
			return err
		}
		en.Seq = d.U64()
		if d.Bool() && d.Err() == nil {
			q.heap.Push(&en.Tagged)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Priority

// SaveState implements Stater.
func (s *Priority) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.saveRows(e, func(en *tagEntry[int, struct{}]) { e.Int(^en.Tag) })
	return nil
}

// LoadState implements Stater.
func (s *Priority) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("priority"); err != nil {
		return err
	}
	s.seq = d.U64()
	return s.loadRows(d, "priority", 8, resolve, func(en *tagEntry[int, struct{}]) error {
		en.Tag = ^d.Int()
		return nil
	})
}

// ---------------------------------------------------------------------------
// EDF

// SaveState implements Stater.
func (s *EDF) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.saveRows(e, func(en *tagEntry[sim.Time, struct{}]) { e.Time(en.Tag) })
	return nil
}

// LoadState implements Stater.
func (s *EDF) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("edf"); err != nil {
		return err
	}
	s.seq = d.U64()
	return s.loadRows(d, "edf", 8, resolve, func(en *tagEntry[sim.Time, struct{}]) error {
		en.Tag = d.Time()
		return nil
	})
}

// ---------------------------------------------------------------------------
// RM

// SaveState implements Stater.
func (s *RM) SaveState(e *sim.Enc) error {
	e.U64(s.seq)
	s.saveRows(e, func(en *tagEntry[string, rmRank]) {
		e.Time(en.x.period)
		e.Int(en.x.prio)
	})
	return nil
}

// LoadState implements Stater.
func (s *RM) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("rm"); err != nil {
		return err
	}
	s.seq = d.U64()
	return s.loadRows(d, "rm", 16, resolve, func(en *tagEntry[string, rmRank]) error {
		period, prio := d.Time(), d.Int()
		setRMKey(en, period, prio)
		return nil
	})
}

// ---------------------------------------------------------------------------
// SVR4

// SaveState implements Stater. Per-priority FIFO queue order is state:
// front-inserted preempted threads must come back out ahead of
// tail-inserted ones, so queues are serialized as ordered ID lists, one
// per occupied global priority (ascending, the order of s.queues).
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
	saveQueues(e, s.queues, (*svr4Entry).globalPrio, func(en *svr4Entry) *Thread { return en.t })
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
		queued := s.count
		err := loadQueue(d, "svr4 queue", resolve, func(t *Thread) error {
			en := s.entries.Get(t)
			if en == nil {
				return fmt.Errorf("svr4: queued thread %d has no entry", t.ID)
			}
			if en.Queued() {
				return fmt.Errorf("svr4: thread %d queued twice", t.ID)
			}
			if en.globalPrio() != p {
				return fmt.Errorf("svr4: thread %d queued at priority %d but carries %d", t.ID, p, en.globalPrio())
			}
			s.insert(en, en.waitFrom, tailInsert)
			if t.ID == pickedID {
				s.picked = en
			}
			return nil
		})
		if err == nil && s.count == queued {
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
	return l.threadQueue.SaveState(e)
}

// LoadState implements Stater.
func (l *Lottery) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	st, total := d.U64(), d.F64()
	picked, err := decTID(d, resolve, "lottery picked thread")
	if err != nil {
		return err
	}
	if err := l.threadQueue.LoadState(d, resolve); err != nil {
		return err
	}
	if picked != nil && !l.queued(picked) {
		return fmt.Errorf("lottery: picked thread %d is not queued", picked.ID)
	}
	l.total, l.picked = total, picked
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
	s.saveRows(e, func(en *tagEntry[float64, struct{}]) { e.F64(en.Tag) })
	return nil
}

// LoadState implements Stater.
func (s *Stride) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("stride"); err != nil {
		return err
	}
	s.global = d.F64()
	s.seq = d.U64()
	s.total = d.F64()
	return s.loadRows(d, "stride", 8, resolve, func(en *tagEntry[float64, struct{}]) error {
		en.Tag = d.F64()
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
	s.saveRows(e, func(en *tagEntry[float64, eevdfRequest]) {
		e.F64(en.x.ve)
		e.F64(en.Tag)
		e.I64(int64(en.x.served))
	})
	return nil
}

// LoadState implements Stater.
func (s *EEVDF) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if err := s.loadable("eevdf"); err != nil {
		return err
	}
	s.vtime = d.F64()
	s.total = d.F64()
	s.seq = d.U64()
	pickedID := d.Int()
	s.picked = nil
	err := s.loadRows(d, "eevdf", 24, resolve, func(en *tagEntry[float64, eevdfRequest]) error {
		en.x.ve = d.F64()
		en.Tag = d.F64()
		en.x.served = Work(d.I64())
		if d.Err() == nil && (en.x.served < 0 || en.x.served >= s.reqWork) {
			return fmt.Errorf("eevdf: thread %d served %d outside [0, %d)", en.t.ID, en.x.served, s.reqWork)
		}
		if en.t.ID == pickedID {
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
	saveQueues(e, s.levels, func(en *mlfqEntry) int { return en.level }, func(en *mlfqEntry) *Thread { return en.t })
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
			if en.Queued() {
				return fmt.Errorf("mlfq: thread %d queued twice", t.ID)
			}
			if en.level != lvl {
				return fmt.Errorf("mlfq: thread %d queued at level %d but carries %d", t.ID, lvl, en.level)
			}
			s.insert(en, en.waitFrom, tailInsert)
			return nil
		})
		if err == nil && s.levels[lvl].Len() == 0 {
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
	e.Int(s.list.Len())
	for x := s.list.Front(); x != nil; x = x.Next() {
		e.Int(x.Item.t.ID)
	}
	return nil
}

// LoadState implements Stater.
func (s *DRR) LoadState(d *sim.Dec, resolve func(id int) *Thread) error {
	if s.list.Len() != 0 {
		return fmt.Errorf("drr: LoadState into a scheduler with runnable threads")
	}
	err := LoadRows(d, "drr", 16, resolve, func(t *Thread) error {
		en := s.entry(t)
		en.quantum = d.Time()
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
		if en.Queued() {
			return fmt.Errorf("drr: thread %d queued twice", t.ID)
		}
		s.list.PushBack(&en.link)
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
	e.Int(s.bg.Len())
	for x := s.bg.Front(); x != nil; x = x.Next() {
		e.Int(x.Item.t.ID)
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
		if en.bg.Queued() {
			return fmt.Errorf("reserves: thread %d in background band twice", t.ID)
		}
		s.bg.PushBack(&en.bg)
		return nil
	})
	if err != nil {
		return err
	}
	if s.bg.Len() != runnable-s.heap.Len() {
		return fmt.Errorf("reserves: background band has %d threads, want %d", s.bg.Len(), runnable-s.heap.Len())
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
