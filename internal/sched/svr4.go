package sched

import (
	"fmt"
	"slices"

	"hsfq/internal/sim"
)

// SVR4 models the SVR4/Solaris 2.4 class-based dispatcher that the paper
// compares against and reuses as a leaf scheduler ("we have ... modified
// the existing SVR4 priority based scheduler to operate as a scheduler for
// a leaf node"). It implements two scheduling classes:
//
//   - A time-sharing (TS) class: 60 priority levels driven by a dispatch
//     table in the shape of ts_dptbl. Using a full quantum lowers a
//     thread's priority (tqexp); returning from sleep boosts it (slpret);
//     waiting on the run queue longer than maxwait boosts it (lwait).
//     These feedback rules are what make SVR4 TS throughput unpredictable
//     in the paper's Fig. 5.
//
//   - A real-time (RT) class: fixed priorities above every TS priority,
//     FIFO within a priority, preemptive on wakeup. The paper's Fig. 9
//     experiment runs two Rate-Monotonic threads in this class.
//
// Priorities are compared on a single global scale: TS occupies
// [0, TSLevels) and RT occupies [rtBase, rtBase+RTLevels). Each occupied
// priority is a FIFO runList, like SVR4's dispq. The lists sit in one
// slice in ascending priority, each added with its priority's first
// thread and dropped with its last, so Pick takes the front of the last
// list and a leaf holds no list for a priority no thread is at.
type SVR4 struct {
	table     []DispatchEntry
	ips       int64 // CPU instructions per second, to convert Work to time
	rtQuantum sim.Time

	entries Table[*svr4Entry]
	queues  []runList[*svr4Entry] // non-empty, ascending priority
	count   int
	picked  *svr4Entry
}

// DispatchEntry is one row of the TS dispatch table, mirroring the fields
// of SVR4's ts_dptbl.
type DispatchEntry struct {
	Quantum sim.Time // time slice at this level
	TQExp   int      // new level after the quantum is fully consumed
	SlpRet  int      // level assigned when returning from sleep
	MaxWait sim.Time // run-queue wait that triggers a starvation boost
	LWait   int      // level assigned by the starvation boost
}

// TS priority geometry.
const (
	TSLevels    = 60 // TS priorities 0..59, higher is better
	TSInitial   = 29 // initial level of a new TS thread
	rtBase      = 100
	RTLevels    = 60
	classRT     = 1
	classTS     = 0
	frontInsert = true
	tailInsert  = false
)

// svr4Entry is one thread's class and level; it is queued on its
// priority's list while the thread is runnable.
type svr4Entry struct {
	link[*svr4Entry]
	t        *Thread
	class    int
	level    int      // TS level or RT priority (within class)
	waitFrom sim.Time // when enqueued on the run queue
}

func (e *svr4Entry) globalPrio() int {
	if e.class == classRT {
		return rtBase + e.level
	}
	return e.level
}

// DefaultDispatchTable builds a ts_dptbl-shaped table: long quanta at low
// priorities (200 ms) shrinking to 20 ms at high priorities, a 10-level
// drop on quantum expiry, a 25-level boost on sleep return, and a 10-level
// boost after waiting one second.
func DefaultDispatchTable() []DispatchEntry {
	table := make([]DispatchEntry, TSLevels)
	for p := 0; p < TSLevels; p++ {
		q := 200 - 36*(p/10) // 200,164,128,92,56,20 ms per decade
		table[p] = DispatchEntry{
			Quantum: sim.Time(q) * sim.Millisecond,
			TQExp:   max(0, p-10),
			SlpRet:  min(TSLevels-1, p+25),
			MaxWait: sim.Second,
			LWait:   min(TSLevels-1, p+10),
		}
	}
	return table
}

// defaultTable is the DefaultDispatchTable that every SVR4 built with a
// nil table shares.
var defaultTable = DefaultDispatchTable()

// NewSVR4 returns an SVR4-style dispatcher. table may be nil to use
// DefaultDispatchTable; the scheduler never writes its table. ips is the
// CPU speed in instructions per second, needed to decide whether a
// charge consumed the full quantum; it must
// match the machine the scheduler is attached to. rtQuantum bounds RT
// run segments (the paper uses 25 ms); <= 0 means run-until-block.
func NewSVR4(table []DispatchEntry, ips int64, rtQuantum sim.Time) *SVR4 {
	if table == nil {
		table = defaultTable
	}
	if len(table) != TSLevels {
		panic(fmt.Sprintf("svr4: dispatch table has %d levels, want %d", len(table), TSLevels))
	}
	if ips <= 0 {
		panic("svr4: non-positive instruction rate")
	}
	if rtQuantum <= 0 {
		rtQuantum = sim.Time(1 << 62)
	}
	return &SVR4{
		table:     table,
		ips:       ips,
		rtQuantum: rtQuantum,
	}
}

// Name implements Scheduler.
func (s *SVR4) Name() string { return "svr4" }

// SetRealTime places t in the RT class at the given RT priority (0..59,
// higher first). Must be called before the thread is enqueued.
func (s *SVR4) SetRealTime(t *Thread, prio int) {
	if prio < 0 || prio >= RTLevels {
		panic(fmt.Sprintf("svr4: RT priority %d out of range", prio))
	}
	e := s.entry(t)
	if e.Queued() {
		panic(fmt.Sprintf("svr4: SetRealTime on runnable thread %v", t))
	}
	e.class = classRT
	e.level = prio
}

// Level returns the thread's current class and level, for tests and traces.
func (s *SVR4) Level(t *Thread) (class, level int) {
	e := s.entry(t)
	return e.class, e.level
}

// entry returns t's entry, creating it on first contact.
func (s *SVR4) entry(t *Thread) *svr4Entry {
	e := s.entries.Get(t)
	if e == nil {
		e = &svr4Entry{t: t, class: classTS, level: TSInitial}
		e.Item = e
		s.entries.Put(t, e)
	}
	return e
}

// Enqueue implements Scheduler. A TS thread waking from sleep returns at
// its level's slpret priority, the boost that lets interactive threads
// leapfrog CPU hogs.
func (s *SVR4) Enqueue(t *Thread, now sim.Time) {
	e := s.entry(t)
	if e.Queued() {
		panic(fmt.Sprintf("svr4: Enqueue of runnable thread %v", t))
	}
	if e.class == classTS && t.WokeAt == now && t.Segments > 0 {
		e.level = s.table[e.level].SlpRet
	}
	s.insert(e, now, tailInsert)
}

// queue returns the index of priority p's list in s.queues, or the index
// it would take, and whether p has a list. The search is written out
// because slices.BinarySearchFunc's call per comparison made decisions
// that move a thread between priorities 43% slower than a fixed array of
// lists (the svr4-moves rung of BenchmarkLeafSchedulers).
func (s *SVR4) queue(p int) (int, bool) {
	i, j := 0, len(s.queues)
	for i < j {
		if h := int(uint(i+j) >> 1); s.queues[h].Front().Item.globalPrio() < p {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(s.queues) && s.queues[i].Front().Item.globalPrio() == p
}

// insert queues e on its priority's list, its wait starting at now.
func (s *SVR4) insert(e *svr4Entry, now sim.Time, front bool) {
	i, ok := s.queue(e.globalPrio())
	if !ok {
		s.queues = slices.Insert(s.queues, i, runList[*svr4Entry]{})
	}
	if front {
		s.queues[i].PushFront(&e.link)
	} else {
		s.queues[i].PushBack(&e.link)
	}
	e.waitFrom = now
	s.count++
}

func (s *SVR4) unlink(e *svr4Entry) {
	i, _ := s.queue(e.globalPrio())
	s.queues[i].Remove(&e.link)
	if s.queues[i].Len() == 0 {
		s.queues = slices.Delete(s.queues, i, i+1)
	}
	s.count--
}

// Pick implements Scheduler: the head of the highest-priority non-empty
// queue, after applying any starvation boosts that have come due (the
// lazy equivalent of SVR4's once-a-second ts_update scan).
func (s *SVR4) Pick(now sim.Time) *Thread {
	s.applyWaitBoosts(now)
	if len(s.queues) == 0 {
		return nil
	}
	s.picked = s.queues[len(s.queues)-1].Front().Item
	return s.picked.t
}

// applyWaitBoosts moves TS threads that have waited past their level's
// maxwait to the tail of the lwait level as it finds them, in thread-ID
// order, so the requeue order is deterministic. The boost does not reset
// the wait clock origin.
func (s *SVR4) applyWaitBoosts(now sim.Time) {
	for _, r := range s.entries.Rows() {
		e := r.E
		if !e.Queued() || e.class != classTS {
			continue
		}
		row := s.table[e.level]
		if row.LWait > e.level && now-e.waitFrom >= row.MaxWait {
			s.unlink(e)
			e.level = row.LWait
			s.insert(e, e.waitFrom, tailInsert)
		}
	}
}

// Quantum implements Scheduler.
func (s *SVR4) Quantum(t *Thread, now sim.Time) sim.Time {
	e := s.entry(t)
	if e.class == classRT {
		return s.rtQuantum
	}
	return s.table[e.level].Quantum
}

// Charge implements Scheduler. Full-quantum consumption demotes a TS
// thread to tqexp and requeues it at the tail; a preempted thread keeps
// its level and returns to the head of its queue.
func (s *SVR4) Charge(t *Thread, used Work, now sim.Time, runnable bool) {
	e := s.entries.Get(t)
	if e == nil || !e.Queued() || s.picked != e {
		panic(fmt.Sprintf("svr4: Charge of thread %v that was not picked", t))
	}
	s.picked = nil
	s.unlink(e)
	if !runnable {
		return
	}
	usedTime := sim.Time(float64(used) / float64(s.ips) * float64(sim.Second))
	if e.class == classTS {
		if usedTime >= s.table[e.level].Quantum {
			e.level = s.table[e.level].TQExp
			s.insert(e, now, tailInsert)
		} else {
			s.insert(e, now, frontInsert)
		}
		return
	}
	// RT: round-robin within the priority on quantum expiry.
	if usedTime >= s.rtQuantum {
		s.insert(e, now, tailInsert)
	} else {
		s.insert(e, now, frontInsert)
	}
}

// Preempts implements Scheduler: SVR4 sets the dispatcher's "runrun" flag
// whenever a higher-priority thread becomes runnable.
func (s *SVR4) Preempts(running, woken *Thread, now sim.Time) bool {
	re := s.entries.Get(running)
	we := s.entries.Get(woken)
	if re == nil || we == nil || !re.Queued() || !we.Queued() {
		return false
	}
	return we.globalPrio() > re.globalPrio()
}

// Len implements Scheduler.
func (s *SVR4) Len() int { return s.count }
