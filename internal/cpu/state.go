package cpu

import (
	"fmt"
	"slices"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Stater is implemented by programs and interrupt sources whose mutable
// state can be captured into a checkpoint and restored into a freshly
// rebuilt simulation. Static configuration (action lists, periods, traces)
// is NOT serialized — the rebuild recreates it deterministically — only
// the state that advances as the simulation runs (positions, counters,
// RNG streams).
type Stater interface {
	SaveState(e *sim.Enc)
	LoadState(d *sim.Dec) error
}

// saveEvent appends a pending-event descriptor: presence, absolute fire
// time, and the original scheduling sequence number. The sequence number
// is essential: events at the same instant fire in seq order, so restore
// re-arms pending events sorted by their saved seqs, preserving every
// same-instant ordering of the original run.
func saveEvent(e *sim.Enc, ev *sim.Event) {
	if ev == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Time(ev.At)
	e.U64(ev.Seq())
}

// rearm is one pending event to be rescheduled after decode. set stores
// the fresh handle wherever the machine tracks it.
type rearm struct {
	seq  uint64
	at   sim.Time
	core int // observability tag re-applied to the fresh handle
	fn   func()
	set  func(*sim.Event)
}

// loadEvent reads a descriptor written by saveEvent.
func loadEvent(d *sim.Dec) (ok bool, at sim.Time, seq uint64) {
	if !d.Bool() {
		return false, 0, 0
	}
	return d.Err() == nil, d.Time(), d.U64()
}

// saveSegment appends one core's in-flight run segment (or its absence).
func saveSegment(e *sim.Enc, s *segment) {
	if s == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Int(s.ts.t.ID)
	e.I64(int64(s.left))
	e.I64(int64(s.used))
	e.Time(s.resumeAt)
	e.Bool(s.paused)
	saveEvent(e, s.end)
}

// saveStats appends one Stats block in field order. The legacy (core 0 /
// aggregate) slot predates the Migrations counter and omits it so a
// single-core machine's encoding is byte-identical to the uniprocessor
// format; the multicore extension records all fields.
func saveStats(e *sim.Enc, s *Stats, withMigrations bool) {
	e.I64(s.Dispatches)
	e.I64(s.Preemptions)
	e.I64(s.Interrupts)
	e.Time(s.Stolen)
	e.Time(s.SchedCost)
	e.Time(s.Idle)
	e.I64(int64(s.Work))
	if withMigrations {
		e.I64(s.Migrations)
	}
}

func loadStats(d *sim.Dec, s *Stats, withMigrations bool) {
	s.Dispatches = d.I64()
	s.Preemptions = d.I64()
	s.Interrupts = d.I64()
	s.Stolen = d.Time()
	s.SchedCost = d.Time()
	s.Idle = d.Time()
	s.Work = sched.Work(d.I64())
	if withMigrations {
		s.Migrations = d.I64()
	}
}

// SaveState serializes the machine's entire mutable state: counters,
// per-thread accounting and program positions, the in-flight run segments,
// interrupt bookkeeping, and a descriptor for every pending event the
// machine owns (thread starts, timed wakeups, segment ends, interrupt end,
// interrupt arrivals). Threads are emitted in ID order so the encoding is
// canonical — the same state always produces the same bytes. It must be
// called at an event boundary (never from inside a program callback).
//
// The layout is the uniprocessor format followed, only when the machine
// has more than one core, by a multicore extension (per-core counters and
// segments, per-thread last-run cores). A single-core machine therefore
// produces byte-identical checkpoints to the pre-SMP encoding, and the
// decoder knows whether the extension is present from the core count of
// the rebuilt machine.
func (m *Machine) SaveState(e *sim.Enc) error {
	if m.inCallback != 0 {
		return fmt.Errorf("cpu: SaveState from inside a program callback")
	}
	c0 := m.cores[0]
	saveStats(e, &m.stats, false)
	e.Int(m.nextID)
	e.Bool(c0.idle)
	e.Time(c0.idleFrom)
	e.Time(m.intrUntil)

	var err error
	m.threads.SaveRows(e, func(ts *tstate) {
		t := ts.t
		e.F64(t.Weight)
		e.Int(t.Priority)
		e.Time(t.Period)
		e.Time(t.RelDeadline)
		e.Int(int(t.State))
		e.I64(int64(t.Done))
		e.Int(t.Segments)
		e.Time(t.ReadyAt)
		e.Time(t.WokeAt)
		e.Time(t.Waited)
		e.I64(int64(ts.burstLeft))
		saveEvent(e, ts.start)
		saveEvent(e, ts.wake)
		if p, ok := ts.prog.(Stater); ok {
			p.SaveState(e)
		} else if err == nil {
			err = fmt.Errorf("cpu: program %T of thread %v does not support checkpointing", ts.prog, t)
		}
	})
	if err != nil {
		return err
	}

	saveSegment(e, c0.seg)
	saveEvent(e, m.intrEnd)

	e.Int(len(m.intrs))
	for _, is := range m.intrs {
		saveEvent(e, is.next)
		e.Time(is.service)
		s, ok := is.src.(Stater)
		if !ok {
			return fmt.Errorf("cpu: interrupt source %T does not support checkpointing", is.src)
		}
		s.SaveState(e)
	}

	if len(m.cores) > 1 {
		for _, c := range m.cores {
			saveStats(e, &c.stats, true)
			e.Bool(c.idle)
			e.Time(c.idleFrom)
		}
		e.I64(m.stats.Migrations)
		for _, c := range m.cores[1:] {
			saveSegment(e, c.seg)
		}
		for _, r := range m.threads.Rows() {
			e.Int(r.E.lastCore)
		}
	}
	return nil
}

// loadSegment decodes one core's segment slot written by saveSegment and
// queues the end-event rearm. Core 0 is the only core interrupts can
// pause, so a paused segment on any other core is rejected.
func (m *Machine) loadSegment(d *sim.Dec, c *coreCtx, resolve func(id int) *sched.Thread, seen map[int]bool, rearms *[]rearm) error {
	if !d.Bool() {
		return d.Err()
	}
	id := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	t := resolve(id)
	if t == nil {
		return fmt.Errorf("cpu: segment references unknown thread %d", id)
	}
	ts := m.threads.Get(t)
	if ts == nil {
		return fmt.Errorf("cpu: segment thread %d not registered", id)
	}
	if seen[id] {
		return fmt.Errorf("cpu: thread %d running on two cores", id)
	}
	seen[id] = true
	c.segbuf = segment{
		ts:       ts,
		left:     sched.Work(d.I64()),
		used:     sched.Work(d.I64()),
		resumeAt: d.Time(),
		paused:   d.Bool(),
	}
	c.seg = &c.segbuf
	hasEnd, at, seq := loadEvent(d)
	if hasEnd {
		core := c
		*rearms = append(*rearms, rearm{seq, at, c.id, c.segEndFn, func(ev *sim.Event) { core.segbuf.end = ev }})
	}
	if d.Err() == nil {
		if c.segbuf.paused == hasEnd {
			return fmt.Errorf("cpu: segment paused=%v with end-event=%v", c.segbuf.paused, hasEnd)
		}
		if c.segbuf.paused && c.id != 0 {
			return fmt.Errorf("cpu: paused segment on core %d", c.id)
		}
		if t.State != sched.StateRunning {
			return fmt.Errorf("cpu: segment thread %d in state %v, want running", id, t.State)
		}
	}
	return d.Err()
}

// LoadState restores state saved by SaveState into a freshly built
// machine: same thread set (resolved by ID), same core count and policy,
// same interrupt sources in the same registration order, and an engine
// already Reset to the checkpoint's clock and sequence counter (so the
// build's initial events are gone). Pending events are re-armed under
// their original sequence numbers (Engine.AtSeq), so the restored engine
// is indistinguishable from the saved one: same-instant orderings are
// preserved exactly and save→restore→save is a byte-level fixed point —
// the properties the resume-equivalence and canonicality tests pin down.
func (m *Machine) LoadState(d *sim.Dec, resolve func(id int) *sched.Thread) error {
	if m.eng.Pending() != 0 {
		return fmt.Errorf("cpu: LoadState with %d events still pending; Reset the engine first", m.eng.Pending())
	}
	now := m.eng.Now()
	c0 := m.cores[0]
	loadStats(d, &m.stats, false)
	m.nextID = d.Int()
	c0.idle = d.Bool()
	c0.idleFrom = d.Time()
	m.intrUntil = d.Time()

	// The engine reset discarded the build's pending events; drop the now
	// dangling handles before decoding re-arms.
	for _, r := range m.threads.Rows() {
		r.E.start, r.E.wake = nil, nil
	}
	for _, c := range m.cores {
		c.seg = nil
	}
	m.intrEnd = nil
	for _, is := range m.intrs {
		is.next = nil
	}
	if len(m.cores) == 1 {
		// Single core: the aggregate and the core's counters coincide.
		c0.stats = m.stats
	}

	// The thread list must name exactly the machine's threads: with
	// strictly increasing IDs, its order is then the table's order.
	var rearms []rearm
	threads := 0
	err := sched.LoadRows(d, "cpu", 1, resolve, func(t *sched.Thread) error {
		threads++
		ts := m.threads.Get(t)
		if ts == nil {
			return fmt.Errorf("cpu: thread %d not registered with this machine", t.ID)
		}
		t.Weight = d.F64()
		t.Priority = d.Int()
		t.Period = d.Time()
		t.RelDeadline = d.Time()
		st := sched.ThreadState(d.Int())
		if d.Err() == nil && (st < sched.StateNew || st > sched.StateExited) {
			return fmt.Errorf("cpu: thread %d with invalid state %d", t.ID, st)
		}
		t.State = st
		t.Done = sched.Work(d.I64())
		t.Segments = d.Int()
		t.ReadyAt = d.Time()
		t.WokeAt = d.Time()
		t.Waited = d.Time()
		ts.burstLeft = sched.Work(d.I64())
		if ok, at, seq := loadEvent(d); ok {
			rearms = append(rearms, rearm{seq, at, 0, ts.startFn, func(ev *sim.Event) { ts.start = ev }})
		}
		if ok, at, seq := loadEvent(d); ok {
			rearms = append(rearms, rearm{seq, at, 0, ts.wakeFn, func(ev *sim.Event) { ts.wake = ev }})
		}
		p, ok := ts.prog.(Stater)
		if !ok {
			return fmt.Errorf("cpu: program %T of thread %v does not support checkpointing", ts.prog, t)
		}
		if err := p.LoadState(d); err != nil {
			return err
		}
		return d.Err()
	})
	if err != nil {
		return err
	}
	if threads != m.threads.Len() {
		return fmt.Errorf("cpu: checkpoint has %d threads, machine has %d", threads, m.threads.Len())
	}

	seen := map[int]bool{}
	if err := m.loadSegment(d, c0, resolve, seen, &rearms); err != nil {
		return err
	}

	hadIntrEnd := false
	if ok, at, seq := loadEvent(d); ok {
		hadIntrEnd = true
		rearms = append(rearms, rearm{seq, at, 0, m.intrDoneFn, func(ev *sim.Event) { m.intrEnd = ev }})
	}
	if d.Err() == nil && c0.seg != nil && c0.segbuf.paused && !hadIntrEnd {
		return fmt.Errorf("cpu: paused segment with no interrupt in flight")
	}

	cnt := d.Count(1)
	if d.Err() == nil && cnt != len(m.intrs) {
		return fmt.Errorf("cpu: checkpoint has %d interrupt sources, machine has %d", cnt, len(m.intrs))
	}
	for i := 0; i < cnt; i++ {
		is := m.intrs[i]
		if ok, at, seq := loadEvent(d); ok {
			rearms = append(rearms, rearm{seq, at, 0, is.fire, func(ev *sim.Event) { is.next = ev }})
		}
		is.service = d.Time()
		if d.Err() == nil && is.service < 0 {
			return fmt.Errorf("cpu: interrupt source %d with negative service %v", i, is.service)
		}
		s, ok := is.src.(Stater)
		if !ok {
			return fmt.Errorf("cpu: interrupt source %T does not support checkpointing", is.src)
		}
		if err := s.LoadState(d); err != nil {
			return err
		}
		if d.Err() != nil {
			return d.Err()
		}
	}

	if len(m.cores) > 1 {
		for _, c := range m.cores {
			loadStats(d, &c.stats, true)
			c.idle = d.Bool()
			c.idleFrom = d.Time()
		}
		m.stats.Migrations = d.I64()
		for _, c := range m.cores[1:] {
			if err := m.loadSegment(d, c, resolve, seen, &rearms); err != nil {
				return err
			}
		}
		for _, r := range m.threads.Rows() {
			lc := d.Int()
			if d.Err() == nil && (lc < -1 || lc >= len(m.cores)) {
				return fmt.Errorf("cpu: thread %d last ran on core %d of a %d-core machine", r.T.ID, lc, len(m.cores))
			}
			r.E.lastCore = lc
		}
	}
	if d.Err() != nil {
		return d.Err()
	}

	for _, r := range rearms {
		if r.at < now {
			return fmt.Errorf("cpu: pending event at %v lies before checkpoint time %v", r.at, now)
		}
		if r.seq >= m.eng.Seq() {
			return fmt.Errorf("cpu: pending event seq %d not below engine seq %d", r.seq, m.eng.Seq())
		}
	}
	slices.SortStableFunc(rearms, func(a, b rearm) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		default:
			return 0
		}
	})
	for i, r := range rearms {
		if i > 0 && r.seq == rearms[i-1].seq {
			return fmt.Errorf("cpu: two pending events share seq %d", r.seq)
		}
		ev := m.eng.AtSeq(r.at, r.seq, r.fn)
		ev.Core = r.core
		r.set(ev)
	}
	return nil
}
