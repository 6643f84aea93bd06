package cpu

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// Listener observes the machine's scheduling events. The machine builds
// each event once and hands it to every listener in registration order;
// see Machine.Listen for which events carry a core.
type Listener interface {
	Add(e trace.Event)
}

// ListenerFunc adapts a function to Listener.
type ListenerFunc func(e trace.Event)

// Add implements Listener.
func (f ListenerFunc) Add(e trace.Event) { f(e) }

// Stats aggregates machine-level counters. The machine keeps one Stats per
// core plus this aggregate; on a single-core machine the two coincide.
type Stats struct {
	Dispatches  int64    // run segments started
	Preemptions int64    // segments cut short by a wakeup
	Interrupts  int64    // interrupts serviced
	Stolen      sim.Time // CPU time consumed by interrupt handling
	SchedCost   sim.Time // CPU time consumed by scheduling decisions
	Idle        sim.Time // CPU time with no runnable thread
	Work        sched.Work
	Migrations  int64 // dispatches on a different core than the last one
}

// segment is the state of a thread currently on a core.
type segment struct {
	ts       *tstate
	left     sched.Work // work remaining before the segment ends
	used     sched.Work // work consumed so far, across pauses
	resumeAt sim.Time   // when execution last (re)started
	end      *sim.Event
	paused   bool
}

// tstate is the machine's per-thread bookkeeping.
type tstate struct {
	t         *sched.Thread
	prog      Program
	burstLeft sched.Work
	core      int        // home core: where the thread is enqueued
	lastCore  int        // core of the last dispatch, -1 before the first
	start     *sim.Event // pending program-start event, nil once fired
	wake      *sim.Event
	wakeFn    func() // timed-wakeup callback, built once at Add
	startFn   func() // program-start callback, built once at Add
}

// intrState tracks one registered interrupt source: the pending arrival
// event, the service length drawn for it, and the fire callback reused
// across arrivals. Keeping it a named struct (instead of the former local
// closures) is what lets checkpoints re-arm arrivals after a restore.
type intrState struct {
	src     InterruptSource
	service sim.Time
	next    *sim.Event // pending arrival, nil once fired or exhausted
	fire    func()
}

// coreCtx is one core's execution context: the scheduler it picks from,
// the in-flight run segment, idle bookkeeping, and per-core counters.
// Under PolicyGlobal every core shares one scheduler; otherwise each core
// owns its own instance.
type coreCtx struct {
	id       int
	sched    sched.Scheduler
	seg      *segment
	segbuf   segment // backing store for seg: one segment in flight per core
	idleFrom sim.Time
	idle     bool
	stats    Stats
	segEndFn func() // bound to this core once, so dispatch never allocates
}

// Machine is a simulated machine of one or more identical cores sharing a
// single event clock. Cores are always examined in fixed index order, so a
// multicore run is exactly as deterministic as a uniprocessor one.
type Machine struct {
	eng     *sim.Engine
	rate    Rate
	policy  Policy
	dequeue bool // running threads leave the runnable set (global/steal)
	cores   []*coreCtx

	switchCost    sim.Time // charged on every dispatch
	migrationCost sim.Time // charged when a thread changes cores

	threads   sched.Table[*tstate]
	listeners []Listener

	inCallback   int      // depth of program-callback nesting (see progNext)
	intrUntil    sim.Time // core 0 busy with interrupts until this time
	intrEnd      *sim.Event
	intrs        []*intrState // registration order; part of the checkpoint canon
	stats        Stats        // aggregate across cores
	nextID       int
	dispatchCost func(t *sched.Thread) sim.Time

	intrDoneFn func()
}

// SetDispatchCost models the CPU time consumed by each scheduling
// decision, as a function of the picked thread (so a hierarchy can charge
// per tree level, the cost Fig. 7 measures). The real simulator schedules
// for free; without this the overhead experiments would be vacuous.
func (m *Machine) SetDispatchCost(f func(t *sched.Thread) sim.Time) { m.dispatchCost = f }

// NewMachine returns a single-core machine executing on eng at the given
// rate under scheduler. rate <= 0 selects DefaultRate.
func NewMachine(eng *sim.Engine, rate Rate, scheduler sched.Scheduler) *Machine {
	return NewSMP(eng, rate, SMPConfig{Schedulers: []sched.Scheduler{scheduler}})
}

// Engine returns the simulation engine driving the machine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Rate returns the machine's instruction rate.
func (m *Machine) Rate() Rate { return m.rate }

// Scheduler returns core 0's scheduler: the machine's only scheduler on a
// uniprocessor or under PolicyGlobal.
func (m *Machine) Scheduler() sched.Scheduler { return m.cores[0].sched }

// Stats returns a snapshot of the aggregate machine counters.
func (m *Machine) Stats() Stats { return m.stats }

// Listen registers a Listener; one implementing SetNumCores(int) is told
// the core count first. Dispatch, charge and idle events carry the index
// of the core they happened on (0 on a uniprocessor). Wake, block, exit
// and interrupt events carry Core 0 on every machine: that is part of the
// trace row format, which every trace digest covers.
func (m *Machine) Listen(l Listener) {
	if s, ok := l.(interface{ SetNumCores(int) }); ok {
		s.SetNumCores(len(m.cores))
	}
	m.listeners = append(m.listeners, l)
}

// Spawn creates a thread with a fresh ID, registers it, and starts its
// program at startAt. It is the convenience path for flat schedulers; when
// the scheduler is a hierarchy the thread must be attached to a leaf
// before its first action, so use sched.NewThread + Structure.Attach +
// Machine.Add instead.
func (m *Machine) Spawn(name string, weight float64, prog Program, startAt sim.Time) *sched.Thread {
	t := sched.NewThread(m.nextID, name, weight)
	m.nextID++
	m.Add(t, prog, startAt)
	return t
}

// Add registers an externally created thread on core 0 and starts its
// program at startAt.
func (m *Machine) Add(t *sched.Thread, prog Program, startAt sim.Time) {
	m.AddOn(t, prog, startAt, 0)
}

// AddOn registers an externally created thread with the given home core
// and starts its program at startAt. The home core decides which scheduler
// the thread is enqueued on; under PolicyGlobal all cores share one
// scheduler and the home core only seeds wakeup placement. The thread's
// ID must be unique on the machine.
func (m *Machine) AddOn(t *sched.Thread, prog Program, startAt sim.Time, core int) {
	if core < 0 || core >= len(m.cores) {
		panic(fmt.Sprintf("cpu: thread %v on core %d of a %d-core machine", t, core, len(m.cores)))
	}
	if m.threads.Get(t) != nil {
		panic(fmt.Sprintf("cpu: thread %v added twice", t))
	}
	if prog == nil {
		panic(fmt.Sprintf("cpu: thread %v with nil program", t))
	}
	if t.ID >= m.nextID {
		m.nextID = t.ID + 1
	}
	ts := &tstate{t: t, prog: prog, core: core, lastCore: -1}
	ts.wakeFn = func() {
		ts.wake = nil
		ts.t.WokeAt = m.eng.Now()
		m.advance(ts)
	}
	ts.startFn = func() {
		ts.start = nil
		m.advance(ts)
	}
	m.threads.Put(t, ts) // panics if another thread holds t.ID
	ts.start = m.eng.At(startAt, ts.startFn)
}

// schedOf returns the scheduler that owns t's queue entry and tags: the
// home core's. Under PolicyGlobal every core holds the same scheduler.
func (m *Machine) schedOf(ts *tstate) sched.Scheduler { return m.cores[ts.core].sched }

// AddInterrupts registers an interrupt source and schedules its first
// arrival. The fire callback is reused for every arrival of this source;
// the order inside it (service first, then re-arm) matters, because it
// gives the interrupt-end event an earlier sequence number than the next
// arrival and same-instant events fire in scheduling order.
func (m *Machine) AddInterrupts(src InterruptSource) {
	is := &intrState{src: src}
	is.fire = func() {
		is.next = nil
		m.interrupt(is.service)
		m.armInterrupt(is)
	}
	m.intrs = append(m.intrs, is)
	m.armInterrupt(is)
}

// armInterrupt draws the source's next arrival and schedules it.
func (m *Machine) armInterrupt(is *intrState) {
	at, svc, ok := is.src.Next(m.eng.Now())
	if !ok {
		return
	}
	is.service = svc
	is.next = m.eng.At(at, is.fire)
}

// Run executes the simulation until the given time.
func (m *Machine) Run(until sim.Time) { m.eng.RunUntil(until) }

// progNext invokes a thread's program. Programs may re-enter the machine
// (a mutex Unlock inside Next calls Wake); the counter lets makeRunnable
// detect that and defer preemption/dispatch to the enclosing step.
func (m *Machine) progNext(ts *tstate, now sim.Time) Action {
	m.inCallback++
	a := ts.prog.Next(now)
	m.inCallback--
	return a
}

// kick dispatches every free core if the machine is between steps — the
// catch-up for wakeups that arrived during a program callback.
func (m *Machine) kick() {
	if m.inCallback != 0 {
		return
	}
	for _, c := range m.cores {
		m.maybeDispatch(c)
	}
}

// kickOthers gives every other free core a dispatch chance. On a
// uniprocessor it is a no-op; on a multicore machine it is what places
// wakeups deferred during a program callback onto sibling cores.
func (m *Machine) kickOthers(c *coreCtx) {
	for _, o := range m.cores {
		if o != c {
			m.maybeDispatch(o)
		}
	}
}

// advance consumes program actions until the thread computes, blocks, or
// exits. It is called at thread start and at every wakeup.
func (m *Machine) advance(ts *tstate) {
	now := m.eng.Now()
	const maxNoops = 1 << 20
	for i := 0; ; i++ {
		if i == maxNoops {
			panic(fmt.Sprintf("cpu: program of %v made no progress", ts.t))
		}
		a := m.progNext(ts, now)
		switch a.Kind {
		case ActionCompute:
			if a.Work <= 0 {
				continue
			}
			ts.burstLeft = a.Work
			m.makeRunnable(ts)
			return
		case ActionSleep:
			if a.Duration <= 0 {
				continue
			}
			m.block(ts, now+a.Duration)
			m.kick()
			return
		case ActionSleepUntil:
			if a.Until <= now {
				continue
			}
			m.block(ts, a.Until)
			m.kick()
			return
		case ActionBlock:
			ts.t.State = sched.StateBlocked
			m.emitThread(trace.Block, ts.t, now)
			m.kick()
			return
		case ActionExit:
			ts.t.State = sched.StateExited
			m.emitThread(trace.Exit, ts.t, now)
			m.forget(ts)
			m.kick()
			return
		default:
			panic(fmt.Sprintf("cpu: program of %v returned invalid action %v", ts.t, a.Kind))
		}
	}
}

func (m *Machine) block(ts *tstate, until sim.Time) {
	now := m.eng.Now()
	ts.t.State = sched.StateBlocked
	m.emitThread(trace.Block, ts.t, now)
	ts.wake = m.eng.At(until, ts.wakeFn)
}

// makeRunnable enqueues the thread on its home scheduler and resolves
// preemption/dispatch.
func (m *Machine) makeRunnable(ts *tstate) {
	now := m.eng.Now()
	ts.t.State = sched.StateRunnable
	ts.t.ReadyAt = now
	m.schedOf(ts).Enqueue(ts.t, now)
	m.emitThread(trace.Wake, ts.t, now)
	if m.inCallback > 0 {
		// Woken from inside another thread's program callback (e.g. a
		// mutex handover): the enclosing machine step charges and
		// dispatches right after; preempting here would act on a
		// half-finished segment. The woken thread competes at the next
		// decision, at most a quantum away — the same bound as cross-leaf
		// wakeups.
		return
	}
	m.placeWoken(ts)
}

// placeWoken decides which core reacts to a fresh wakeup. Cores are always
// scanned in index order, so placement is deterministic.
func (m *Machine) placeWoken(ts *tstate) {
	now := m.eng.Now()
	h := m.cores[ts.core]
	switch {
	case len(m.cores) == 1 || m.policy == PolicyPartitioned:
		// Uniprocessor protocol, per core: only the home core reacts.
		if h.seg != nil {
			if h.sched.Preempts(h.seg.ts.t, ts.t, now) {
				m.preempt(h)
				m.maybeDispatch(h)
			}
			return
		}
		m.maybeDispatch(h)
		// While an interrupt is in progress the interrupt-end handler
		// dispatches instead.
	case m.policy == PolicyGlobal:
		// Any idle core may serve the shared queue; failing that, the
		// first core whose running thread the scheduler wants preempted.
		for _, c := range m.cores {
			if c.seg == nil && !m.coreIntrBusy(c) {
				m.dispatch(c)
				return
			}
		}
		for _, c := range m.cores {
			if c.seg != nil && c.sched.Preempts(c.seg.ts.t, ts.t, now) {
				m.preempt(c)
				m.maybeDispatch(c)
				return
			}
		}
	default: // PolicySteal
		if h.seg == nil {
			m.maybeDispatch(h)
			return
		}
		// Preemption is meaningful only against a thread whose tags live
		// in the same (home) structure; a stolen guest is left alone.
		if h.seg.ts.core == ts.core && h.sched.Preempts(h.seg.ts.t, ts.t, now) {
			m.preempt(h)
			m.maybeDispatch(h)
			return
		}
		// The home core is busy; the first idle sibling steals the wakeup.
		for _, c := range m.cores {
			if c != h && c.seg == nil && !m.coreIntrBusy(c) {
				m.maybeDispatch(c)
				return
			}
		}
	}
}

// maybeDispatch dispatches if the core is actually free.
func (m *Machine) maybeDispatch(c *coreCtx) {
	if c.seg == nil && !m.coreIntrBusy(c) {
		m.dispatch(c)
	}
}

// dispatch selects the next thread for core c and starts a run segment.
// The core must be free of both segments and interrupts.
//
// Under the dequeue policies (global, steal) a picked thread is
// immediately charged zero work as not-runnable, which removes it from the
// runnable set while it occupies the core: the no-double-run guard — no
// other core can pick it until its segment is charged back in.
func (m *Machine) dispatch(c *coreCtx) {
	if c.seg != nil || m.coreIntrBusy(c) {
		panic("cpu: dispatch while busy")
	}
	now := m.eng.Now()
	t := c.sched.Pick(now)
	if t != nil && m.dequeue {
		c.sched.Charge(t, 0, now, false)
	}
	if t == nil && m.policy == PolicySteal {
		// Work stealing: scan victims in fixed order starting after this
		// core, so the choice is deterministic and load spreads.
		for i := 1; i < len(m.cores); i++ {
			v := m.cores[(c.id+i)%len(m.cores)]
			if t = v.sched.Pick(now); t != nil {
				v.sched.Charge(t, 0, now, false)
				break
			}
		}
	}
	if t == nil {
		if !c.idle {
			c.idle = true
			c.idleFrom = now
			if m.listeners != nil {
				m.emit(trace.Event{At: now, Kind: trace.Idle, Core: c.id})
			}
		}
		return
	}
	if c.idle {
		c.idle = false
		c.stats.Idle += now - c.idleFrom
		m.stats.Idle += now - c.idleFrom
	}
	ts := m.threads.Get(t)
	if ts == nil {
		panic(fmt.Sprintf("cpu: scheduler picked unknown thread %v", t))
	}
	if ts.burstLeft <= 0 {
		panic(fmt.Sprintf("cpu: scheduler picked thread %v with no work", t))
	}
	grant := m.rate.WorkFor(m.schedOf(ts).Quantum(t, now))
	if grant < 1 {
		grant = 1
	}
	if grant > ts.burstLeft {
		grant = ts.burstLeft
	}
	var cost sim.Time
	if m.dispatchCost != nil {
		cost = m.dispatchCost(t)
	}
	cost += m.switchCost
	if len(m.cores) > 1 && ts.lastCore >= 0 && ts.lastCore != c.id {
		cost += m.migrationCost
		c.stats.Migrations++
		m.stats.Migrations++
	}
	if cost > 0 {
		c.stats.SchedCost += cost
		m.stats.SchedCost += cost
	}
	ts.lastCore = c.id
	if now > t.ReadyAt {
		t.Waited += now - t.ReadyAt
	}
	t.State = sched.StateRunning
	// Reuse the core's single segment buffer: dispatch requires the core
	// to be free (c.seg == nil), so at most one segment is ever in flight
	// per core and no reference to a previous segment outlives its charge.
	c.segbuf = segment{ts: ts, left: grant, resumeAt: now + cost}
	c.seg = &c.segbuf
	c.seg.end = m.eng.After(cost+m.rate.TimeFor(grant), c.segEndFn)
	c.seg.end.Core = c.id
	c.stats.Dispatches++
	m.stats.Dispatches++
	if m.listeners != nil {
		m.emit(trace.Event{At: now, Kind: trace.Dispatch, Thread: t.Name, ThreadID: t.ID, Core: c.id})
	}
}

// progress charges core c's running segment for the time elapsed since it
// last resumed and cancels its end event.
func (m *Machine) progress(c *coreCtx) {
	s := c.seg
	if s.paused {
		return
	}
	m.eng.Cancel(s.end)
	s.end = nil
	var w sched.Work
	// resumeAt can lie ahead of now while the dispatch cost is still
	// being paid; no thread work has happened yet in that case.
	if elapsed := m.eng.Now() - s.resumeAt; elapsed > 0 {
		w = m.rate.WorkFor(elapsed)
	}
	if w > s.left {
		w = s.left
	}
	s.left -= w
	s.used += w
	s.ts.burstLeft -= w
}

// segmentEnd fires when a running segment's granted work is complete:
// either the quantum expired or the burst finished.
func (m *Machine) segmentEnd(c *coreCtx) {
	s := c.seg
	now := m.eng.Now()
	s.end = nil
	// The event was scheduled for exactly the remaining work; rounding in
	// WorkFor must not lose the tail, so settle it explicitly.
	s.used += s.left
	s.ts.burstLeft -= s.left
	s.left = 0
	ts := s.ts
	if ts.burstLeft > 0 {
		// Quantum expiry: charge and compete again.
		ts.t.State = sched.StateRunnable
		ts.t.ReadyAt = now
		m.charge(c, true)
		m.dispatch(c)
		m.kickOthers(c)
		return
	}
	// Burst complete: the next program action decides what happens, and —
	// as in the paper — the scheduler learns the actual quantum length
	// only now.
	m.finishBurst(c, ts)
}

// finishBurst processes the program action following a completed burst.
func (m *Machine) finishBurst(c *coreCtx, ts *tstate) {
	now := m.eng.Now()
	const maxNoops = 1 << 20
	for i := 0; ; i++ {
		if i == maxNoops {
			panic(fmt.Sprintf("cpu: program of %v made no progress", ts.t))
		}
		a := m.progNext(ts, now)
		switch a.Kind {
		case ActionCompute:
			if a.Work <= 0 {
				continue
			}
			// Back-to-back burst: the thread never blocks.
			ts.burstLeft = a.Work
			ts.t.State = sched.StateRunnable
			ts.t.ReadyAt = now
			m.charge(c, true)
			m.maybeDispatch(c)
			m.kickOthers(c)
			return
		case ActionSleep, ActionSleepUntil:
			until := now + a.Duration
			if a.Kind == ActionSleepUntil {
				until = a.Until
			}
			if until <= now {
				continue
			}
			m.charge(c, false)
			m.block(ts, until)
			m.maybeDispatch(c)
			m.kickOthers(c)
			return
		case ActionBlock:
			m.charge(c, false)
			ts.t.State = sched.StateBlocked
			m.emitThread(trace.Block, ts.t, now)
			m.maybeDispatch(c)
			m.kickOthers(c)
			return
		case ActionExit:
			m.charge(c, false)
			ts.t.State = sched.StateExited
			m.emitThread(trace.Exit, ts.t, now)
			m.forget(ts)
			m.maybeDispatch(c)
			m.kickOthers(c)
			return
		default:
			panic(fmt.Sprintf("cpu: program of %v returned invalid action %v", ts.t, a.Kind))
		}
	}
}

// forget lets the thread's scheduler drop per-thread state for an exited
// thread, so tag maps do not grow without bound in long simulations.
func (m *Machine) forget(ts *tstate) {
	if f, ok := m.schedOf(ts).(interface{ Forget(*sched.Thread) }); ok {
		f.Forget(ts.t)
	}
}

// charge closes core c's current segment and accounts it to the thread's
// home scheduler (the one it was picked from: a stolen thread's tags live
// in its home structure, which is what keeps stealing fair).
func (m *Machine) charge(c *coreCtx, runnable bool) {
	s := c.seg
	if s == nil {
		panic("cpu: charge with no segment")
	}
	now := m.eng.Now()
	c.seg = nil
	t := s.ts.t
	t.Done += s.used
	t.Segments++
	c.stats.Work += s.used
	m.stats.Work += s.used
	sch := m.schedOf(s.ts)
	if m.dequeue {
		// The thread left the runnable set at dispatch; re-enter it so the
		// charge can stamp fresh tags (and drop it again if it blocked).
		sch.Enqueue(t, now)
	}
	sch.Charge(t, s.used, now, runnable)
	if m.listeners != nil {
		m.emit(trace.Event{At: now, Kind: trace.Charge, Thread: t.Name, ThreadID: t.ID, Used: s.used, Runnable: runnable, Core: c.id})
	}
}

// preempt cuts core c's running segment short after a wakeup the scheduler
// wants to act on. If the wakeup landed at the exact instant the burst
// completed, the burst is finished instead — the thread must not stay
// runnable with no work.
func (m *Machine) preempt(c *coreCtx) {
	s := c.seg
	m.progress(c)
	c.stats.Preemptions++
	m.stats.Preemptions++
	if s.ts.burstLeft == 0 {
		m.finishBurst(c, s.ts)
		return
	}
	s.ts.t.State = sched.StateRunnable
	s.ts.t.ReadyAt = m.eng.Now()
	m.charge(c, true)
}

// Flush charges every in-flight run segment for the work completed so far,
// so that accounting is exact at a measurement horizon instead of
// quantized at whole quanta. The machine stays consistent and may keep
// running afterwards.
func (m *Machine) Flush() {
	for _, c := range m.cores {
		if c.seg == nil {
			continue
		}
		s := c.seg
		m.progress(c)
		if s.ts.burstLeft == 0 {
			m.finishBurst(c, s.ts)
			continue
		}
		s.ts.t.State = sched.StateRunnable
		s.ts.t.ReadyAt = m.eng.Now()
		m.charge(c, true)
		m.maybeDispatch(c)
	}
}

// Wake makes a blocked thread runnable immediately: the counterpart of
// cpu.Block for event-driven sleeps (lock releases, message arrival). A
// pending timed wakeup, if any, is cancelled. Waking a thread that is not
// blocked is a no-op and returns false.
func (m *Machine) Wake(t *sched.Thread) bool {
	ts := m.threads.Get(t)
	if ts == nil {
		panic(fmt.Sprintf("cpu: Wake of unknown thread %v", t))
	}
	if t.State != sched.StateBlocked {
		return false
	}
	if ts.wake != nil {
		m.eng.Cancel(ts.wake)
		ts.wake = nil
	}
	t.WokeAt = m.eng.Now()
	m.advance(ts)
	return true
}

// interrupt services a hardware interrupt. Interrupts are delivered to
// core 0 only — the boot-CPU convention — so only core 0's running thread
// is paused and only its time is consumed. Overlapping interrupts queue
// back to back.
func (m *Machine) interrupt(service sim.Time) {
	now := m.eng.Now()
	c0 := m.cores[0]
	c0.stats.Interrupts++
	m.stats.Interrupts++
	c0.stats.Stolen += service
	m.stats.Stolen += service
	if m.listeners != nil {
		m.emit(trace.Event{At: now, Kind: trace.Interrupt, Service: service})
	}
	if c0.idle {
		// The core is busy with the handler now, even with no thread ready.
		c0.idle = false
		c0.stats.Idle += now - c0.idleFrom
		m.stats.Idle += now - c0.idleFrom
	}
	if c0.seg != nil && !c0.seg.paused {
		m.progress(c0)
		c0.seg.paused = true
	}
	if m.intrUntil < now {
		m.intrUntil = now
	}
	m.intrUntil += service
	if m.intrEnd != nil {
		m.eng.Cancel(m.intrEnd)
	}
	m.intrEnd = m.eng.At(m.intrUntil, m.intrDoneFn)
}

func (m *Machine) interruptDone() {
	m.intrEnd = nil
	c0 := m.cores[0]
	if c0.seg != nil {
		if !c0.seg.paused {
			panic("cpu: running segment during interrupt")
		}
		s := c0.seg
		s.paused = false
		s.resumeAt = m.eng.Now()
		s.end = m.eng.After(m.rate.TimeFor(s.left), c0.segEndFn)
		s.end.Core = c0.id
		return
	}
	// Wakeups or preemption charges may have arrived during the
	// interrupt; dispatch decides whether anything can run (and records
	// the transition back to idle if not).
	m.dispatch(c0)
}

// coreIntrBusy reports whether c is consumed by interrupt handling, which
// can only ever be true of core 0.
func (m *Machine) coreIntrBusy(c *coreCtx) bool { return c.id == 0 && m.intrEnd != nil }

func (m *Machine) interruptBusy() bool { return m.intrEnd != nil }

// Latency returns now minus the thread's ReadyAt, the time a runnable
// thread has waited since it last became ready.
func (m *Machine) Latency(t *sched.Thread) sim.Time { return m.eng.Now() - t.ReadyAt }

// emit hands e to every listener. Callers test m.listeners first, so a
// machine nobody listens to builds no events.
func (m *Machine) emit(e trace.Event) {
	for _, l := range m.listeners {
		l.Add(e)
	}
}

// emitThread emits a wake, block or exit event of t.
func (m *Machine) emitThread(k trace.Kind, t *sched.Thread, now sim.Time) {
	if m.listeners != nil {
		m.emit(trace.Event{At: now, Kind: k, Thread: t.Name, ThreadID: t.ID})
	}
}
