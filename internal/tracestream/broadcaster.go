package tracestream

import (
	"sync"
	"sync/atomic"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// Recording is a finished trace stream: the encoded frames (header,
// threads, events, terminated by an end frame) plus the digest metadata,
// ready to be replayed to late subscribers or served over HTTP.
type Recording struct {
	// Frames is the complete encoded stream including the end frame.
	Frames []byte
	// Digest is the trace.Hasher hex digest over every event of the run —
	// complete even when Frames is truncated.
	Digest string
	// Rows is the total event count of the run.
	Rows int
	// Truncated reports that the frame cap was hit: Frames is missing
	// Lost events (a drop frame marks the gap), though Digest and Rows
	// still cover the whole run.
	Truncated bool
	// Lost is how many events the recording dropped to stay under its cap.
	Lost uint64
}

// Broadcaster implements cpu.Listener (and cpu.SMPListener): it encodes
// every scheduling event into the wire format and fans it out to any
// number of subscribers through bounded per-subscriber buffers. With no
// subscriber attached and recording disabled, the hot path is a single
// atomic load — 0 allocs/op, enforced by an alloc-guard test.
//
// Lifecycle: New → [EnableRecording] → Machine.Listen (sets the core
// count) → Begin(meta) → run → Finish(). Subscribe works at any point;
// a subscriber attaching mid-run is seeded with the recording so far, so
// its stream is gap-free from tick zero unless the recording cap was hit.
type Broadcaster struct {
	cpu.BaseListener

	// active gates the event hot path: true iff recording is enabled or
	// at least one subscriber is attached. Read without the lock.
	active atomic.Bool

	mu       sync.Mutex
	numCores int
	meta     []trace.ThreadMeta
	began    bool
	finished bool
	subs     map[*Subscriber]struct{}
	scratch  []byte

	// Recording state (nil digest = recording disabled).
	recCap    int
	recFrames []byte
	recDigest *trace.Hasher
	recTrunc  bool
	recLost   uint64
}

// New returns a Broadcaster with no subscribers and recording disabled.
func New() *Broadcaster {
	return &Broadcaster{numCores: 1, subs: make(map[*Subscriber]struct{})}
}

// EnableRecording makes the broadcaster keep the encoded stream, up to
// maxBytes of frames (<=0 means unbounded). The digest always covers the
// full run even if the frame cap is hit. Call before Begin.
func (b *Broadcaster) EnableRecording(maxBytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.recCap = maxBytes
	b.recDigest = trace.NewHasher()
	b.recDigest.SetNumCores(b.numCores)
	b.active.Store(true)
}

// SetNumCores implements the optional Listener upgrade: Machine.Listen
// calls it before any event. It must run before Begin.
func (b *Broadcaster) SetNumCores(n int) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.numCores = n
	if b.recDigest != nil && b.recDigest.Rows() == 0 {
		b.recDigest.SetNumCores(n)
	}
}

// Begin opens the stream: it emits the header and threads frames to the
// recording and all current subscribers. Events observed before Begin
// are dropped from the stream (none exist in the normal lifecycle).
func (b *Broadcaster) Begin(meta []trace.ThreadMeta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.began {
		return
	}
	b.began = true
	b.meta = meta
	b.scratch = AppendHeaderFrame(b.scratch[:0], b.numCores)
	b.scratch = AppendThreadsFrame(b.scratch, meta)
	b.record(nil, b.scratch)
	for s := range b.subs {
		s.push(b.scratch, false)
	}
}

// Finish closes the stream: it appends the end frame (row count + full
// digest) to the recording and every subscriber. The broadcaster ignores
// events after Finish.
func (b *Broadcaster) Finish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return
	}
	b.finished = true
	rows, digest := 0, ""
	if b.recDigest != nil {
		rows, digest = b.recDigest.Rows(), b.recDigest.Sum()
	}
	b.scratch = AppendEndFrame(b.scratch[:0], rows, digest)
	b.record(nil, b.scratch)
	for s := range b.subs {
		s.push(b.scratch, false)
	}
}

// Snapshot returns the recording. Meaningful after Finish; before that
// it reflects the stream so far (without an end frame).
func (b *Broadcaster) Snapshot() Recording {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec := Recording{
		Frames:    append([]byte(nil), b.recFrames...),
		Truncated: b.recTrunc,
		Lost:      b.recLost,
	}
	if b.recDigest != nil {
		rec.Digest = b.recDigest.Sum()
		rec.Rows = b.recDigest.Rows()
	}
	return rec
}

// Subscribe attaches a new subscriber with the given pending-buffer cap
// in bytes (<=0 picks a 1 MiB default). The subscriber is seeded with the
// recorded stream so far — gap-free from tick zero when the recording is
// complete, or marked with a drop frame when the recording cap was hit —
// and then receives live frames.
func (b *Broadcaster) Subscribe(bufBytes int) *Subscriber {
	if bufBytes <= 0 {
		bufBytes = 1 << 20
	}
	s := &Subscriber{max: bufBytes, notify: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.recFrames) > 0 {
		// Seed beyond the cap if needed: catch-up happens once, and a
		// subscriber that asked for a tiny buffer still needs a coherent
		// stream prefix.
		s.buf = append(s.buf, b.recFrames...)
		if b.recTrunc {
			s.buf = AppendDropFrame(s.buf, b.recLost)
			s.dropped += b.recLost
		}
		s.signal()
	} else if b.began {
		// No recording to seed from: open the stream for this subscriber.
		s.buf = AppendHeaderFrame(s.buf, b.numCores)
		s.buf = AppendThreadsFrame(s.buf, b.meta)
		s.signal()
	}
	b.subs[s] = struct{}{}
	b.active.Store(true)
	return s
}

// Unsubscribe detaches and closes a subscriber.
func (b *Broadcaster) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	delete(b.subs, s)
	b.active.Store(b.recDigest != nil || len(b.subs) > 0)
	b.mu.Unlock()
	s.Close()
}

// Subscribers returns the number of attached subscribers.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// record folds one event (e != nil) or a control frame into the
// recording. Control frames are always kept — they are tiny and every
// late subscriber is seeded from recFrames, so the stream prefix must
// stay coherent even when event recording is disabled or capped. Caller
// holds b.mu.
func (b *Broadcaster) record(e *trace.Event, frame []byte) {
	if e != nil {
		if b.recDigest == nil {
			return
		}
		b.recDigest.Add(*e)
		if b.recCap > 0 && len(b.recFrames)+len(frame) > b.recCap {
			b.recTrunc = true
			b.recLost++
			return
		}
	}
	b.recFrames = append(b.recFrames, frame...)
}

// event is the hot path: encode once, record, fan out.
func (b *Broadcaster) event(e trace.Event) {
	if !b.active.Load() {
		return
	}
	b.mu.Lock()
	if b.finished || !b.began {
		b.mu.Unlock()
		return
	}
	b.scratch = AppendEventFrame(b.scratch[:0], e)
	b.record(&e, b.scratch)
	for s := range b.subs {
		s.push(b.scratch, true)
	}
	b.mu.Unlock()
}

// OnDispatch implements cpu.Listener.
func (b *Broadcaster) OnDispatch(t *sched.Thread, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Dispatch, Thread: t.Name, ThreadID: t.ID})
}

// OnCharge implements cpu.Listener.
func (b *Broadcaster) OnCharge(t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	b.event(trace.Event{At: now, Kind: trace.Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable})
}

// OnWake implements cpu.Listener.
func (b *Broadcaster) OnWake(t *sched.Thread, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Wake, Thread: t.Name, ThreadID: t.ID})
}

// OnBlock implements cpu.Listener.
func (b *Broadcaster) OnBlock(t *sched.Thread, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Block, Thread: t.Name, ThreadID: t.ID})
}

// OnExit implements cpu.Listener.
func (b *Broadcaster) OnExit(t *sched.Thread, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Exit, Thread: t.Name, ThreadID: t.ID})
}

// OnInterrupt implements cpu.Listener.
func (b *Broadcaster) OnInterrupt(now, service sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Interrupt, Service: service})
}

// OnIdle implements cpu.Listener.
func (b *Broadcaster) OnIdle(now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Idle})
}

// OnDispatchCore implements cpu.SMPListener.
func (b *Broadcaster) OnDispatchCore(core int, t *sched.Thread, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Dispatch, Thread: t.Name, ThreadID: t.ID, Core: core})
}

// OnChargeCore implements cpu.SMPListener.
func (b *Broadcaster) OnChargeCore(core int, t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	b.event(trace.Event{At: now, Kind: trace.Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable, Core: core})
}

// OnIdleCore implements cpu.SMPListener.
func (b *Broadcaster) OnIdleCore(core int, now sim.Time) {
	b.event(trace.Event{At: now, Kind: trace.Idle, Core: core})
}

// Subscriber is one consumer's bounded view of the stream. The producer
// appends encoded frames to a pending buffer; the consumer waits on
// Notify and drains with Take. Event frames that would overflow the
// buffer are counted and replaced by a single drop frame once space
// frees up — the producer never blocks on a slow consumer.
type Subscriber struct {
	mu      sync.Mutex
	buf     []byte
	max     int
	dropped uint64 // total events dropped, including not-yet-materialized
	pending uint64 // dropped events awaiting a drop frame
	closed  bool
	notify  chan struct{}
}

// push appends one encoded frame. droppable marks event frames — the
// only kind that may be discarded under pressure; control frames always
// go through, even past the cap, so the protocol stays coherent.
func (s *Subscriber) push(frame []byte, droppable bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.pending > 0 {
		var scratch [16]byte
		drop := AppendDropFrame(scratch[:0], s.pending)
		if droppable && len(s.buf)+len(drop)+len(frame) > s.max {
			s.pending++
			s.dropped++
			return
		}
		s.buf = append(s.buf, drop...)
		s.pending = 0
	} else if droppable && len(s.buf)+len(frame) > s.max {
		s.pending = 1
		s.dropped++
		return
	}
	s.buf = append(s.buf, frame...)
	s.signal()
}

func (s *Subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify returns a channel that receives (at least) one token whenever
// pending bytes arrive or the subscriber closes.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Take drains and returns all pending bytes (nil if none). The returned
// slice is owned by the caller.
func (s *Subscriber) Take() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	out := s.buf
	s.buf = nil
	return out
}

// Dropped returns the total number of events this subscriber lost.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Closed reports whether the subscriber has been closed.
func (s *Subscriber) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close marks the subscriber closed and wakes any waiter. Pending bytes
// remain drainable via Take.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.signal()
	}
	s.mu.Unlock()
}
