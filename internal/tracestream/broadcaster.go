package tracestream

import (
	"slices"
	"sync"
	"sync/atomic"

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
	// Truncated reports that the frame cap was hit: Frames holds an exact
	// prefix of the events, and once finished one drop frame of Lost
	// before the end frame. Digest and Rows still cover the whole run.
	Truncated bool
	// Lost is how many events the recording dropped to stay under its cap.
	Lost uint64
}

// runBytes is how many bytes of event frames Add gathers before it
// pushes them to the subscribers: one lock, one append and at most one
// wake-up per subscriber per run of a few hundred frames, not per frame.
const runBytes = 4 << 10

// Broadcaster is a cpu.Listener: Add encodes every scheduling event into
// the wire format and fans it out to any number of subscribers through
// bounded per-subscriber buffers. With no subscriber attached and
// recording disabled, the hot path is a single atomic load — 0 allocs/op,
// enforced by an alloc-guard test.
//
// Event frames reach the subscribers in runs: Add appends each frame to
// one pending run, which goes to every subscriber once it holds runBytes,
// before every control frame (Begin, Finish), and at Subscribe and
// Unsubscribe. So a subscriber's Take and Dropped see an event only once
// its run has gone out.
//
// Lifecycle: New → [EnableRecording] → Machine.Listen (sets the core
// count) → Begin(meta) → run → Finish(). Subscribe works at any point;
// a subscriber attaching mid-run is seeded with the recording so far, so
// its stream is gap-free from tick zero unless the recording cap was hit.
type Broadcaster struct {
	// active gates the event hot path: true iff recording is enabled or
	// at least one subscriber is attached. Read without the lock.
	active atomic.Bool

	mu       sync.Mutex
	numCores int
	began    bool
	finished bool
	subs     []*Subscriber // in subscription order
	run      []byte        // event frames not yet pushed to subs; empty when subs is

	// Recording state (nil digest before Finish = recording disabled).
	// recFrames always holds the control frames; once an event frame does
	// not fit under recCap, recTrunc is set and no later event frame is
	// kept, so the recorded events are an exact prefix of the stream.
	// Finish keeps only the digest's final rows and sum, so the hasher's
	// buffer does not live as long as the recording.
	recCap    int
	recFrames []byte
	recDigest *trace.Hasher
	recRows   int
	recSum    string
	recTrunc  bool
	recLost   uint64
}

// New returns a Broadcaster with no subscribers and recording disabled.
func New() *Broadcaster {
	return &Broadcaster{numCores: 1}
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

// SetNumCores tells the broadcaster how many cores feed it;
// Machine.Listen calls it before any event. It must run before Begin.
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
	start := len(b.recFrames)
	b.recFrames = AppendHeaderFrame(b.recFrames, b.numCores)
	b.recFrames = AppendThreadsFrame(b.recFrames, meta)
	b.pushControl(b.recFrames[start:])
}

// Finish closes the stream: it appends the end frame (row count + full
// digest) to the recording and every subscriber. A truncated recording
// gets a drop frame of every lost event just before its end frame. The
// broadcaster ignores events after Finish.
func (b *Broadcaster) Finish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return
	}
	b.finished = true
	b.recRows, b.recSum = b.digest()
	b.recDigest = nil
	if b.recTrunc {
		b.recFrames = AppendDropFrame(b.recFrames, b.recLost)
	}
	start := len(b.recFrames)
	b.recFrames = AppendEndFrame(b.recFrames, b.recRows, b.recSum)
	b.pushControl(b.recFrames[start:])
}

// pushControl sends the pending run, then the control frames, to every
// subscriber. Caller holds b.mu.
func (b *Broadcaster) pushControl(frames []byte) {
	b.flushRun()
	for _, s := range b.subs {
		s.push(frames)
	}
}

// flushRun sends the pending run of event frames to every subscriber.
// Caller holds b.mu.
func (b *Broadcaster) flushRun() {
	if len(b.run) == 0 {
		return
	}
	for _, s := range b.subs {
		s.pushRun(b.run)
	}
	b.run = b.run[:0]
}

// digest returns the row count and hex digest of the events recorded so
// far. Caller holds b.mu.
func (b *Broadcaster) digest() (rows int, sum string) {
	if b.recDigest == nil {
		return b.recRows, b.recSum
	}
	return b.recDigest.Rows(), b.recDigest.Sum()
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
	rec.Rows, rec.Digest = b.digest()
	return rec
}

// Size returns the length in bytes of the recorded frames, the
// len(Snapshot().Frames) of this moment, without copying them.
func (b *Broadcaster) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recFrames)
}

// Subscribe attaches a new subscriber with the given pending-buffer cap
// in bytes (<=0 picks a 1 MiB default). The subscriber is seeded with the
// recorded stream so far — gap-free from tick zero when the recording is
// complete, or an exact prefix followed by one drop frame when the
// recording cap was hit — and then receives live frames.
func (b *Broadcaster) Subscribe(bufBytes int) *Subscriber {
	if bufBytes <= 0 {
		bufBytes = 1 << 20
	}
	s := &Subscriber{max: bufBytes, notify: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Events so far reach the new subscriber only through its seed, so
	// the pending run goes to the subscribers attached so far first: no
	// subscriber sees an event twice or misses one.
	b.flushRun()
	if len(b.recFrames) > 0 {
		// Seed beyond the cap if needed: catch-up happens once, and a
		// subscriber that asked for a tiny buffer still needs a coherent
		// stream prefix.
		s.buf = append(s.buf, b.recFrames...)
		if b.recTrunc {
			s.dropped += b.recLost
			if !b.finished { // a finished recording holds its drop frame
				s.buf = AppendDropFrame(s.buf, b.recLost)
			}
		}
		s.signal()
	}
	b.subs = append(b.subs, s)
	b.active.Store(true)
	return s
}

// Unsubscribe sends the pending run, then detaches and closes a
// subscriber.
func (b *Broadcaster) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	b.flushRun()
	if i := slices.Index(b.subs, s); i >= 0 {
		b.subs = slices.Delete(b.subs, i, i+1)
	}
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

// record folds one event into the digest and encodes its frame straight
// onto the recording, returning the frame there; it returns nil when
// recording is disabled or truncated. Control frames bypass it: they are
// always kept — they are tiny and every late subscriber is seeded from
// recFrames, so the stream prefix must stay coherent even when event
// recording is disabled or capped. Caller holds b.mu.
func (b *Broadcaster) record(e *trace.Event) []byte {
	if b.recDigest == nil {
		return nil
	}
	b.recDigest.Fold(e)
	if !b.recTrunc {
		start := len(b.recFrames)
		b.recFrames = appendEventFrame(b.recFrames, e)
		if b.recCap <= 0 || len(b.recFrames) <= b.recCap {
			return b.recFrames[start:]
		}
		// Over the cap: take the frame back and keep no later one, even
		// one that would fit, so the recording stays an exact prefix.
		b.recFrames = b.recFrames[:start]
		b.recTrunc = true
	}
	b.recLost++
	return nil
}

// Add is the hot path: encode once, record, and append to the pending
// run. With no subscriber the frame goes straight onto the recording and
// nowhere else. With subscribers the run gets a copy of the frame on the
// recording, or a fresh encoding once a capped recording keeps no more
// frames, and goes out when it holds runBytes.
func (b *Broadcaster) Add(e trace.Event) {
	if !b.active.Load() {
		return
	}
	b.mu.Lock()
	if b.began && !b.finished {
		frame := b.record(&e)
		if len(b.subs) > 0 {
			if frame != nil {
				b.run = append(b.run, frame...)
			} else {
				b.run = appendEventFrame(b.run, &e)
			}
			if len(b.run) >= runBytes {
				b.flushRun()
			}
		}
	}
	b.mu.Unlock()
}

// OnDispatch adds a dispatch event of t. It and OnCharge stay for the
// probes of the bench module until a benchmark change retires them.
func (b *Broadcaster) OnDispatch(t *sched.Thread, now sim.Time) {
	b.Add(trace.Event{At: now, Kind: trace.Dispatch, Thread: t.Name, ThreadID: t.ID})
}

// OnCharge adds a charge event of t; see OnDispatch.
func (b *Broadcaster) OnCharge(t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	b.Add(trace.Event{At: now, Kind: trace.Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable})
}

// Subscriber is one consumer's bounded view of the stream. The producer
// appends encoded frames to a pending buffer; the consumer waits on
// Notify and drains with Take. Event frames that would overflow the
// buffer are counted and replaced by a single drop frame once space
// frees up — the producer never blocks on a slow consumer.
type Subscriber struct {
	mu      sync.Mutex
	buf     []byte
	spare   []byte // what the last Take handed out; the next Take reuses it
	max     int
	dropped uint64 // total events dropped, including not-yet-materialized
	pending uint64 // dropped events awaiting a drop frame
	closed  bool
	notify  chan struct{}
}

// push appends control frames, which always go through, even past the
// cap, so the protocol stays coherent.
func (s *Subscriber) push(frames []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.add(frames, false)
	}
}

// pushRun appends a run of event frames: in one piece when it all fits
// and no drop is pending, else frame by frame, each frame's first byte
// being its body length, exactly as if the frames came one at a time.
func (s *Subscriber) pushRun(run []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.pending == 0 && len(s.buf)+len(run) <= s.max {
		s.appendBuf(run)
		return
	}
	for len(run) > 0 {
		n := 1 + int(run[0])
		s.add(run[:n], true)
		run = run[n:]
	}
}

// add appends one encoded frame. droppable marks event frames — the only
// kind that may be discarded under pressure. Caller holds s.mu.
func (s *Subscriber) add(frame []byte, droppable bool) {
	if s.pending > 0 {
		var scratch [16]byte
		drop := AppendDropFrame(scratch[:0], s.pending)
		if droppable && len(s.buf)+len(drop)+len(frame) > s.max {
			s.pending++
			s.dropped++
			return
		}
		s.appendBuf(drop)
		s.pending = 0
	} else if droppable && len(s.buf)+len(frame) > s.max {
		s.pending = 1
		s.dropped++
		return
	}
	s.appendBuf(frame)
}

// appendBuf appends p to the pending bytes and wakes the consumer when
// they were empty: a consumer that waits only after Take returned nil
// misses no wake-up. Caller holds s.mu.
func (s *Subscriber) appendBuf(p []byte) {
	if len(s.buf) == 0 {
		s.signal()
	}
	s.buf = append(s.buf, p...)
}

func (s *Subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify returns a channel that receives (at least) one token whenever
// pending bytes arrive in an empty buffer or the subscriber closes.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Take drains and returns all pending bytes (nil if none). The returned
// slice is valid until the next Take, which reuses its array for the
// bytes that arrive after that Take: copy it to keep it longer.
func (s *Subscriber) Take() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	out := s.buf
	s.buf = s.spare[:0]
	s.spare = out
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
