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

// The recording grows in chunks that are never copied to grow: the first
// holds minChunk bytes, each next one twice its predecessor, up to
// maxChunk.
const (
	minChunk = 4 << 10
	maxChunk = 64 << 10
)

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
// A recording's digest is folded only once something reads it. While
// nothing does, Add encodes each event's frame onto the recording and
// counts its row, and Finish leaves the end frame pending; the first
// Snapshot or Subscribe after Finish decodes the recorded frames once,
// folds them into a trace.Hasher and records the end frame. Three things
// switch a run to folding each event as it comes, after the frames
// recorded so far: a Subscribe or Snapshot before Finish, the first event
// frame dropped at the recording cap (the frames no longer cover the
// run), and an event whose frame would not decode back to it (see
// decodesBack). Either way the digest is the one a trace.Hasher attached
// to the same machine computes.
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

	// Recording state. recChunks always holds the control frames, each
	// frame whole in one chunk; once an event frame does not fit under
	// recCap, recTrunc is set and no later event frame is kept, so the
	// recorded events are an exact prefix of the stream. recDigest folds
	// events live; it is nil while the digest is deferred and once recSum
	// holds the final digest, which Finish or the first read after it
	// sets.
	recOn     bool
	recCap    int
	recChunks [][]byte
	recSize   int            // bytes in recChunks
	recNames  map[int]string // thread names a decoder resolves, by ID
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
	b.recOn = true
	b.recCap = maxBytes
	b.active.Store(true)
}

// SetNumCores tells the broadcaster how many cores feed it;
// Machine.Listen calls it before any event. It must run before Begin;
// once a row is recorded, the digest's core count no longer changes.
func (b *Broadcaster) SetNumCores(n int) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.recRows > 0 {
		return
	}
	b.numCores = n
	if b.recDigest != nil {
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
	frames := AppendThreadsFrame(AppendHeaderFrame(nil, b.numCores), meta)
	b.keep(frames)
	if b.deferred() {
		var ok bool
		if b.recNames, ok = threadNames(frames); !ok {
			b.fold() // a table no decoder reads: fold live from the start
		}
	}
	b.pushControl(frames)
}

// Finish closes the stream: it appends the end frame (row count + full
// digest) to the recording and every subscriber. A truncated recording
// gets a drop frame of every lost event just before its end frame. A
// deferred digest leaves the end frame pending until the first read,
// with room for it kept. The broadcaster ignores events after Finish.
func (b *Broadcaster) Finish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return
	}
	b.finished = true
	b.recNames = nil
	if b.deferred() {
		b.clip(endFrameLen(b.recRows))
		return
	}
	if b.recDigest != nil {
		b.recSum = b.recDigest.Sum()
		b.recDigest = nil
	}
	var frames []byte
	if b.recTrunc { // for late subscribers: live ones count their own drops
		frames = AppendDropFrame(frames, b.recLost)
	}
	end := len(frames)
	frames = AppendEndFrame(frames, b.recRows, b.recSum)
	b.clip(len(frames))
	b.keep(frames)
	b.pushControl(frames[end:])
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

// deferred reports that the recording's digest is not folded yet.
// Caller holds b.mu.
func (b *Broadcaster) deferred() bool {
	return b.recOn && b.recDigest == nil && b.recSum == ""
}

// fold ends a deferred digest: it decodes the recorded event frames into
// a trace.Hasher, which then folds every later event as Add sees it.
// After Finish it sums the hasher and records the pending end frame.
// Caller holds b.mu.
func (b *Broadcaster) fold() {
	if !b.deferred() {
		return
	}
	h := trace.NewHasher()
	h.SetNumCores(b.numCores)
	if b.recRows > 0 { // with none, Begin may fold because no decoder reads the threads frame
		foldFrames(h, b.recChunks)
	}
	b.recDigest = h
	if b.finished {
		b.recSum = h.Sum()
		b.recDigest = nil
		b.keep(AppendEndFrame(nil, b.recRows, b.recSum))
	}
}

// foldFrames folds the event frames of chunks of whole frames into h.
func foldFrames(h *trace.Hasher, chunks [][]byte) {
	dec := NewDecoder()
	for _, c := range chunks {
		dec.buf, dec.off = c, 0 // whole frames: decode the chunk in place
		for {
			f, err := dec.Next()
			if err != nil {
				panic(err) // the broadcaster checked that every frame decodes back
			}
			if f == nil {
				break
			}
			if f.Type == frameEvent {
				h.Fold(&f.Event)
			}
		}
	}
}

// decodesBack reports whether e's frame decodes back to e, as the
// deferred fold needs: its kind has a wire code, and its thread name is
// the one the threads frame gives its ID, or none for ID 0. O(1) and 0
// allocs. Caller holds b.mu.
func (b *Broadcaster) decodesBack(e *trace.Event) bool {
	if kindCode(e.Kind) == badKind {
		return false
	}
	if e.ThreadID == 0 {
		return e.Thread == ""
	}
	return e.Thread == b.recNames[e.ThreadID]
}

// Snapshot returns the recording. Meaningful after Finish; before that
// it reflects the stream so far (without an end frame).
func (b *Broadcaster) Snapshot() Recording {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fold()
	rec := Recording{
		Frames:    b.appendRecording(nil),
		Digest:    b.recSum,
		Rows:      b.recRows,
		Truncated: b.recTrunc,
		Lost:      b.recLost,
	}
	if b.recDigest != nil {
		rec.Digest = b.recDigest.Sum()
	}
	return rec
}

// Size returns the length in bytes of the recorded frames, the
// len(Snapshot().Frames) of this moment, without copying them or folding
// a deferred digest: a pending end frame's length depends only on the
// row count.
func (b *Broadcaster) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished && b.deferred() {
		return b.recSize + endFrameLen(b.recRows)
	}
	return b.recSize
}

// appendRecording appends the recorded frames to dst. Caller holds b.mu.
func (b *Broadcaster) appendRecording(dst []byte) []byte {
	dst = slices.Grow(dst, b.recSize)
	for _, c := range b.recChunks {
		dst = append(dst, c...)
	}
	return dst
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
	b.fold()
	if b.recSize > 0 {
		// Seed beyond the cap if needed: catch-up happens once, and a
		// subscriber that asked for a tiny buffer still needs a coherent
		// stream prefix.
		s.buf = b.appendRecording(s.buf)
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
	b.active.Store((b.recOn && !b.finished) || len(b.subs) > 0)
	b.mu.Unlock()
	s.Close()
}

// Subscribers returns the number of attached subscribers.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// room returns the recording's last chunk with room for n more bytes,
// starting a new chunk when it has not. Caller holds b.mu.
func (b *Broadcaster) room(n int) []byte {
	size := minChunk
	if k := len(b.recChunks); k > 0 {
		last := b.recChunks[k-1]
		if cap(last)-len(last) >= n {
			return last
		}
		size = min(2*cap(last), maxChunk)
	}
	c := make([]byte, 0, max(size, n))
	b.recChunks = append(b.recChunks, c)
	return c
}

// keep appends whole frames to the recording. Caller holds b.mu.
func (b *Broadcaster) keep(frames []byte) {
	c := append(b.room(len(frames)), frames...)
	b.recChunks[len(b.recChunks)-1] = c
	b.recSize += len(frames)
}

// clip reallocates the last chunk to its length plus n bytes of room, so
// a finished recording holds no spare capacity. Caller holds b.mu.
func (b *Broadcaster) clip(n int) {
	if k := len(b.recChunks); k > 0 {
		last := b.recChunks[k-1]
		b.recChunks[k-1] = append(make([]byte, 0, len(last)+n), last...)
	}
}

// record counts one event's row and encodes its frame straight onto the
// recording, returning the frame there, and folds it into a live digest;
// it returns nil when recording is disabled or truncated. Control frames
// bypass it: they are always kept — they are tiny and every late
// subscriber is seeded from the recording, so the stream prefix must stay
// coherent even when event recording is disabled or capped. Caller holds
// b.mu.
func (b *Broadcaster) record(e *trace.Event) []byte {
	if !b.recOn {
		return nil
	}
	if b.recDigest == nil && !b.decodesBack(e) {
		b.fold()
	}
	var frame []byte
	if !b.recTrunc {
		c := b.room(maxEventFrame)
		start := len(c)
		c = appendEventFrame(c, e)
		if n := len(c) - start; b.recCap <= 0 || b.recSize+n <= b.recCap {
			b.recChunks[len(b.recChunks)-1] = c
			b.recSize += n
			frame = c[start:]
		} else {
			// Over the cap: keep no later frame, even one that would fit,
			// so the recording stays an exact prefix, and fold from here
			// on, since the frames no longer cover the run.
			b.recTrunc = true
			b.fold()
		}
	}
	if frame == nil {
		b.recLost++
	}
	b.recRows++
	if b.recDigest != nil {
		b.recDigest.Fold(e)
	}
	return frame
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
