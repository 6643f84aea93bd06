package tracestream

import (
	"bytes"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

const testScenario = `{
  "rate_mips": 100,
  "horizon": "50ms",
  "seed": 7,
  "nodes": [
    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "rr"}
  ],
  "threads": [
    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
  ],
  "interrupts": [
    {"kind": "periodic", "period": "10ms", "service": "100us"}
  ]
}`

// runTraced runs the test scenario with the broadcaster and a reference
// trace.Hasher attached to the same machine.
func runTraced(t *testing.T, b *Broadcaster) *trace.Hasher {
	t.Helper()
	cfg, err := simconfig.Parse(strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	s.Machine.Listen(h)
	s.Machine.Listen(b)
	b.Begin(s.ThreadMetas())
	s.Run()
	b.Finish()
	return h
}

// drainDecode decodes everything the subscriber has pending.
func drainDecode(t *testing.T, sub *Subscriber, dec *Decoder) []*Frame {
	t.Helper()
	var out []*Frame
	for {
		chunk := sub.Take()
		if chunk == nil {
			return out
		}
		dec.Feed(chunk)
		for {
			f, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				break
			}
			out = append(out, f)
		}
	}
}

func TestBroadcasterStreamMatchesHasher(t *testing.T) {
	b := New()
	b.EnableRecording(0)
	sub := b.Subscribe(0) // attached before the run: must be gap-free
	h := runTraced(t, b)

	rec := b.Snapshot()
	if rec.Digest != h.Sum() {
		t.Fatalf("recording digest %s != hasher %s", rec.Digest, h.Sum())
	}
	if rec.Rows != h.Rows() || rec.Rows == 0 {
		t.Fatalf("recording rows %d, hasher %d", rec.Rows, h.Rows())
	}
	if rec.Truncated || rec.Lost != 0 {
		t.Fatalf("unexpected truncation: %+v", rec)
	}

	// The live subscriber's stream re-hashes to the same digest.
	dec := NewDecoder()
	frames := drainDecode(t, sub, dec)
	rd := trace.NewHasher()
	var end *Frame
	for _, f := range frames {
		switch f.Type {
		case frameEvent:
			rd.Add(f.Event)
		case frameDrop:
			t.Fatalf("fast subscriber saw a drop frame")
		case frameEnd:
			end = f
		case frameHeader:
			rd.SetNumCores(f.NumCores)
		}
	}
	if end == nil {
		t.Fatal("no end frame")
	}
	if rd.Sum() != h.Sum() || end.Digest != h.Sum() {
		t.Fatalf("subscriber digest %s, end frame %s, hasher %s", rd.Sum(), end.Digest, h.Sum())
	}
	if rd.Rows() != h.Rows() || int(end.Rows) != h.Rows() {
		t.Fatalf("subscriber rows %d, end %d, hasher %d", rd.Rows(), end.Rows, h.Rows())
	}
	if sub.Dropped() != 0 {
		t.Fatalf("fast subscriber dropped %d", sub.Dropped())
	}
}

func TestLateSubscriberSeededFromRecording(t *testing.T) {
	b := New()
	b.EnableRecording(0)
	h := runTraced(t, b)

	// Subscribing after Finish replays the whole recording.
	sub := b.Subscribe(0)
	rd := trace.NewHasher()
	var sawEnd bool
	for _, f := range drainDecode(t, sub, NewDecoder()) {
		switch f.Type {
		case frameEvent:
			rd.Add(f.Event)
		case frameEnd:
			sawEnd = true
		}
	}
	if !sawEnd || rd.Sum() != h.Sum() {
		t.Fatalf("replay digest %s, hasher %s, end=%v", rd.Sum(), h.Sum(), sawEnd)
	}
}

func TestSlowSubscriberDropsWithoutBackpressure(t *testing.T) {
	b := New()
	b.EnableRecording(0)
	b.Begin([]trace.ThreadMeta{{TID: 1, Name: "x", Depth: 1, Path: "/x"}})
	charge := trace.Event{Kind: trace.Charge, Thread: "x", ThreadID: 1, Used: 1, Runnable: true}

	sub := b.Subscribe(256) // tiny buffer, never drained during the burst
	drainDecode(t, sub, NewDecoder())
	for i := 0; i < 1000; i++ {
		b.Add(charge)
	}
	if sub.Dropped() == 0 {
		t.Fatal("slow subscriber should have dropped events")
	}
	// Recording is unaffected by the slow subscriber.
	if b.Snapshot().Rows != 1000 {
		t.Fatalf("recording rows %d", b.Snapshot().Rows)
	}
	// After draining, the next event materializes the drop marker.
	sub.Take()
	b.Add(charge)
	b.Finish()
	var drops uint64
	events := 0
	for _, f := range drainDecode(t, sub, NewDecoder()) {
		switch f.Type {
		case frameDrop:
			drops += f.Dropped
		case frameEvent:
			events++
		}
	}
	if drops == 0 {
		t.Fatal("no drop frame after gap")
	}
	if drops != sub.Dropped() {
		t.Fatalf("drop frames claim %d, counter %d", drops, sub.Dropped())
	}
	if events == 0 {
		t.Fatal("no events after the gap")
	}
}

func TestTruncatedRecordingMarksGapForLateSubscriber(t *testing.T) {
	b := New()
	b.EnableRecording(512)
	b.Begin([]trace.ThreadMeta{{TID: 1, Name: "x", Depth: 1, Path: "/x"}})
	charge := trace.Event{Kind: trace.Charge, Thread: "x", ThreadID: 1, Used: 1, Runnable: true}
	for i := 0; i < 1000; i++ {
		b.Add(charge)
	}
	b.Finish()
	rec := b.Snapshot()
	if !rec.Truncated || rec.Lost == 0 || rec.Rows != 1000 {
		t.Fatalf("recording: %+v", rec)
	}
	sub := b.Subscribe(0)
	var drops uint64
	for _, f := range drainDecode(t, sub, NewDecoder()) {
		if f.Type == frameDrop {
			drops += f.Dropped
		}
	}
	if drops != rec.Lost {
		t.Fatalf("late subscriber saw %d drops, recording lost %d", drops, rec.Lost)
	}
}

// TestTruncatedRecordingIsExactPrefix pins sticky truncation: once the
// cap drops one event frame, every later event frame is dropped too, even
// a smaller one that would still fit. The recording, a subscriber that
// attaches after the gap and one that attaches after Finish all hold the
// same bytes: the kept events, one drop frame of every lost event, and
// the end frame.
func TestTruncatedRecordingIsExactPrefix(t *testing.T) {
	meta := []trace.ThreadMeta{{TID: 1, Name: "x", Depth: 1, Path: "/x"}}
	dispatch := trace.Event{At: 1, Kind: trace.Dispatch, Thread: "x", ThreadID: 1}
	charge := trace.Event{At: 2, Kind: trace.Charge, Thread: "x", ThreadID: 1, Used: 1_000_000, Runnable: true}
	control := AppendThreadsFrame(AppendHeaderFrame(nil, 1), meta)
	dispatchLen := len(AppendEventFrame(nil, dispatch))
	if len(AppendEventFrame(nil, charge)) <= dispatchLen {
		t.Fatal("the charge frame must be longer than the dispatch frame")
	}

	b := New()
	b.EnableRecording(len(control) + 2*dispatchLen) // room for two dispatches
	b.Begin(meta)
	h := trace.NewHasher()
	for _, e := range []trace.Event{dispatch, charge, dispatch} {
		b.Add(e)
		h.Add(e)
	}
	live := b.Subscribe(0)
	b.Finish()

	want := AppendEventFrame(bytes.Clone(control), dispatch)
	want = AppendDropFrame(want, 2)
	want = AppendEndFrame(want, 3, h.Sum())
	rec := b.Snapshot()
	if !rec.Truncated || rec.Lost != 2 || rec.Rows != 3 || rec.Digest != h.Sum() {
		t.Fatalf("recording: truncated %v, lost %d, rows %d, digest %s (want %s)", rec.Truncated, rec.Lost, rec.Rows, rec.Digest, h.Sum())
	}
	if !bytes.Equal(rec.Frames, want) {
		t.Fatalf("recording frames\n got  %x\n want %x", rec.Frames, want)
	}
	if b.Size() != len(rec.Frames) {
		t.Fatalf("Size %d, recording holds %d bytes", b.Size(), len(rec.Frames))
	}
	late := b.Subscribe(0)
	for name, sub := range map[string]*Subscriber{"live": live, "late": late} {
		if got := sub.Take(); !bytes.Equal(got, want) || sub.Dropped() != 2 {
			t.Errorf("%s subscriber dropped %d of\n got  %x\n want %x", name, sub.Dropped(), got, want)
		}
	}
}

func TestUnsubscribeClosesAndDeactivates(t *testing.T) {
	b := New()
	sub := b.Subscribe(0)
	if !b.active.Load() {
		t.Fatal("subscriber should activate the broadcaster")
	}
	b.Unsubscribe(sub)
	if !sub.Closed() {
		t.Fatal("unsubscribed subscriber should be closed")
	}
	if b.active.Load() {
		t.Fatal("no subscribers and no recording: broadcaster should be inactive")
	}
	if b.Subscribers() != 0 {
		t.Fatal("subscriber count should be 0")
	}
}

func TestBroadcasterNoSubscriberZeroAllocs(t *testing.T) {
	b := New()
	th := sched.NewThread(1, "x", 1)
	allocs := testing.AllocsPerRun(1000, func() {
		b.OnDispatch(th, 0)
		b.OnCharge(th, 1, 0, true)
		b.Add(trace.Event{Kind: trace.Interrupt, Service: 1})
		b.Add(trace.Event{Kind: trace.Idle, Core: 1})
	})
	if allocs != 0 {
		t.Fatalf("no-subscriber hot path allocates %v allocs/op, want 0", allocs)
	}
}
