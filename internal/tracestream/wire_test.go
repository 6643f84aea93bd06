package tracestream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

func TestWireRoundTrip(t *testing.T) {
	meta := []trace.ThreadMeta{
		{TID: 1, Name: "dec", Depth: 1, Path: "/soft"},
		{TID: 2, Name: "hog", Depth: 2, Path: "/be/user1"},
	}
	events := []trace.Event{
		{At: 0, Kind: trace.Dispatch, Thread: "dec", ThreadID: 1},
		{At: 10, Kind: trace.Charge, Thread: "dec", ThreadID: 1, Used: 7, Runnable: true},
		{At: 10, Kind: trace.Interrupt, Service: 100},
		{At: 20, Kind: trace.Idle, Core: 3},
		{At: 30, Kind: trace.Block, Thread: "hog", ThreadID: 2},
	}
	var stream []byte
	stream = AppendHeaderFrame(stream, 4)
	stream = AppendThreadsFrame(stream, meta)
	for _, e := range events {
		stream = AppendEventFrame(stream, e)
	}
	stream = AppendDropFrame(stream, 42)
	stream = AppendEndFrame(stream, len(events), "abc123")

	dec := NewDecoder()
	// Feed byte-by-byte to exercise incremental reassembly.
	var frames []*Frame
	for i := 0; i < len(stream); i++ {
		dec.Feed(stream[i : i+1])
		for {
			f, err := dec.Next()
			if err != nil {
				t.Fatalf("decode at byte %d: %v", i, err)
			}
			if f == nil {
				break
			}
			kept := *f // the decoder reuses f
			frames = append(frames, &kept)
		}
	}
	if len(frames) != 2+len(events)+2 {
		t.Fatalf("got %d frames, want %d", len(frames), 2+len(events)+2)
	}
	if frames[0].Type != frameHeader || frames[0].NumCores != 4 || frames[0].Version != Version {
		t.Fatalf("header: %+v", frames[0])
	}
	if dec.NumCores() != 4 {
		t.Fatalf("decoder NumCores = %d", dec.NumCores())
	}
	if frames[1].Type != frameThreads || len(frames[1].Threads) != 2 || frames[1].Threads[1].Path != "/be/user1" {
		t.Fatalf("threads: %+v", frames[1])
	}
	for i, e := range events {
		got := frames[2+i]
		if got.Type != frameEvent {
			t.Fatalf("frame %d type %d", i, got.Type)
		}
		// Canonical rows must round-trip exactly (the digest depends on it).
		want := trace.RowText(e, 4)
		if have := trace.RowText(got.Event, 4); have != want {
			t.Fatalf("event %d row = %q, want %q", i, have, want)
		}
	}
	if d := frames[len(frames)-2]; d.Type != frameDrop || d.Dropped != 42 {
		t.Fatalf("drop: %+v", d)
	}
	if e := frames[len(frames)-1]; e.Type != frameEnd || e.Rows != uint64(len(events)) || e.Digest != "abc123" {
		t.Fatalf("end: %+v", e)
	}
}

func TestDecoderResolvesNames(t *testing.T) {
	var stream []byte
	stream = AppendHeaderFrame(stream, 1)
	stream = AppendThreadsFrame(stream, []trace.ThreadMeta{{TID: 7, Name: "editor", Depth: 2, Path: "/be/user2"}})
	stream = AppendEventFrame(stream, trace.Event{At: 5, Kind: trace.Wake, Thread: "editor", ThreadID: 7})
	dec := NewDecoder()
	dec.Feed(stream)
	var ev *Frame
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			break
		}
		if f.Type == frameEvent {
			ev = f
		}
	}
	if ev == nil || ev.Event.Thread != "editor" {
		t.Fatalf("name not resolved: %+v", ev)
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":      appendFrame(nil, append([]byte{frameHeader}, []byte("NOTTS!\x01\x01")...)),
		"bad version":    appendFrame(nil, append([]byte{frameHeader}, append([]byte(Magic), 99, 1)...)),
		"empty frame":    {0},
		"unknown type":   appendFrame(nil, []byte{0x7f}),
		"huge length":    {0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad event kind": appendFrame(nil, []byte{frameEvent, 0xee, 0, 0, 0, 0, 0, 0}),
		"truncated body": appendFrame(nil, []byte{frameEvent, 0}),
	}
	for name, in := range cases {
		dec := NewDecoder()
		dec.Feed(in)
		var err error
		for i := 0; i < 10; i++ {
			var f *Frame
			f, err = dec.Next()
			if err != nil || f == nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: decoder accepted malformed input %x", name, in)
			continue
		}
		// Errors are sticky.
		if _, err2 := dec.Next(); err2 == nil {
			t.Errorf("%s: error not sticky", name)
		}
	}
}

func TestDecoderCompaction(t *testing.T) {
	// Many small feeds with interleaved frame boundaries must not grow the
	// internal buffer without bound.
	dec := NewDecoder()
	frame := AppendEventFrame(nil, trace.Event{At: 1, Kind: trace.Idle})
	for i := 0; i < 100000; i++ {
		dec.Feed(frame)
		f, err := dec.Next()
		if err != nil || f == nil {
			t.Fatalf("iter %d: %v %v", i, f, err)
		}
	}
	if len(dec.buf)-dec.off > len(frame) {
		t.Fatalf("decoder retained %d unconsumed bytes", len(dec.buf)-dec.off)
	}
}

// TestKindWireCodesFrozen pins each kind's wire code: recorded streams
// carry them, so they may be appended to but never renumbered.
func TestKindWireCodesFrozen(t *testing.T) {
	want := map[trace.Kind]byte{
		trace.Dispatch:  0,
		trace.Charge:    1,
		trace.Wake:      2,
		trace.Block:     3,
		trace.Exit:      4,
		trace.Interrupt: 5,
		trace.Idle:      6,
		"bogus":         badKind,
	}
	for kind, code := range want {
		// Frame: length prefix, frame type, kind code, ...
		frame := AppendEventFrame(nil, trace.Event{Kind: kind})
		if frame[2] != code {
			t.Errorf("%s: wire code %d, want %d", kind, frame[2], code)
		}
		dec := NewDecoder()
		dec.Feed(frame)
		f, err := dec.Next()
		if code == badKind {
			if err == nil {
				t.Errorf("%s: decoder accepted an unknown kind", kind)
			}
			continue
		}
		if err != nil || f.Event.Kind != kind {
			t.Errorf("%s: decoded %+v, %v", kind, f, err)
		}
	}
}

func TestEventFrameNegativeValuesRoundTrip(t *testing.T) {
	// Wire uses uvarints; int64 values round-trip through uint64 casts.
	e := trace.Event{At: sim.Time(-1), Kind: trace.Charge, ThreadID: 3, Used: sched.Work(-5)}
	stream := AppendEventFrame(nil, e)
	dec := NewDecoder()
	dec.Feed(stream)
	f, err := dec.Next()
	if err != nil || f == nil {
		t.Fatalf("decode: %v %v", f, err)
	}
	if f.Event.At != e.At || f.Event.Used != e.Used {
		t.Fatalf("round-trip: %+v", f.Event)
	}
}

// refEventFrame is the event frame in two steps, as first defined: the
// body in a scratch slice, then its uvarint length and a copy of the
// body. It is kept only here, as the reference the in-place encoder is
// pinned against.
func refEventFrame(buf []byte, e trace.Event) []byte {
	body := []byte{frameEvent, kindCode(e.Kind)}
	body = binary.AppendUvarint(body, uint64(e.At))
	body = binary.AppendUvarint(body, uint64(e.ThreadID))
	body = binary.AppendUvarint(body, uint64(e.Used))
	if e.Runnable {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = binary.AppendUvarint(body, uint64(e.Service))
	body = binary.AppendUvarint(body, uint64(e.Core))
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// FuzzAppendEventFrame pins the in-place event frame encoder to the
// two-step reference on arbitrary field values, after a non-empty prefix
// so a clobbered prefix shows too, and checks that the frame decodes back
// to the event. kind picks a known kind by its wire code; any other value
// is an unknown kind, which encodes as badKind and must not decode.
func FuzzAppendEventFrame(f *testing.F) {
	f.Add(int64(5), uint8(1), 1, int64(7), true, int64(0), 0)
	f.Add(int64(-1), uint8(5), 0, int64(0), false, int64(-100), 3)
	f.Add(int64(math.MaxInt64), uint8(6), math.MaxInt64, int64(math.MaxInt64), true, int64(math.MaxInt64), math.MaxInt64)
	f.Add(int64(math.MinInt64), uint8(0), -1, int64(math.MinInt64), false, int64(-1), math.MinInt64)
	f.Add(int64(0), uint8(200), 0, int64(0), false, int64(0), 0)
	f.Fuzz(func(t *testing.T, at int64, kind uint8, tid int, used int64, runnable bool, service int64, core int) {
		e := trace.Event{
			At: sim.Time(at), Kind: "unknown", ThreadID: tid,
			Used: sched.Work(used), Runnable: runnable, Service: sim.Time(service), Core: core,
		}
		if int(kind) < len(codeKinds) {
			e.Kind = codeKinds[kind]
		}
		prefix := []byte("prefix|")
		got := AppendEventFrame(bytes.Clone(prefix), e)
		want := refEventFrame(bytes.Clone(prefix), e)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendEventFrame(%+v)\n got  %x\n want %x", e, got, want)
		}
		frame := got[len(prefix):]
		if len(frame) > maxEventFrame || int(frame[0]) != len(frame)-1 {
			t.Fatalf("frame of %d bytes has length byte %d (max frame %d)", len(frame), frame[0], maxEventFrame)
		}
		dec := NewDecoder()
		dec.Feed(frame)
		d, err := dec.Next()
		if e.Kind == "unknown" {
			if err == nil {
				t.Fatalf("decoder accepted an unknown kind: %+v", d)
			}
			return
		}
		if err != nil || d == nil || d.Type != frameEvent {
			t.Fatalf("decode %x: %+v, %v", frame, d, err)
		}
		if d.Event != e {
			t.Fatalf("round trip: got %+v, want %+v", d.Event, e)
		}
	})
}

// FuzzTraceFrameDecode feeds the decoder arbitrary bytes. It must never
// panic, loop forever or retain unbounded state. Every frame it returns
// must leave each field its type does not set at the zero value, so a
// reused frame carries nothing over from the one before. And the input
// fed in two chunks must decode to the same frames and the same error as
// the input fed at once.
func FuzzTraceFrameDecode(f *testing.F) {
	var seed []byte
	seed = AppendHeaderFrame(seed, 2)
	seed = AppendThreadsFrame(seed, []trace.ThreadMeta{{TID: 1, Name: "dec", Depth: 1, Path: "/soft"}})
	seed = AppendEventFrame(seed, trace.Event{At: 10, Kind: trace.Charge, Thread: "dec", ThreadID: 1, Used: 5, Runnable: true, Core: 1})
	seed = AppendDropFrame(seed, 3)
	seed = AppendEndFrame(seed, 1, "deadbeef")
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(AppendHeaderFrame(nil, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		two, twoErr := decodeChunks(t, data[:half], data[half:])
		one, oneErr := decodeChunks(t, data)
		if fmt.Sprint(oneErr) != fmt.Sprint(twoErr) || !reflect.DeepEqual(one, two) {
			t.Fatalf("one chunk: %d frames, error %v; two chunks: %d frames, error %v", len(one), oneErr, len(two), twoErr)
		}
	})
}

// decodeChunks feeds the chunks to one decoder in turn and returns a copy
// of every frame it decodes, up to the first error. Each chunk gets a
// bounded number of Next calls, so a decoder that stops consuming input
// fails instead of hanging.
func decodeChunks(t *testing.T, chunks ...[]byte) ([]Frame, error) {
	dec := NewDecoder()
	var frames []Frame
	for _, chunk := range chunks {
		dec.Feed(chunk)
		for i := 0; ; i++ {
			if i > len(chunk)+2 {
				t.Fatalf("decoder returned more frames than a %d-byte chunk holds", len(chunk))
			}
			f, err := dec.Next()
			if err != nil {
				return frames, err
			}
			if f == nil {
				break
			}
			if want := setFields(*f); !reflect.DeepEqual(*f, want) {
				t.Fatalf("frame of type %d carries fields its type does not set:\n got  %+v\n want %+v", f.Type, *f, want)
			}
			frames = append(frames, *f)
		}
	}
	return frames, nil
}

// setFields returns f with every field its type does not set zeroed.
func setFields(f Frame) Frame {
	out := Frame{Type: f.Type}
	switch f.Type {
	case frameHeader:
		out.Version, out.NumCores = f.Version, f.NumCores
	case frameThreads:
		out.Threads = f.Threads
	case frameEvent:
		out.Event = f.Event
	case frameDrop:
		out.Dropped = f.Dropped
	case frameEnd:
		out.Rows, out.Digest = f.Rows, f.Digest
	}
	return out
}
