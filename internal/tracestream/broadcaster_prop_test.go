package tracestream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// propCaps are the subscriber buffer caps the fan-out property draws
// from: below one event frame, below one 4 KiB run, about one run,
// several runs, and far more than a script produces.
var propCaps = []int{16, 100, 1 << 10, 4 << 10, 12 << 10, 64 << 10, 1 << 20}

// propSub is one subscriber of a script and every byte it took, in order.
type propSub struct {
	sub  *Subscriber
	cap  int
	took []byte
}

func (p *propSub) take() { p.took = append(p.took, p.sub.Take()...) }

// TestFanoutProperty runs seeded random scripts against a recording
// Broadcaster, with and without a byte cap on the recording: events of
// all seven kinds, Takes on random subscribers, and subscribers attaching
// before Begin, mid-run and after Finish, or never. A second, uncapped
// recording is fed the same events as the reference stream, and a
// trace.Hasher too: both recordings' rows and digests must be the
// hasher's, whether the digest was folded live or deferred to the first
// read. The test starts no goroutine. After Finish, for every subscriber:
//   - its bytes decode without error and end with the end frame;
//   - its event rows are the reference's rows in order, with each drop
//     frame standing for exactly the rows missing at its place, so rows
//     received plus dropped equal the total rows;
//   - its drop frames sum to Dropped();
//   - one that lost no event holds exactly the reference's frames, which
//     are Snapshot().Frames when the recording was not truncated.
func TestFanoutProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, recCap := range []int{0, 300, 8 << 10} {
			t.Run(fmt.Sprintf("seed=%d/cap=%d", seed, recCap), func(t *testing.T) {
				runFanoutScript(t, rand.New(rand.NewSource(seed)), recCap, true)
				runFanoutScript(t, rand.New(rand.NewSource(seed)), recCap, false)
			})
		}
	}
}

func runFanoutScript(t *testing.T, rng *rand.Rand, recCap int, attach bool) {
	b, ref, h := New(), New(), trace.NewHasher()
	b.EnableRecording(recCap)
	ref.EnableRecording(0)
	cores := 1 + rng.Intn(2)
	b.SetNumCores(cores)
	ref.SetNumCores(cores)
	h.SetNumCores(cores)
	meta := []trace.ThreadMeta{
		{TID: 1, Name: "dec", Depth: 1, Path: "/soft"},
		{TID: 2, Name: "hog", Depth: 2, Path: "/be/u1"},
		{TID: 3, Name: "sh", Depth: 2, Path: "/be/u2"},
	}
	var subs []*propSub
	subscribe := func() {
		if !attach {
			return
		}
		c := propCaps[rng.Intn(len(propCaps))]
		subs = append(subs, &propSub{sub: b.Subscribe(c), cap: c})
	}
	now := sim.Time(0)
	add := func() {
		now += sim.Time(rng.Int63n(int64(sim.Second)))
		tid := rng.Intn(len(meta) + 1)
		e := trace.Event{
			At:       now,
			Kind:     codeKinds[rng.Intn(len(codeKinds))],
			ThreadID: tid,
			Used:     sched.Work(rng.Int63n(1 << uint(rng.Intn(40)+1))),
			Runnable: rng.Intn(2) == 0,
			Service:  sim.Time(rng.Int63n(1 << uint(rng.Intn(30)+1))),
			Core:     rng.Intn(cores),
		}
		if tid > 0 {
			e.Thread = meta[tid-1].Name
		}
		b.Add(e)
		ref.Add(e)
		h.Add(e)
	}

	for i := rng.Intn(3); i > 0; i-- {
		subscribe() // before Begin
	}
	b.Begin(meta)
	ref.Begin(meta)
	for steps := 300 + rng.Intn(2500); steps > 0; steps-- {
		switch r := rng.Intn(100); {
		case r < 85:
			add()
		case r < 98:
			if len(subs) > 0 {
				subs[rng.Intn(len(subs))].take()
			}
		default:
			subscribe() // mid-run
		}
	}
	b.Finish()
	ref.Finish()
	hashed, sum := h.Rows(), h.Sum()
	add() // after Finish: ignored by both recordings
	for i := rng.Intn(3); i > 0; i-- {
		subscribe() // after Finish
	}

	want := ref.Snapshot()
	got := b.Snapshot()
	for _, rec := range []Recording{got, want} {
		if rec.Rows != hashed || rec.Digest != sum {
			t.Fatalf("recording rows %d digest %s, hasher %d %s", rec.Rows, rec.Digest, hashed, sum)
		}
	}
	if !got.Truncated && !bytes.Equal(got.Frames, want.Frames) {
		t.Fatal("an untruncated recording differs from the reference")
	}
	rows := decodeEvents(t, want.Frames)
	for i, p := range subs {
		p.take()
		checkSubscriberStream(t, i, p, rows, want)
	}
}

// decodeEvents returns the event rows of a complete, lossless stream.
func decodeEvents(t *testing.T, stream []byte) []trace.Event {
	t.Helper()
	dec := NewDecoder()
	dec.Feed(stream)
	var out []trace.Event
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			return out
		}
		if f.Type == frameEvent {
			out = append(out, f.Event)
		}
	}
}

// checkSubscriberStream holds one subscriber's bytes to the fan-out
// contracts against the reference stream and its event rows.
func checkSubscriberStream(t *testing.T, i int, p *propSub, rows []trace.Event, ref Recording) {
	t.Helper()
	dec := NewDecoder()
	dec.Feed(p.took)
	next, dropped, ended := 0, uint64(0), false
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("subscriber %d (cap %d): %v", i, p.cap, err)
		}
		if f == nil {
			break
		}
		if ended {
			t.Fatalf("subscriber %d (cap %d): frame type %d after the end frame", i, p.cap, f.Type)
		}
		switch f.Type {
		case frameEvent:
			if next >= len(rows) || f.Event != rows[next] {
				t.Fatalf("subscriber %d (cap %d): row %d is %+v, not the reference's next row", i, p.cap, next, f.Event)
			}
			next++
		case frameDrop:
			dropped += f.Dropped
			next += int(f.Dropped)
		case frameEnd:
			ended = true
			if f.Rows != uint64(ref.Rows) || f.Digest != ref.Digest {
				t.Fatalf("subscriber %d (cap %d): end frame %d rows %s", i, p.cap, f.Rows, f.Digest)
			}
		}
	}
	switch {
	case !ended:
		t.Fatalf("subscriber %d (cap %d): no end frame", i, p.cap)
	case next != len(rows):
		t.Fatalf("subscriber %d (cap %d): rows received plus dropped = %d, total rows %d", i, p.cap, next, len(rows))
	case dropped != p.sub.Dropped():
		t.Fatalf("subscriber %d (cap %d): drop frames sum to %d, Dropped() = %d", i, p.cap, dropped, p.sub.Dropped())
	case dropped == 0 && !bytes.Equal(p.took, ref.Frames):
		t.Fatalf("subscriber %d (cap %d) lost no event but holds %d bytes, not the reference's %d", i, p.cap, len(p.took), len(ref.Frames))
	}
}
