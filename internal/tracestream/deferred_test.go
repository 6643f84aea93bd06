package tracestream

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/trace"
)

// TestDeferredDigestMatchesLive runs every example config at 1 core and
// at 3 partitioned cores with three listeners on the same machine: a
// recording Broadcaster nothing reads until after Finish, one with a
// subscriber attached before Begin, and a trace.Hasher. The deferred
// recording must be counted by Size before its first read as it is after
// it, and give the live one's frames, rows and digest, which must be the
// hasher's: the digest TestTraceDigestPinned pins. Neither recording may
// keep spare capacity once finished and read.
func TestDeferredDigestMatchesLive(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("example configs: %v, %v", paths, err)
	}
	for _, p := range paths {
		for _, cores := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/cores=%d", filepath.Base(p), cores), func(t *testing.T) {
				f, err := os.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := simconfig.Parse(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if cores > 1 {
					cfg.Cores, cfg.Policy = cores, "partitioned"
				}
				deferred, live, h := New(), New(), trace.NewHasher()
				deferred.EnableRecording(0)
				live.EnableRecording(0)
				live.Subscribe(64 << 20)
				if _, _, err := sweep.ExecuteConfigListened(cfg, 1, nil, func(s *simconfig.Simulation) {
					s.Machine.Listen(h)
					s.Machine.Listen(deferred)
					s.Machine.Listen(live)
					metas := s.ThreadMetas()
					deferred.Begin(metas)
					live.Begin(metas)
				}); err != nil {
					t.Fatal(err)
				}
				deferred.Finish()
				live.Finish()
				if deferred.recSum != "" || deferred.recDigest != nil {
					t.Fatal("the unread recording folded its digest before its first read")
				}
				size := deferred.Size()
				got, want := deferred.Snapshot(), live.Snapshot()
				if got.Rows != h.Rows() || got.Digest != h.Sum() {
					t.Errorf("deferred %d rows %s, hasher %d %s", got.Rows, got.Digest, h.Rows(), h.Sum())
				}
				if want.Rows != h.Rows() || want.Digest != h.Sum() {
					t.Errorf("live %d rows %s, hasher %d %s", want.Rows, want.Digest, h.Rows(), h.Sum())
				}
				if !bytes.Equal(got.Frames, want.Frames) {
					t.Errorf("deferred recording of %d bytes differs from the live one of %d", len(got.Frames), len(want.Frames))
				}
				if size != len(got.Frames) || deferred.Size() != size {
					t.Errorf("Size %d before the first read and %d after, recording %d bytes", size, deferred.Size(), len(got.Frames))
				}
				for _, b := range []*Broadcaster{deferred, live} {
					if last := b.recChunks[len(b.recChunks)-1]; cap(last) != len(last) {
						t.Errorf("a finished, read recording keeps %d spare bytes", cap(last)-len(last))
					}
				}
			})
		}
	}
}

// switchMeta is the threads table of the switch tests.
var switchMeta = []trace.ThreadMeta{{TID: 1, Name: "dec", Depth: 1, Path: "/soft"}}

// runSwitch records two dispatch/charge pairs, then odd, then two more
// pairs, and checks that odd switched the recording to live folding and
// that its rows and digest are a trace.Hasher's over the same events.
func runSwitch(t *testing.T, odd trace.Event) {
	t.Helper()
	b, h := New(), trace.NewHasher()
	b.EnableRecording(0)
	b.Begin(switchMeta)
	add := func(e trace.Event) {
		b.Add(e)
		h.Add(e)
	}
	pairs := func(from sim.Time) {
		for at := from; at < from+2; at++ {
			add(trace.Event{At: at, Kind: trace.Dispatch, Thread: "dec", ThreadID: 1})
			add(trace.Event{At: at, Kind: trace.Charge, Thread: "dec", ThreadID: 1, Used: 5, Runnable: true})
		}
	}
	pairs(0)
	if b.recDigest != nil {
		t.Fatal("events that decode back switched the run to live folding")
	}
	add(odd)
	if b.recDigest == nil {
		t.Fatalf("%+v did not switch the run to live folding", odd)
	}
	pairs(10)
	b.Finish()
	if rec := b.Snapshot(); rec.Rows != h.Rows() || rec.Digest != h.Sum() {
		t.Fatalf("recording %d rows %s, hasher %d %s", rec.Rows, rec.Digest, h.Rows(), h.Sum())
	}
}

// TestNameMismatchFoldsLive: an event whose thread name is not the one
// the Begin table gives its ID would decode under another name.
func TestNameMismatchFoldsLive(t *testing.T) {
	runSwitch(t, trace.Event{At: 3, Kind: trace.Wake, Thread: "renamed", ThreadID: 1})
}

// TestUnknownKindFoldsLive: an event of a kind with no wire code has a
// frame no decoder reads.
func TestUnknownKindFoldsLive(t *testing.T) {
	runSwitch(t, trace.Event{At: 3, Kind: "migrate", Thread: "dec", ThreadID: 1})
}

// TestUndecodableThreadsFoldLive: a thread name past the decoder's string
// limit makes the threads frame undecodable, so the run folds live from
// Begin.
func TestUndecodableThreadsFoldLive(t *testing.T) {
	long := strings.Repeat("x", maxStringLen+1)
	b, h := New(), trace.NewHasher()
	b.EnableRecording(0)
	b.Begin([]trace.ThreadMeta{{TID: 1, Name: long, Depth: 1, Path: "/soft"}})
	if b.recDigest == nil {
		t.Fatal("an undecodable threads table left the digest deferred")
	}
	for at := sim.Time(0); at < 3; at++ {
		e := trace.Event{At: at, Kind: trace.Dispatch, Thread: long, ThreadID: 1}
		b.Add(e)
		h.Add(e)
	}
	b.Finish()
	if rec := b.Snapshot(); rec.Rows != h.Rows() || rec.Digest != h.Sum() {
		t.Fatalf("recording %d rows %s, hasher %d %s", rec.Rows, rec.Digest, h.Rows(), h.Sum())
	}
}

// Value pools of FuzzDeferredDigest: script bytes pick from them, so
// every script reaches thread IDs in and out of the Begin table, ID 0,
// names that match the table and names that do not, unknown kinds, and
// extreme values.
var (
	fuzzIDs   = [...]int{0, 1, 2, 3, -1, math.MaxInt, math.MinInt, 1 << 40}
	fuzzNames = [...]string{"", "a", "b", "dec"}
	fuzzKinds = [...]trace.Kind{
		trace.Dispatch, trace.Charge, trace.Wake, trace.Block, trace.Exit,
		trace.Interrupt, trace.Idle, "migrate", "",
	}
	fuzzInts = [...]int64{0, 1, -1, 127, 128, 1 << 35, math.MaxInt64, math.MinInt64}
)

// fuzzScript reads a FuzzDeferredDigest script; past its end every byte
// reads as 0.
type fuzzScript []byte

func (s *fuzzScript) next() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

func (s *fuzzScript) value() int64 {
	c := s.next()
	if c&0x80 != 0 {
		return int64(c&0x7f) * 1_000_003
	}
	return fuzzInts[int(c)%len(fuzzInts)]
}

// FuzzDeferredDigest decodes an op script: a recording byte cap, a core
// count and a Begin threads table, subscribers attached before Begin,
// then events (unknown kinds, IDs in and out of the table, ID-0 events
// with names, extreme values), Snapshots, Subscribes and Takes, then
// Finish and a last Snapshot or Subscribe. Every Snapshot's rows and
// digest, and every subscriber's and the final recording's end frame,
// must be those of a trace.Hasher over the same events, and Size must
// count the final recording before its first read as after it.
func FuzzDeferredDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 1, 3, 2, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 2, 0})
	f.Add([]byte{40, 1, 1, 1, 3, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 5, 0, 1, 7, 0, 0, 1})
	f.Add([]byte{0, 2, 3, 1, 3, 2, 1, 0, 1, 0, 1, 0, 2, 3, 7, 1, 0, 6, 5, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzScript(data)
		recCap := int(s.next()) * 8
		cores := 1 + int(s.next()%3)
		meta := make([]trace.ThreadMeta, s.next()%4)
		names := map[int]string{} // what a decoder resolves, by ID
		for i := range meta {
			meta[i] = trace.ThreadMeta{TID: fuzzIDs[s.next()%8], Name: fuzzNames[s.next()%4]}
			names[meta[i].TID] = meta[i].Name
		}
		b, h := New(), trace.NewHasher()
		b.EnableRecording(recCap)
		b.SetNumCores(cores)
		h.SetNumCores(cores)
		var subs []*propSub
		subscribe := func() {
			c := propCaps[int(s.next())%len(propCaps)]
			subs = append(subs, &propSub{sub: b.Subscribe(c), cap: c})
		}
		for i := s.next() % 3; i > 0; i-- {
			subscribe()
		}
		b.Begin(meta)
		check := func(what string, rec Recording) {
			if rec.Rows != h.Rows() || rec.Digest != h.Sum() {
				t.Fatalf("%s: %d rows %s, hasher %d %s", what, rec.Rows, rec.Digest, h.Rows(), h.Sum())
			}
		}
		for len(s) > 0 {
			switch op := s.next() % 8; {
			case op < 5:
				e := trace.Event{
					Kind:     fuzzKinds[int(s.next())%len(fuzzKinds)],
					ThreadID: fuzzIDs[s.next()%8],
					At:       sim.Time(s.value()),
					Used:     sched.Work(s.value()),
					Runnable: op%2 == 0,
					Service:  sim.Time(s.value()),
					Core:     int(s.value()),
				}
				switch s.next() % 3 {
				case 0:
					if e.ThreadID != 0 {
						e.Thread = names[e.ThreadID]
					}
				case 1:
					e.Thread = fuzzNames[1+int(s.next())%3]
				}
				b.Add(e)
				h.Add(e)
			case op == 5:
				check("mid-run Snapshot", b.Snapshot())
			case op == 6:
				subscribe()
			default:
				if len(subs) > 0 {
					subs[int(s.next())%len(subs)].take()
				}
			}
		}
		b.Finish()
		b.Add(trace.Event{Kind: trace.Idle}) // after Finish: ignored
		end := AppendEndFrame(nil, h.Rows(), h.Sum())
		if len(data)%2 == 1 {
			subscribe() // the first read after Finish may be a Subscribe
		}
		size := b.Size()
		rec := b.Snapshot()
		check("final Snapshot", rec)
		if size != len(rec.Frames) || !bytes.HasSuffix(rec.Frames, end) {
			t.Fatalf("Size %d, recording of %d bytes, ends with the end frame: %v", size, len(rec.Frames), bytes.HasSuffix(rec.Frames, end))
		}
		for i, p := range subs {
			p.take()
			if !bytes.HasSuffix(p.took, end) {
				t.Fatalf("subscriber %d (cap %d) does not end with the hasher's end frame", i, p.cap)
			}
		}
	})
}
