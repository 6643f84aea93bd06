package trace

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// refRow is the canonical row as first defined, with fmt. It is kept only
// here, as the reference AppendRow is pinned against: every recorded
// trace digest was computed over these bytes.
func refRow(e Event, numCores int) []byte {
	buf := fmt.Appendf(nil, "%d,%s,%s,%d,%d,%t,%d",
		int64(e.At), e.Kind, e.Thread, e.ThreadID, int64(e.Used), e.Runnable, int64(e.Service))
	if numCores > 1 {
		buf = fmt.Appendf(buf, ",%d", e.Core)
	}
	return append(buf, '\n')
}

// checkRow compares AppendRow with the reference, appending to a
// non-empty buffer so a clobbered prefix shows too.
func checkRow(t *testing.T, e Event, numCores int) {
	t.Helper()
	got := AppendRow([]byte("prefix|"), e, numCores)
	want := append([]byte("prefix|"), refRow(e, numCores)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendRow(%+v, %d cores)\n got  %q\n want %q", e, numCores, got, want)
	}
}

func TestAppendRowMatchesReference(t *testing.T) {
	events := []Event{
		{},
		{At: 5, Kind: Charge, Thread: "dec", ThreadID: 1, Used: 7, Runnable: true},
		{At: 10, Kind: Interrupt, Service: 100_000},
		{At: 20, Kind: Idle, Core: 3},
		{At: 30, Kind: Dispatch, Thread: "", ThreadID: 4, Core: 1},
		{At: -1, Kind: Charge, Thread: "neg", ThreadID: -2, Used: -3, Service: -4, Core: -5},
		{
			At: sim.Time(math.MaxInt64), Kind: Block, Thread: "max", ThreadID: math.MaxInt64,
			Used: sched.Work(math.MaxInt64), Runnable: true, Service: sim.Time(math.MaxInt64), Core: math.MaxInt64,
		},
		{
			At: sim.Time(math.MinInt64), Kind: Wake, Thread: "min", ThreadID: math.MinInt64,
			Used: sched.Work(math.MinInt64), Service: sim.Time(math.MinInt64), Core: math.MinInt64,
		},
		{At: 1, Kind: Exit, Thread: "comma,quote\"\nnewline ünïcode", ThreadID: 9},
	}
	for _, k := range []Kind{Dispatch, Charge, Wake, Block, Exit, Interrupt, Idle, "custom", ""} {
		events = append(events, Event{At: 42, Kind: k, Thread: "t", ThreadID: 1, Used: 2, Runnable: true, Service: 3, Core: 1})
	}
	// Every digit count, at and around each power of ten, both signs:
	// where the integer encoder sizes a number.
	for p, digits := int64(1), 1; digits <= 19; p, digits = p*10, digits+1 {
		for _, v := range []int64{p - 1, p, p + 1} {
			events = append(events, Event{
				At: sim.Time(v), Kind: Charge, ThreadID: int(-v), Used: sched.Work(v),
				Service: sim.Time(-v), Core: int(v),
			})
		}
	}
	for _, e := range events {
		for _, n := range []int{0, 1, 2, 64} {
			checkRow(t, e, n)
		}
	}
}

// FuzzAppendRow pins AppendRow to the reference format on arbitrary
// field values, thread names and kinds.
func FuzzAppendRow(f *testing.F) {
	f.Add(int64(5), "charge", "dec", 1, int64(7), true, int64(0), 0, 1)
	f.Add(int64(-1), "interrupt", "", 0, int64(0), false, int64(-100), 3, 4)
	f.Fuzz(func(t *testing.T, at int64, kind, thread string, tid int, used int64, runnable bool, service int64, core, numCores int) {
		checkRow(t, Event{
			At: sim.Time(at), Kind: Kind(kind), Thread: thread, ThreadID: tid,
			Used: sched.Work(used), Runnable: runnable, Service: sim.Time(service), Core: core,
		}, numCores)
	})
}
