package workload

import (
	"strings"
	"testing"

	"hsfq/internal/cpu"
	"hsfq/internal/sim"
)

// decodeFrames runs k frames of d back to back, each taking as many
// nanoseconds as it has instructions, and returns the time after them.
func decodeFrames(t *testing.T, d *Decoder, now sim.Time, k int) sim.Time {
	t.Helper()
	for i := 0; i < k; i++ {
		a := d.Next(now)
		if a.Kind != cpu.ActionCompute {
			t.Fatalf("frame %d: %+v", i, a)
		}
		now += sim.Time(a.Work)
	}
	return now
}

// TestDecoderResumesPastLoop checkpoints a looping on-demand decoder in
// its fourth pass and restores it into a freshly built one, which holds
// no frames yet: it must regenerate the costs it had drawn and finish
// with the uninterrupted run's completion times.
func TestDecoderResumesPastLoop(t *testing.T) {
	const frames, before, after = 7, 3*7 + 2, 20
	build := func() *Decoder { return DefaultMPEG(100_000_000, sim.NewRand(11)).Decoder(frames, true) }

	whole := build()
	decodeFrames(t, whole, 0, before+after)

	first := build()
	now := decodeFrames(t, first, 0, before)
	var e sim.Enc
	first.SaveState(&e)
	resumed := build()
	if err := resumed.LoadState(sim.NewDec(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	decodeFrames(t, resumed, now, after)

	want, got := whole.CompletionTimes(), resumed.CompletionTimes()
	if len(got) != len(want) {
		t.Fatalf("%d completions after resume, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d at %v after resume, want %v", i, got[i], want[i])
		}
	}
}

func TestDecoderLoadStateBounds(t *testing.T) {
	save := func(idx, completions int) []byte {
		var e sim.Enc
		e.Int(idx)
		e.Int(completions)
		for i := 0; i < completions; i++ {
			e.Time(sim.Time(i+1) * sim.Millisecond)
		}
		return e.Bytes()
	}
	for _, tc := range []struct {
		name             string
		idx, completions int
		err              string // "" = accepted
	}{
		{"fresh", 0, 0, ""},
		{"first frame running", 1, 0, ""},
		{"last frame done", 7, 7, ""},
		{"mid pass after a wrap", 3, 12, ""},
		{"negative", -1, 0, "out of range"},
		{"past the frame count", 8, 8, "out of range"},
		{"ahead of the completions", 5, 3, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := DefaultMPEG(100_000_000, sim.NewRand(1)).Decoder(7, true)
			err := d.LoadState(sim.NewDec(save(tc.idx, tc.completions)))
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("error %v, want one containing %q", err, tc.err)
			}
		})
	}
}
