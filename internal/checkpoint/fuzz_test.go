package checkpoint_test

import (
	"crypto/sha256"
	"testing"

	"hsfq/internal/checkpoint"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

// tinyConfig is the small simulation the fuzz seeds checkpoint.
func tinyConfig() simconfig.Config {
	return simconfig.Config{
		RateMIPS: 100,
		Horizon:  simconfig.Duration(200 * sim.Millisecond),
		Seed:     7,
		Nodes: []simconfig.NodeConfig{
			{Path: "/run", Weight: 1, Leaf: "sfq", Quantum: simconfig.Duration(5 * sim.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "a", Leaf: "/run", Weight: 1},
			{Name: "b", Leaf: "/run", Weight: 2,
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 3, Off: simconfig.Duration(10 * sim.Millisecond)}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "periodic", Period: simconfig.Duration(7 * sim.Millisecond), Service: simconfig.Duration(100 * sim.Microsecond)},
		},
	}
}

// tinySMPConfig is the multicore sibling of tinyConfig: two cores under
// the stealing policy with both dispatch costs nonzero, so its
// checkpoints carry the per-core state extension and core-tagged trace
// rows for the fuzzer to mutate.
func tinySMPConfig() simconfig.Config {
	cfg := tinyConfig()
	cfg.Cores = 2
	cfg.Policy = "steal"
	cfg.SwitchCost = simconfig.Duration(50 * sim.Microsecond)
	cfg.MigrationCost = simconfig.Duration(100 * sim.Microsecond)
	return cfg
}

// tinyFeedbackConfig covers the adaptive leaves: an mlfq node with
// non-default levels and aging next to a drr node, so checkpoints carry
// both leaves' Stater encodings (per-thread levels, wait stamps, adaptive
// quanta) for the fuzzer to mutate.
func tinyFeedbackConfig() simconfig.Config {
	cfg := tinyConfig()
	cfg.Nodes = []simconfig.NodeConfig{
		{Path: "/fb", Weight: 2, Leaf: "mlfq", Levels: 3,
			Quantum: simconfig.Duration(2 * sim.Millisecond),
			Aging:   simconfig.Duration(40 * sim.Millisecond)},
		{Path: "/rr", Weight: 1, Leaf: "drr", Quantum: simconfig.Duration(3 * sim.Millisecond)},
	}
	cfg.Threads = []simconfig.ThreadConfig{
		{Name: "a", Leaf: "/fb", Weight: 1},
		{Name: "b", Leaf: "/fb", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 3, Off: simconfig.Duration(10 * sim.Millisecond)}},
		{Name: "c", Leaf: "/rr", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 2, Off: simconfig.Duration(5 * sim.Millisecond)}},
	}
	return cfg
}

// tinyMPEGConfig adds a looping mpeg decoder, so checkpoints carry a
// Decoder's position and completion times. A mutated frame count in the
// embedded config JSON is harmless: decoders generate frames as they
// reach them, so the rebuild allocates nothing per frame.
func tinyMPEGConfig() simconfig.Config {
	cfg := tinyConfig()
	cfg.Threads = append(cfg.Threads, simconfig.ThreadConfig{Name: "dec", Leaf: "/run", Weight: 2,
		Program: simconfig.ProgramConfig{Kind: "mpeg", Frames: 50, Loop: true}})
	return cfg
}

func tinyCheckpoint(tb testing.TB, withTrace bool) []byte {
	return checkpointOf(tb, tinyConfig(), withTrace)
}

func checkpointOf(tb testing.TB, cfg simconfig.Config, withTrace bool) []byte {
	tb.Helper()
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	opt := checkpoint.Options{}
	if withTrace {
		rec := trace.NewRecorder()
		s.Machine.Listen(rec)
		opt.Recorder = rec
	}
	s.Machine.Run(100 * sim.Millisecond)
	data, err := checkpoint.Save(s, opt)
	if err != nil {
		tb.Fatalf("save: %v", err)
	}
	return data
}

// reframe wraps raw bytes as a checkpoint payload with a CORRECT hash, so
// fuzz mutations reach the section and state decoders instead of dying at
// the integrity gate.
func reframe(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(checkpoint.Magic)+len(sum)+len(payload))
	out = append(out, checkpoint.Magic...)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// FuzzDecodeCheckpoint asserts the decode side never panics: truncated,
// bit-flipped, version-skewed, or wholly hostile bytes must come back as
// clean errors. Each input is tried both as a raw file (exercising the
// magic/hash framing) and re-framed with a valid hash (exercising the
// config, machine, scheduler, and trace decoders underneath).
func FuzzDecodeCheckpoint(f *testing.F) {
	plain := tinyCheckpoint(f, false)
	traced := tinyCheckpoint(f, true)
	smp := checkpointOf(f, tinySMPConfig(), false)
	smpTraced := checkpointOf(f, tinySMPConfig(), true)
	feedback := checkpointOf(f, tinyFeedbackConfig(), false)
	f.Add(plain)
	f.Add(traced)
	f.Add(smp)
	f.Add(smpTraced)
	f.Add(feedback)
	f.Add(smp[len(checkpoint.Magic)+sha256.Size:])      // bare multicore payload
	f.Add(feedback[len(checkpoint.Magic)+sha256.Size:]) // bare mlfq/drr payload
	f.Add(plain[:len(plain)-9])
	f.Add([]byte(checkpoint.Magic))
	f.Add(plain[len(checkpoint.Magic)+sha256.Size:]) // bare payload: re-framed branch decodes it fully
	skew := append([]byte{}, plain...)
	skew[len(checkpoint.Magic)+sha256.Size] ^= 0x03 // version word
	f.Add(skew)
	f.Add(checkpointOf(f, tinyMPEGConfig(), false))

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, data := range [][]byte{b, reframe(b)} {
			if s, err := checkpoint.Restore(data, checkpoint.Options{}); err == nil {
				if s == nil {
					t.Fatal("Restore returned nil simulation without error")
				}
				// A checkpoint that decodes must also re-encode.
				if _, err := checkpoint.Save(s, checkpoint.Options{}); err != nil {
					t.Fatalf("re-save of restored checkpoint failed: %v", err)
				}
			}
			rec := trace.NewRecorder()
			checkpoint.Restore(data, checkpoint.Options{Recorder: rec})
			if _, err := checkpoint.Peek(data); err == nil && len(data) < len(checkpoint.Magic)+sha256.Size {
				t.Fatal("Peek accepted an impossibly short input")
			}
		}
	})
}

// TestDecodeCheckpointHostileInputs is the deterministic slice of the
// fuzz property that runs on every plain `go test`: systematic
// truncations and bit flips of a real checkpoint must all fail cleanly.
func TestDecodeCheckpointHostileInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  simconfig.Config
	}{{"uniprocessor", tinyConfig()}, {"smp", tinySMPConfig()}, {"feedback", tinyFeedbackConfig()}, {"mpeg", tinyMPEGConfig()}} {
		t.Run(tc.name, func(t *testing.T) { hostileInputs(t, checkpointOf(t, tc.cfg, true)) })
	}
}

func hostileInputs(t *testing.T, data []byte) {
	if _, err := checkpoint.Restore(data, checkpoint.Options{}); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := checkpoint.Restore(data[:cut], checkpoint.Options{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for pos := 0; pos < len(data); pos += 11 {
		mut := append([]byte{}, data...)
		mut[pos] ^= 0x40
		// Flips are caught by the hash; the assertion is "no panic, and
		// never a silently different simulation".
		if _, err := checkpoint.Restore(mut, checkpoint.Options{}); err == nil && pos >= len(checkpoint.Magic)+sha256.Size {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}

	// Same flips applied to the bare payload and re-framed with a valid
	// hash: now the section and state decoders see the damage directly.
	payload := data[len(checkpoint.Magic)+sha256.Size:]
	for pos := 0; pos < len(payload); pos += 3 {
		mut := append([]byte{}, payload...)
		mut[pos] ^= 0x10
		checkpoint.Restore(reframe(mut), checkpoint.Options{}) // must not panic
	}
	for cut := 0; cut < len(payload); cut += 5 {
		if _, err := checkpoint.Restore(reframe(payload[:cut]), checkpoint.Options{}); err == nil {
			t.Fatalf("re-framed truncation to %d bytes accepted", cut)
		}
	}
}
