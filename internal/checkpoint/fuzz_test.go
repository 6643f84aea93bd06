package checkpoint_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hsfq/internal/checkpoint"
	"hsfq/internal/sched"
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

// tinyAllLeavesConfig has one node per registered leaf kind, each with
// a CPU-bound thread and an on/off one, so checkpoints carry every leaf's
// Stater encoding for the fuzzer and the hostile-input checks. The edf
// and rm threads declare periods, the svr4 and reserves leaves each hold
// one real-time or reserved thread, so those leaves' deadline, class and
// budget fields are live too.
func tinyAllLeavesConfig() simconfig.Config {
	cfg := tinyConfig()
	cfg.Nodes, cfg.Threads = nil, nil
	rt := 5
	for _, name := range sched.Names() {
		path := "/" + name
		cfg.Nodes = append(cfg.Nodes, simconfig.NodeConfig{Path: path, Weight: 1, Leaf: name,
			Quantum: simconfig.Duration(2 * sim.Millisecond)})
		busy := simconfig.ThreadConfig{Name: name + "-busy", Leaf: path, Weight: 1}
		onoff := simconfig.ThreadConfig{Name: name + "-onoff", Leaf: path, Weight: 2,
			Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 2, Off: simconfig.Duration(6 * sim.Millisecond)}}
		switch name {
		case "edf", "rm":
			busy.Period = simconfig.Duration(40 * sim.Millisecond)
			onoff.Period = simconfig.Duration(25 * sim.Millisecond)
		case "svr4":
			onoff.RTPriority = &rt
		case "reserves":
			onoff.ReserveCost = simconfig.Duration(sim.Millisecond)
			onoff.ReservePeriod = simconfig.Duration(20 * sim.Millisecond)
		}
		cfg.Threads = append(cfg.Threads, busy, onoff)
	}
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
	f.Add(checkpointOf(f, tinyAllLeavesConfig(), false))

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
	// The all-leaves checkpoint leaves out its trace section: the other
	// cases cover the trace decoder, and each of its many rows would only
	// add a restore of an unmutated state.
	for _, tc := range []struct {
		name  string
		cfg   simconfig.Config
		trace bool
	}{
		{"uniprocessor", tinyConfig(), true},
		{"smp", tinySMPConfig(), true},
		{"feedback", tinyFeedbackConfig(), true},
		{"mpeg", tinyMPEGConfig(), true},
		{"all-leaves", tinyAllLeavesConfig(), false},
	} {
		t.Run(tc.name, func(t *testing.T) { hostileInputs(t, checkpointOf(t, tc.cfg, tc.trace)) })
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

// stateAt runs cfg for 100 ms and returns Snapshot's state bytes.
func stateAt(tb testing.TB, cfg simconfig.Config) []byte {
	tb.Helper()
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	s.Machine.Run(100 * sim.Millisecond)
	var e sim.Enc
	if err := checkpoint.Snapshot(s, &e); err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	return e.Bytes()
}

// restoreState overlays state onto a fresh build of cfg.
func restoreState(tb testing.TB, cfg simconfig.Config, state []byte) (*simconfig.Simulation, error) {
	tb.Helper()
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	return s, checkpoint.RestoreState(s, state)
}

// TestRestoreRejectsStateTheRunCannotHandle: each case is one overwrite of
// tinyConfig's 100 ms state that RestoreState once accepted and the
// continued run then spun on (a periodic or burst position far in the
// past) or panicked on (a negative interrupt service, a leaf with runnable
// threads missing from its parent's heap). Each must fail at load. The
// offsets are those of the single-core layout; each case first checks the
// pristine value there, so a layout change fails the test instead of
// silently mutating another field.
func TestRestoreRejectsStateTheRunCannotHandle(t *testing.T) {
	burstCfg := tinyConfig()
	burstCfg.Interrupts = []simconfig.InterruptConfig{
		{Kind: "burst", Period: simconfig.Duration(7 * sim.Millisecond), Count: 3, Service: simconfig.Duration(100 * sim.Microsecond)},
	}
	onGrid := func(v uint64) bool { return int64(v) >= 0 && int64(v)%int64(7*sim.Millisecond) == 0 }
	for _, tc := range []struct {
		name     string
		cfg      simconfig.Config
		off      int
		word     bool
		pristine func(uint64) bool
		val      uint64
	}{
		{"periodic-next-far-past", tinyConfig(), 426, true, onGrid, 1<<64 - 1<<50},
		{"burst-start-far-past", burstCfg, 426, true, onGrid, 1<<64 - 1<<36},
		{"negative-service", tinyConfig(), 418, true, func(v uint64) bool { return v == uint64(100*sim.Microsecond) }, 1<<64 - 1},
		{"leaf-off-parent-heap", tinyConfig(), 573, false, func(v uint64) bool { return v == 1 }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := stateAt(t, tc.cfg)
			if _, err := restoreState(t, tc.cfg, state); err != nil {
				t.Fatalf("pristine state rejected: %v", err)
			}
			mut := append([]byte(nil), state...)
			if tc.word {
				if v := binary.LittleEndian.Uint64(mut[tc.off:]); !tc.pristine(v) {
					t.Fatalf("word at %d is %d: the state layout moved", tc.off, int64(v))
				}
				binary.LittleEndian.PutUint64(mut[tc.off:], tc.val)
			} else {
				if v := mut[tc.off]; !tc.pristine(uint64(v)) {
					t.Fatalf("byte at %d is %d: the state layout moved", tc.off, v)
				}
				mut[tc.off] = byte(tc.val)
			}
			if _, err := restoreState(t, tc.cfg, mut); err == nil {
				t.Fatal("RestoreState accepted state the continued run cannot handle")
			}
		})
	}
}

// TestRestoreVerdictsPinned pins what RestoreState accepts and what it
// restores, over the machine, hierarchy and leaf decoders together. For
// each config it overwrites Snapshot's state at every offset (every
// stride-th offset for the large all-leaves state) with a few boundary
// words and bytes and restores each mutant into a fresh build. The digest
// hashes each verdict, with the re-Snapshot bytes of every accepted
// restore, so dropping or adding a load check changes it.
func TestRestoreVerdictsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    simconfig.Config
		stride int
		want   string
	}{
		{"uniprocessor", tinyConfig(), 1, "f335168e65d11b9fb59d529b50dc011e8c176d94a5686c071da937b6c5dc26c5"},
		{"smp", tinySMPConfig(), 1, "93a1bff1feb99a30f25080f53568718c2d34ba683ecde475480fa25209b266de"},
		{"feedback", tinyFeedbackConfig(), 1, "5a9c63ab4986b8ff5a02c662d50d03fb708bf468828229dfae1548d58701630b"},
		{"mpeg", tinyMPEGConfig(), 1, "6ee432a072d9a49c6e093cc74fd1fbfa17ca4edf02b0a9ee37dd464c4cb734b2"},
		{"all-leaves", tinyAllLeavesConfig(), 3, "8119e46426d6d18d969b196f2cb0248fc69e7dee8b11cff12ccb47cb8c55cbaa"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := restoreVerdictDigest(t, tc.cfg, tc.stride); got != tc.want {
				t.Errorf("restore verdict digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

func restoreVerdictDigest(t *testing.T, cfg simconfig.Config, stride int) string {
	words := []uint64{0, 1, 2, 3, 4, 99, 1<<64 - 1, 1 << 63}
	state := stateAt(t, cfg)
	sum := sha256.New()
	var e sim.Enc
	mut := make([]byte, len(state))
	restore := func() {
		s, err := restoreState(t, cfg, mut)
		if err != nil {
			sum.Write([]byte{0})
			return
		}
		e.Reset()
		if err := checkpoint.Snapshot(s, &e); err != nil {
			t.Fatalf("re-snapshot of an accepted restore: %v", err)
		}
		sum.Write([]byte{1})
		sum.Write(e.Bytes())
	}
	for off := 0; off < len(state); off += stride {
		for _, w := range words {
			if off+8 <= len(state) {
				copy(mut, state)
				binary.LittleEndian.PutUint64(mut[off:], w)
				restore()
			}
		}
		for _, b := range []byte{0, 1, 2} {
			copy(mut, state)
			mut[off] = b
			restore()
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}
