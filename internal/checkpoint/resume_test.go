package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hsfq/internal/checkpoint"
	"hsfq/internal/metrics"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/testutil"
	"hsfq/internal/trace"
)

// dur is a shorthand for literal durations in test configs.
func dur(t sim.Time) simconfig.Duration { return simconfig.Duration(t) }

// trialConfigs is the grid the resume-equivalence property test cycles
// through: flat structures covering every registered leaf kind, plus
// hierarchical structures mixing leaf kinds under weighted inner nodes,
// with workloads chosen to exercise blocking, RNG draws (interactive,
// mpeg, lottery, poisson interrupts), deadlines, and reserves.
func trialConfigs() []simconfig.Config {
	horizon := dur(2 * sim.Second)
	rt := 20
	flat := func(leaf string, threads ...simconfig.ThreadConfig) simconfig.Config {
		return simconfig.Config{
			RateMIPS: 100,
			Horizon:  horizon,
			Nodes: []simconfig.NodeConfig{
				{Path: "/run", Weight: 1, Leaf: leaf, Quantum: dur(5 * sim.Millisecond)},
			},
			Threads: threads,
		}
	}
	loop := func(name string, w float64) simconfig.ThreadConfig {
		return simconfig.ThreadConfig{Name: name, Leaf: "/run", Weight: w}
	}
	mix := []simconfig.ThreadConfig{
		{Name: "hog", Leaf: "/run", Weight: 1},
		{Name: "faulty", Leaf: "/run", Weight: 2,
			Program: simconfig.ProgramConfig{Kind: "dhrystone", FaultEvery: 40, FaultSleep: dur(3 * sim.Millisecond)}},
		{Name: "chatty", Leaf: "/run", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: dur(40 * sim.Millisecond)}},
		{Name: "pulse", Leaf: "/run", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 4, Off: dur(60 * sim.Millisecond)}},
	}
	periodicMix := []simconfig.ThreadConfig{
		{Name: "video", Leaf: "/run", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(30 * sim.Millisecond), Cost: dur(8 * sim.Millisecond)}},
		{Name: "audio", Leaf: "/run", Weight: 1,
			Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(10 * sim.Millisecond), Cost: dur(2 * sim.Millisecond)}},
	}

	cfgs := []simconfig.Config{
		flat("sfq", append([]simconfig.ThreadConfig{
			{Name: "dec", Leaf: "/run", Weight: 4,
				Program: simconfig.ProgramConfig{Kind: "mpeg", Frames: 120, Loop: true}},
		}, mix...)...),
		flat("rr", mix...),
		flat("fifo", mix[1:]...),
		flat("priority", mix...),
		flat("edf", periodicMix...),
		flat("rm", periodicMix...),
		flat("lottery", mix...),
		flat("stride", mix...),
		flat("eevdf", mix...),
	}

	// The adaptive leaves carry extra per-thread state across checkpoints
	// (mlfq: level + wait stamp with a non-default geometry so aging and
	// demotion both fire inside the horizon; drr: adaptive quantum).
	mlfq := flat("mlfq", mix...)
	mlfq.Nodes[0].Levels = 3
	mlfq.Nodes[0].Aging = dur(80 * sim.Millisecond)
	mlfq.Nodes[0].Quantum = dur(2 * sim.Millisecond)
	cfgs = append(cfgs, mlfq, flat("drr", mix...))

	svr4 := flat("svr4", mix...)
	svr4.Threads = append(svr4.Threads, simconfig.ThreadConfig{
		Name: "rtproc", Leaf: "/run", RTPriority: &rt,
		Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(50 * sim.Millisecond), Cost: dur(4 * sim.Millisecond)},
	})
	cfgs = append(cfgs, svr4)

	reserves := flat("reserves", loop("bg1", 1), loop("bg2", 1))
	reserves.Threads = append(reserves.Threads, simconfig.ThreadConfig{
		Name: "reserved", Leaf: "/run",
		ReserveCost: dur(5 * sim.Millisecond), ReservePeriod: dur(30 * sim.Millisecond),
		Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(30 * sim.Millisecond), Cost: dur(5 * sim.Millisecond)},
	})
	cfgs = append(cfgs, reserves)

	// The paper's structure: real-time and best-effort subtrees with
	// different leaf disciplines, plus interrupt load of all three kinds.
	hier := simconfig.Config{
		RateMIPS: 100,
		Horizon:  horizon,
		Nodes: []simconfig.NodeConfig{
			{Path: "/rt", Weight: 3},
			{Path: "/rt/hard", Weight: 2, Leaf: "edf"},
			{Path: "/rt/soft", Weight: 1, Leaf: "sfq", Quantum: dur(5 * sim.Millisecond)},
			{Path: "/be", Weight: 1},
			{Path: "/be/u1", Weight: 2, Leaf: "svr4"},
			{Path: "/be/u2", Weight: 1, Leaf: "lottery", Quantum: dur(10 * sim.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "sensor", Leaf: "/rt/hard",
				Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(20 * sim.Millisecond), Cost: dur(3 * sim.Millisecond)}},
			{Name: "dec", Leaf: "/rt/soft", Weight: 3,
				Program: simconfig.ProgramConfig{Kind: "mpeg", Frames: 90, Loop: true}},
			{Name: "editor", Leaf: "/rt/soft", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: dur(50 * sim.Millisecond)}},
			{Name: "make", Leaf: "/be/u1", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "dhrystone", FaultEvery: 60, FaultSleep: dur(2 * sim.Millisecond)}},
			{Name: "shell", Leaf: "/be/u1", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: dur(80 * sim.Millisecond)}},
			{Name: "batch", Leaf: "/be/u2", Weight: 1, Start: dur(200 * sim.Millisecond),
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 6, Off: dur(40 * sim.Millisecond)}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "periodic", Period: dur(10 * sim.Millisecond), Service: dur(200 * sim.Microsecond)},
			{Kind: "poisson", RatePerSec: 80, Service: dur(300 * sim.Microsecond)},
			{Kind: "burst", Period: dur(500 * sim.Millisecond), Count: 5, Service: dur(150 * sim.Microsecond)},
		},
	}
	cfgs = append(cfgs, hier)

	// Multiprocessor variants: the same workloads ride on 2–3 cores under
	// each placement policy with nonzero dispatch costs, so resume
	// equivalence covers per-core segments, lastCore stamps, the
	// checkpoint's multicore extension, and the core-tagged trace
	// encoding.
	part := flat("sfq", append([]simconfig.ThreadConfig(nil), mix...)...)
	part.Cores = 2
	part.Policy = "partitioned"
	part.SwitchCost = dur(50 * sim.Microsecond)
	cfgs = append(cfgs, part)

	glob := flat("sfq", append([]simconfig.ThreadConfig(nil), mix...)...)
	glob.Cores = 3
	glob.Policy = "global"
	glob.SwitchCost = dur(20 * sim.Microsecond)
	glob.MigrationCost = dur(200 * sim.Microsecond)
	glob.Interrupts = []simconfig.InterruptConfig{
		{Kind: "poisson", RatePerSec: 120, Service: dur(150 * sim.Microsecond)},
	}
	cfgs = append(cfgs, glob)

	pinned := 1
	stealThreads := append([]simconfig.ThreadConfig(nil), mix...)
	stealThreads[0].Affinity = &pinned
	steal := flat("stride", stealThreads...)
	steal.Cores = 2
	steal.Policy = "steal"
	steal.MigrationCost = dur(300 * sim.Microsecond)
	cfgs = append(cfgs, steal)

	hierSMP := hier
	hierSMP.Cores = 2
	hierSMP.Policy = "partitioned"
	hierSMP.SwitchCost = dur(30 * sim.Microsecond)
	cfgs = append(cfgs, hierSMP)

	// A second hierarchy with the remaining leaf kinds under one root.
	hier2 := simconfig.Config{
		RateMIPS: 100,
		Horizon:  horizon,
		Nodes: []simconfig.NodeConfig{
			{Path: "/a", Weight: 2, Leaf: "stride"},
			{Path: "/b", Weight: 1, Leaf: "eevdf", Quantum: dur(4 * sim.Millisecond)},
			{Path: "/c", Weight: 1, Leaf: "rr", Quantum: dur(2 * sim.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "s1", Leaf: "/a", Weight: 1},
			{Name: "s2", Leaf: "/a", Weight: 3,
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 3, Off: dur(30 * sim.Millisecond)}},
			{Name: "e1", Leaf: "/b", Weight: 2,
				Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: dur(25 * sim.Millisecond)}},
			{Name: "e2", Leaf: "/b", Weight: 1},
			{Name: "r1", Leaf: "/c", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "dhrystone", FaultEvery: 25, FaultSleep: dur(1 * sim.Millisecond)}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "poisson", RatePerSec: 150, Service: dur(100 * sim.Microsecond)},
		},
	}
	return append(cfgs, hier2)
}

// runPristine executes cfg uninterrupted and returns the trace CSV, the
// outcome digest, and the summarized metrics.
func runPristine(t *testing.T, cfg simconfig.Config) ([]byte, string, string) {
	t.Helper()
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		t.Fatalf("build pristine: %v", err)
	}
	rec := trace.NewRecorder()
	s.Machine.Listen(rec)
	s.Run()
	return csvOf(t, rec), sweep.Digest(s), summarized(s)
}

func csvOf(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return b.Bytes()
}

// summarized renders metrics through metrics.Summarize, the same
// aggregation the sweep engine reports, so the comparison covers the
// numbers experiments actually consume.
func summarized(s *simconfig.Simulation) string {
	m := sweep.Metrics(s)
	var b bytes.Buffer
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s: %v\n", k, metrics.Summarize([]float64{m[k]}))
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// TestResumeEquivalence is the subsystem's core property: snapshot a run
// at a random instant, restore into a fresh process-equivalent machine,
// continue, and the trace CSV, outcome digest, and summarized metrics
// must be byte-identical to the uninterrupted run. 100 seeded trials
// cycle through flat and hierarchical structures over every registered
// leaf kind.
func TestResumeEquivalence(t *testing.T) {
	grid := trialConfigs()
	rng := sim.NewRand(20260806)
	for trial := 0; trial < 100; trial++ {
		cfg := grid[trial%len(grid)]
		cfg.Seed = uint64(1000 + trial)
		horizon := cfg.Horizon.Time()
		at := 1 + sim.Time(rng.Int63n(int64(horizon-1)))

		wantCSV, wantDigest, wantMetrics := runPristine(t, cfg)

		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		rec := trace.NewRecorder()
		s.Machine.Listen(rec)
		s.Machine.Run(at)
		data, err := checkpoint.Save(s, checkpoint.Options{Recorder: rec})
		if err != nil {
			t.Fatalf("trial %d: save at %v: %v", trial, at, err)
		}

		info, err := checkpoint.Peek(data)
		if err != nil {
			t.Fatalf("trial %d: peek: %v", trial, err)
		}
		if info.At != s.Engine.Now() || info.Seed != cfg.Seed || !info.HasTrace {
			t.Fatalf("trial %d: peek info %+v, want at=%v seed=%d trace", trial, info, s.Engine.Now(), cfg.Seed)
		}

		rec2 := trace.NewRecorder()
		s2, err := checkpoint.Restore(data, checkpoint.Options{Recorder: rec2})
		if err != nil {
			t.Fatalf("trial %d: restore at %v: %v", trial, at, err)
		}
		s2.Machine.Listen(rec2)
		s2.Machine.Run(horizon)
		s2.Machine.Flush()

		if got := csvOf(t, rec2); !bytes.Equal(got, wantCSV) {
			t.Fatalf("trial %d (%s @ %v): resumed trace differs from pristine\n%s", trial, leafNames(cfg), at, testutil.DiffBytes(got, wantCSV))
		}
		if got := sweep.Digest(s2); got != wantDigest {
			t.Fatalf("trial %d (%s @ %v): resumed digest %s, pristine %s", trial, leafNames(cfg), at, got, wantDigest)
		}
		if got := summarized(s2); got != wantMetrics {
			t.Fatalf("trial %d (%s @ %v): resumed metrics differ:\n%s\nvs pristine:\n%s", trial, leafNames(cfg), at, got, wantMetrics)
		}
	}
}

// withEmbeddedConfigField returns the checkpoint with one extra string
// field added to its embedded config, re-framed under a valid hash.
func withEmbeddedConfigField(t *testing.T, data []byte, field, value string) []byte {
	t.Helper()
	d := sim.NewDec(data[len(checkpoint.Magic)+sha256.Size:])
	var p sim.Enc
	p.U64(d.U64())
	for d.Remaining() > 0 {
		name, body := d.Str(), d.Blob()
		if name == "config" {
			var cfg map[string]json.RawMessage
			if err := json.Unmarshal(body, &cfg); err != nil {
				t.Fatal(err)
			}
			cfg[field], _ = json.Marshal(value)
			var err error
			if body, err = json.Marshal(cfg); err != nil {
				t.Fatal(err)
			}
		}
		p.Str(name)
		p.Blob(body)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return reframe(p.Bytes())
}

// TestResumeFromSelfCheckpointIsCanonical re-saves immediately after a
// restore and expects byte-identical checkpoints: restore must
// reconstruct the exact internal encoding, not merely equivalent
// behaviour.
func TestResumeFromSelfCheckpointIsCanonical(t *testing.T) {
	for i, cfg := range trialConfigs() {
		cfg.Seed = uint64(77 + i)
		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			t.Fatalf("config %d: build: %v", i, err)
		}
		s.Machine.Run(cfg.Horizon.Time() / 3)
		data, err := checkpoint.Save(s, checkpoint.Options{})
		if err != nil {
			t.Fatalf("config %d: save: %v", i, err)
		}
		s2, err := checkpoint.Restore(data, checkpoint.Options{})
		if err != nil {
			t.Fatalf("config %d: restore: %v", i, err)
		}
		again, err := checkpoint.Save(s2, checkpoint.Options{})
		if err != nil {
			t.Fatalf("config %d: re-save: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("config %d (%s): checkpoint not canonical across restore", i, leafNames(cfg))
		}
		// Checkpoints written while the engine still offered a choice of
		// event queue embed a config carrying the retired "event_queue"
		// field. They must restore to the same state and re-save without it.
		s3, err := checkpoint.Restore(withEmbeddedConfigField(t, data, "event_queue", "wheel"), checkpoint.Options{})
		if err != nil {
			t.Fatalf("config %d: restore with event_queue: %v", i, err)
		}
		if again, err = checkpoint.Save(s3, checkpoint.Options{}); err != nil || !bytes.Equal(data, again) {
			t.Fatalf("config %d (%s): checkpoint with event_queue restores to a different state (re-save err %v)", i, leafNames(cfg), err)
		}
	}
}

func leafNames(cfg simconfig.Config) string {
	var b bytes.Buffer
	for _, nc := range cfg.Nodes {
		if nc.Leaf != "" {
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(nc.Leaf)
		}
	}
	return b.String()
}

// TestWriteFileReplacesAtomically checks the atomic write every
// checkpoint file goes through: a second write replaces the first whole,
// and a write that cannot land (its path is a directory) fails without
// leaving its temporary file behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for _, data := range []string{"first snapshot", "second"} {
		if err := checkpoint.WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(filepath.Join(dir, "taken"), []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %d entries after the writes, want run.ckpt and taken: %v", len(entries), entries)
	}
}
