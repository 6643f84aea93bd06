package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/testutil"
)

// capture runs fn with stdout redirected into a string. The pipe is
// drained concurrently so large outputs cannot deadlock the writer.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outCh
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestRunDemoConfig(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "events.csv")
	dotPath := filepath.Join(dir, "structure.dot")
	out := capture(t, func() error {
		return run(runOptions{tracePath: tracePath, dotPath: dotPath})
	})

	for _, want := range []string{
		"scheduling structure:",
		"best-effort",
		"sensor",
		"missed deadlines",
		"frames decoded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if b, err := os.ReadFile(tracePath); err != nil || !strings.Contains(string(b), "dispatch") {
		t.Errorf("trace file: %v", err)
	}
	if b, err := os.ReadFile(dotPath); err != nil || !strings.Contains(string(b), "digraph") {
		t.Errorf("dot file: %v", err)
	}
}

func TestRunWithConfigFileAndGantt(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(`{
	  "horizon": "1s",
	  "nodes": [{"path": "/a", "leaf": "sfq"}],
	  "threads": [{"name": "x", "leaf": "/a", "program": {"kind": "loop"}}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return run(runOptions{configPath: cfg, seed: 7, gantt: true})
	})
	if !strings.Contains(out, "first second of the schedule:") {
		t.Error("gantt section missing")
	}
	if !strings.Contains(out, "x") {
		t.Error("thread row missing")
	}
}

// TestStdoutDeterministic runs every example config twice and requires
// byte-identical reports: determinism covers stdout, not only the trace.
func TestStdoutDeterministic(t *testing.T) {
	configs, err := filepath.Glob("../../examples/configs/*.json")
	if err != nil || len(configs) == 0 {
		t.Fatalf("example configs: %v (%d found)", err, len(configs))
	}
	for _, cfg := range configs {
		t.Run(filepath.Base(cfg), func(t *testing.T) {
			first := capture(t, func() error { return run(runOptions{configPath: cfg}) })
			second := capture(t, func() error { return run(runOptions{configPath: cfg}) })
			if d := testutil.DiffBytes([]byte(second), []byte(first)); d != "" {
				t.Fatalf("two runs printed different reports: %s", d)
			}
		})
	}
}

// coresTestConfig sets no core count and mixes a dequeue-safe leaf (edf)
// with a partitioned-only one (svr4).
const coresTestConfig = `{
  "rate_mips": 100,
  "horizon": "2s",
  "seed": 7,
  "nodes": [
    {"path": "/rt", "weight": 2, "leaf": "edf", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "svr4"}
  ],
  "threads": [
    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "30ms", "cost": "5ms"}},
    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}},
    {"name": "chat", "leaf": "/be", "program": {"kind": "interactive", "think_mean": "50ms"}}
  ],
  "interrupts": [{"kind": "poisson", "rate_per_sec": 40, "service": "150us"}]
}`

// TestRunCores checks -cores against a coreless run: -cores 1 prints the
// same report and writes the same trace CSV, -cores 2 adds the core
// column and the per-core report lines, and an svr4 leaf under -policy
// steal is rejected before the machine is built.
func TestRunCores(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(coresTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	// sim runs the config and returns its report, without the "wrote"
	// line that names the trace file, and its trace CSV.
	sim := func(name string, cores int) (string, []byte) {
		tracePath := filepath.Join(dir, name)
		out := capture(t, func() error { return run(runOptions{configPath: cfg, tracePath: tracePath, cores: cores}) })
		out, _, _ = strings.Cut(out, "wrote "+tracePath)
		csv, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return out, csv
	}

	refOut, refCSV := sim("ref.csv", 0)
	oneOut, oneCSV := sim("one.csv", 1)
	if d := testutil.DiffBytes(oneCSV, refCSV); d != "" {
		t.Errorf("-cores 1 trace differs from coreless run: %s", d)
	}
	if d := testutil.DiffBytes([]byte(oneOut), []byte(refOut)); d != "" {
		t.Errorf("-cores 1 report differs from coreless run: %s", d)
	}

	smpOut, smpCSV := sim("smp.csv", 2)
	if header, _, _ := strings.Cut(string(smpCSV), "\n"); !strings.HasSuffix(header, ",core") {
		t.Errorf("-cores 2 trace header %q lacks the core column", header)
	}
	if header, _, _ := strings.Cut(string(refCSV), "\n"); strings.HasSuffix(header, ",core") {
		t.Errorf("coreless trace header %q has a core column", header)
	}
	if !strings.Contains(smpOut, "policy partitioned") || !strings.Contains(smpOut, "core 1:") {
		t.Errorf("-cores 2 report lacks policy/per-core lines:\n%s", smpOut)
	}

	err := run(runOptions{configPath: cfg, cores: 2, policy: "steal", tracePath: filepath.Join(dir, "never.csv")})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("svr4 leaf under -policy steal: err %v, want a \"does not support\" rejection", err)
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run(runOptions{configPath: "/no/such/config.json"}); err == nil {
		t.Error("missing config accepted")
	}
}

const ckptTestConfig = `{
  "horizon": "1s",
  "seed": 11,
  "nodes": [
    {"path": "/rt", "weight": 2, "leaf": "edf", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "sfq", "quantum": "10ms"}
  ],
  "threads": [
    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "40ms", "cost": "6ms"}},
    {"name": "job", "leaf": "/be", "program": {"kind": "loop"}}
  ],
  "interrupts": [{"kind": "poisson", "rate_per_sec": 80, "service": "120us"}]
}`

// TestRunCheckpointResume drives the full CLI round trip: a checkpointing
// run leaves a snapshot behind, a -resume run finishes from it, and the
// resumed run's trace CSV is byte-identical to the uninterrupted one.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}

	pristine := filepath.Join(dir, "pristine.csv")
	capture(t, func() error { return run(runOptions{configPath: cfg, tracePath: pristine}) })

	ckpt := filepath.Join(dir, "run.ckpt")
	capture(t, func() error {
		return run(runOptions{
			configPath: cfg,
			tracePath:  filepath.Join(dir, "ignored.csv"),
			ckptEvery:  300 * 1e6, // 300ms simulated
			ckptOut:    ckpt,
		})
	})
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	resumed := filepath.Join(dir, "resumed.csv")
	out := capture(t, func() error {
		return run(runOptions{resumePath: ckpt, tracePath: resumed})
	})
	if !strings.Contains(out, "scheduling structure:") {
		t.Error("resumed run printed no report")
	}

	want, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed trace differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  runOptions
	}{
		{"resume+config", runOptions{resumePath: "x.ckpt", configPath: cfg}},
		{"resume+seed", runOptions{resumePath: "x.ckpt", seed: 3}},
		{"every without out", runOptions{configPath: cfg, ckptEvery: 1e6}},
		{"out without every", runOptions{configPath: cfg, ckptOut: filepath.Join(dir, "a.ckpt")}},
		{"resume missing file", runOptions{resumePath: filepath.Join(dir, "nope.ckpt")}},
	}
	for _, tc := range cases {
		if err := run(tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunResumeWithoutTraceSection checks the error when a traceless
// checkpoint is resumed with -trace: the past events cannot be recreated.
func TestRunResumeWithoutTraceSection(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	capture(t, func() error {
		return run(runOptions{configPath: cfg, ckptEvery: 400 * 1e6, ckptOut: ckpt})
	})
	err := run(runOptions{resumePath: ckpt, tracePath: filepath.Join(dir, "t.csv")})
	if err == nil || !strings.Contains(err.Error(), "no trace section") {
		t.Errorf("want trace-section error, got %v", err)
	}
	// Without -trace the same checkpoint resumes fine.
	capture(t, func() error { return run(runOptions{resumePath: ckpt}) })
}
