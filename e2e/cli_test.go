//go:build e2e

package e2e

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hsfq/internal/testutil"
)

// TestCheckpointKillResume SIGKILLs a checkpointing hsfqsim run as soon
// as its first snapshot lands, resumes from that snapshot, and requires
// the resumed trace CSV to be byte-identical to an uninterrupted run's.
func TestCheckpointKillResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// A long horizon, so the kill lands mid-run on any machine, and
	// enough event variety (deadlines, SVR4 feedback, Poisson
	// interrupts, a seeded RNG stream) that a sloppy restore would show.
	cfg := writeFile(t, dir, "sim.json", `{
  "rate_mips": 100,
  "horizon": "120s",
  "seed": 11,
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
}`)

	pristine := filepath.Join(dir, "pristine.csv")
	if out, err := exec.Command(bin("hsfqsim"), "-config", cfg, "-trace", pristine).CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted run: %v\n%s", err, out)
	}

	ckpt := filepath.Join(dir, "run.ckpt")
	victim := exec.Command(bin("hsfqsim"), "-config", cfg, "-trace", filepath.Join(dir, "never.csv"),
		"-checkpoint-every", "2s", "-checkpoint-out", ckpt)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	// The snapshot write is atomic, so whenever SIGKILL lands, even
	// during a later write, the file holds a complete snapshot.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("no checkpoint file after 30s")
		}
	}
	victim.Process.Kill()
	err := victim.Wait()
	if ws, ok := victim.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("run was not killed mid-simulation (%v); raise the config horizon", err)
	}

	resumed := filepath.Join(dir, "resumed.csv")
	var stderr bytes.Buffer
	resume := exec.Command(bin("hsfqsim"), "-resume", ckpt, "-trace", resumed)
	resume.Stderr = &stderr
	if err := resume.Run(); err != nil {
		t.Fatalf("resume: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("resumed at")) {
		t.Errorf("resume did not report its resume point: %s", stderr.Bytes())
	}
	if d := testutil.DiffBytes(readFile(t, resumed), readFile(t, pristine)); d != "" {
		t.Fatalf("resumed trace differs from uninterrupted run: %s", d)
	}
}

// TestMeshBackendKilled runs a 64-job sweep over two hsfqd backends with
// hedging on and SIGKILLs one of them mid-sweep. hsfqmesh must still
// exit 0 with JSONL byte-identical to a serial hsfqsweep run.
func TestMeshBackendKilled(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const spec = "../examples/sweeps/mesh.json"
	serialPath := filepath.Join(dir, "serial.jsonl")
	start := time.Now()
	if out, err := exec.Command(bin("hsfqsweep"), "-spec", spec, "-o", serialPath, "-summary=false").CombinedOutput(); err != nil {
		t.Fatalf("serial hsfqsweep: %v\n%s", err, out)
	}
	serialDur := time.Since(start)

	backendFlags := []string{"-workers", "2", "-sweep-workers", "2", "-queue", "16"}
	d1 := startDaemon(t, backendFlags...)
	d2 := startDaemon(t, backendFlags...)
	meshPath := filepath.Join(dir, "mesh.jsonl")
	var stderr bytes.Buffer
	mesh := exec.Command(bin("hsfqmesh"), "-spec", spec, "-backends", d1.URL+","+d2.URL,
		"-o", meshPath, "-summary=false", "-batch", "4", "-retries", "3", "-timeout", "30s",
		"-hedge-after", "500ms", "-verify", "0.2")
	mesh.Stderr = &stderr
	if err := mesh.Start(); err != nil {
		t.Fatal(err)
	}
	// Two backends plus hedging take longer than a quarter of the serial
	// run, so the kill lands mid-sweep.
	time.Sleep(max(serialDur/4, 50*time.Millisecond))
	d2.kill()
	if err := mesh.Wait(); err != nil {
		t.Fatalf("hsfqmesh after a backend kill: %v\n%s", err, stderr.Bytes())
	}
	if d := testutil.DiffBytes(readFile(t, meshPath), readFile(t, serialPath)); d != "" {
		t.Fatalf("mesh output differs from serial run: %s", d)
	}
}

// TestCLIsDeterministic runs each CLI and each examples/ program twice
// and requires the same exit status and the same stdout bytes, and for
// hsfqsweep the same JSONL file. experiments runs once serially and once
// on two workers.
func TestCLIsDeterministic(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{
  "horizon": "2s",
  "seed": 5,
  "nodes": [
    {"path": "/rt", "weight": 3, "leaf": "edf", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "sfq", "quantum": "10ms"}
  ],
  "threads": [
    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "33ms", "cost": "5ms"}},
    {"name": "job", "leaf": "/be", "program": {"kind": "loop"}}
  ],
  "interrupts": [{"kind": "poisson", "rate_per_sec": 120, "service": "100us"}]
}`)
	// The same config with a thread that first wakes at t=1s.
	planted := writeFile(t, dir, "planted.json", string(bytes.Replace(readFile(t, base),
		[]byte(`"program": {"kind": "loop"}}`),
		[]byte(`"program": {"kind": "loop"}},
    {"name": "intruder", "leaf": "/be", "start": "1s", "program": {"kind": "loop"}}`), 1)))
	script := writeFile(t, dir, "fig2.hsfq", `mknod /hard-real-time 1 edf 10ms
mknod /soft-real-time 3 sfq 10ms
mknod /best-effort 6
mknod /best-effort/user1 1 sfq
mknod /best-effort/user2 1 svr4 25ms
weight /soft-real-time 4
bandwidth /best-effort/user1
info /soft-real-time
tree
dot
check
`)
	smoke, err := filepath.Abs("../examples/sweeps/smoke.json")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		runs [2][]string // the two invocations: binary, then arguments
		code int
		file string // an output file each run writes in its own directory
	}{
		{name: "hsfqsweep", file: "out.jsonl", runs: twice("hsfqsweep", "-spec", smoke, "-workers", "2", "-o", "out.jsonl")},
		{name: "hsfqdiff", code: 3, runs: twice("hsfqdiff", "-a", base, "-b", planted, "-json")},
		{name: "hsfqctl", runs: twice("hsfqctl", "-f", script)},
		{name: "experiments", runs: [2][]string{
			{"experiments", "-all", "-json", "-workers", "1"},
			{"experiments", "-all", "-json", "-workers", "2"},
		}},
		{name: "inversion", runs: twice("inversion")},
		{name: "overload", runs: twice("overload")},
		{name: "qosmanager", runs: twice("qosmanager")},
		{name: "quickstart", runs: twice("quickstart")},
		{name: "videoserver", runs: twice("videoserver")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, file [2][]byte
			for i, args := range tc.runs {
				cmd := exec.Command(bin(args[0]), args[1:]...)
				cmd.Dir = t.TempDir()
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				var ee *exec.ExitError
				if err != nil && !errors.As(err, &ee) {
					t.Fatal(err)
				}
				if code := cmd.ProcessState.ExitCode(); code != tc.code {
					t.Fatalf("run %d: exit status %d, want %d\n%s", i+1, code, tc.code, stderr.Bytes())
				}
				stdout[i] = out
				if tc.file != "" {
					file[i] = readFile(t, filepath.Join(cmd.Dir, tc.file))
				}
			}
			if d := testutil.DiffBytes(stdout[1], stdout[0]); d != "" {
				t.Errorf("stdout differs between runs: %s", d)
			}
			if d := testutil.DiffBytes(file[1], file[0]); d != "" {
				t.Errorf("%s differs between runs: %s", tc.file, d)
			}
			if len(stdout[0]) == 0 {
				t.Error("no output")
			}
		})
	}
}

// twice is the same invocation for both runs.
func twice(args ...string) [2][]string { return [2][]string{args, args} }

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
