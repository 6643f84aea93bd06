package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hsfq/internal/tracediff"
)

const baseConfig = `{
  "horizon": "2s",
  "seed": 5,
  "nodes": [
    {"path": "/rt", "weight": 3, "leaf": "edf", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "sfq", "quantum": "10ms"}
  ],
  "threads": [
    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "33ms", "cost": "5ms"}},
    {"name": "job", "leaf": "/be", "program": {"kind": "loop"}},
    {"name": "chat", "leaf": "/be", "program": {"kind": "interactive", "think_mean": "40ms"}}
  ],
  "interrupts": [{"kind": "poisson", "rate_per_sec": 120, "service": "100us"}]
}`

func writeConfig(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffIdentical(t *testing.T) {
	a := writeConfig(t, "a.json", baseConfig)
	b := writeConfig(t, "b.json", baseConfig)
	var out strings.Builder
	divergent, err := run(&out, a, b, 0, 0, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if divergent {
		t.Fatalf("identical configs reported divergent:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "identical:") {
		t.Errorf("missing identical line: %s", out.String())
	}
}

var divergenceRE = regexp.MustCompile(`(?m)^divergence_at_ns=(\d+)$`)

// divergenceAt runs diff and returns the reported divergence instant.
func divergenceAt(t *testing.T, a, b string, seedA, seedB uint64, grid int) int64 {
	t.Helper()
	var out strings.Builder
	divergent, err := run(&out, a, b, seedA, seedB, grid, false)
	if err != nil {
		t.Fatal(err)
	}
	if !divergent {
		t.Fatalf("expected divergence, got:\n%s", out.String())
	}
	m := divergenceRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no divergence_at_ns line in:\n%s", out.String())
	}
	at, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// TestDiffLateThread plants a thread that only starts at t=1s: the runs
// are identical for the first second, so the bisector must land on an
// instant at (or just before, if an unrelated event shares the tick)
// the 1s mark — and must have replayed from a late checkpoint, not tick
// zero.
func TestDiffLateThread(t *testing.T) {
	a := writeConfig(t, "a.json", baseConfig)
	// Appended last so existing thread IDs are unchanged: the runs really
	// are identical until the intruder wakes.
	late := strings.Replace(baseConfig, `"program": {"kind": "interactive", "think_mean": "40ms"}}`,
		`"program": {"kind": "interactive", "think_mean": "40ms"}},
    {"name": "intruder", "leaf": "/be", "start": "1s", "program": {"kind": "loop"}}`, 1)
	b := writeConfig(t, "b.json", late)

	var out strings.Builder
	divergent, err := run(&out, a, b, 0, 0, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if !divergent {
		t.Fatal("late-start thread not detected")
	}
	m := divergenceRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no divergence_at_ns line in:\n%s", out.String())
	}
	at, _ := strconv.ParseInt(m[1], 10, 64)
	if at < 900e6 || at > 1100e6 {
		t.Errorf("divergence at %dns, want ~1s:\n%s", at, out.String())
	}
	// With a 16-point grid over 2s the prefixes agree through at least
	// instant 7 (t=875ms), so the replay window must not start at zero.
	if strings.Contains(out.String(), "replayed from instant 0/") {
		t.Errorf("bisector replayed from tick zero:\n%s", out.String())
	}
}

// TestDiffSeedSensitivity compares one config under two seeds: the
// Poisson interrupt arrivals differ immediately.
func TestDiffSeedSensitivity(t *testing.T) {
	a := writeConfig(t, "a.json", baseConfig)
	b := writeConfig(t, "b.json", baseConfig)
	at := divergenceAt(t, a, b, 1, 2, 4)
	if at > 500e6 {
		t.Errorf("seeded poisson runs diverged only at %dns", at)
	}
}

// TestDiffGridInvariance checks the reported instant does not depend on
// the grid resolution — only the replay window does.
func TestDiffGridInvariance(t *testing.T) {
	a := writeConfig(t, "a.json", baseConfig)
	b := writeConfig(t, "b.json", strings.Replace(baseConfig, `"rate_per_sec": 120`, `"rate_per_sec": 121`, 1))
	at1 := divergenceAt(t, a, b, 0, 0, 1)
	at16 := divergenceAt(t, a, b, 0, 0, 16)
	if at1 != at16 {
		t.Errorf("grid changed the answer: %d (grid 1) vs %d (grid 16)", at1, at16)
	}
}

func TestDiffErrors(t *testing.T) {
	good := writeConfig(t, "a.json", baseConfig)
	short := writeConfig(t, "s.json", strings.Replace(baseConfig, `"horizon": "2s"`, `"horizon": "1s"`, 1))
	bad := writeConfig(t, "bad.json", `{"horizon": "2s"}`)

	var out strings.Builder
	if _, err := run(&out, good, short, 0, 0, 8, false); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("horizon mismatch: %v", err)
	}
	if _, err := run(&out, good, bad, 0, 0, 8, false); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := run(&out, good, filepath.Join(t.TempDir(), "nope.json"), 0, 0, 8, false); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := run(&out, good, good, 0, 0, 0, false); err == nil {
		t.Error("zero grid accepted")
	}
}

// TestDiffJSONMode checks -json emits the tracediff schema with the same
// divergence verdict as the text mode.
func TestDiffJSONMode(t *testing.T) {
	a := writeConfig(t, "a.json", baseConfig)
	b := writeConfig(t, "b.json", strings.Replace(baseConfig, `"rate_per_sec": 120`, `"rate_per_sec": 121`, 1))
	var out strings.Builder
	divergent, err := run(&out, a, b, 0, 0, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if !divergent {
		t.Fatal("expected divergence")
	}
	var res tracediff.Result
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("bad JSON %q: %v", out.String(), err)
	}
	if res.Status != tracediff.StatusDivergent || res.DivergenceAtNs == 0 || res.FirstRows == nil {
		t.Fatalf("JSON result: %+v", res)
	}
	// Same verdict as the text mode.
	if at := divergenceAt(t, a, b, 0, 0, 8); at != res.DivergenceAtNs {
		t.Fatalf("json says %d, text says %d", res.DivergenceAtNs, at)
	}

	out.Reset()
	if divergent, err = run(&out, a, a, 0, 0, 8, true); err != nil || divergent {
		t.Fatalf("self-diff: %v %v", divergent, err)
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil || res.Status != tracediff.StatusIdentical {
		t.Fatalf("self-diff JSON: %q %v", out.String(), err)
	}
}
