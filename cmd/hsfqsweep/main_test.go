package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/sweep"
)

const testSpec = `{
  "name": "smoke",
  "seeds": 2,
  "base": {
    "horizon": "200ms",
    "seed": 42,
    "nodes": [
      {"path": "/a", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
      {"path": "/b", "weight": 1, "leaf": "rr"}
    ],
    "threads": [
      {"name": "x", "leaf": "/a", "program": {"kind": "loop"}},
      {"name": "y", "leaf": "/b", "program": {"kind": "loop"}}
    ]
  },
  "axes": [
    {"param": "weight", "target": "/a", "values": [1, 3]}
  ]
}`

// TestRunSweep runs each spec under -verify, checks the JSONL rows and the
// summary, and requires a -workers 1 rerun to stream identical bytes.
func TestRunSweep(t *testing.T) {
	inline := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(inline, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, spec, metrics string
		jobs                int
		summary             []string
	}{
		{"inline", inline, "work_total,share:x", 4, // 2 weights x 2 seeds
			[]string{"4 job(s)", "2 grid point(s)", "work_total", "share:x", "weight@/a=1"}},
		{"smoke.json", "../../examples/sweeps/smoke.json", "share:dec,frames:dec", 16, // 2 quanta x 2 leaves x 2 weights x 2 seeds
			[]string{"16 job(s)", "8 grid point(s)", "share:dec", "frames:dec", "leaf@/soft=stride"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			outPath := filepath.Join(dir, "out.jsonl")
			var stdout strings.Builder
			rep, err := run(tc.spec, 4, true, outPath, true, tc.metrics, "", &stdout)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || rep.Failed != 0 || rep.Mismatched != 0 {
				t.Fatalf("report: %+v", rep)
			}
			jsonl, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(jsonl)), "\n")
			if len(lines) != tc.jobs {
				t.Fatalf("got %d JSONL lines, want %d:\n%s", len(lines), tc.jobs, jsonl)
			}
			for _, line := range lines {
				if !strings.Contains(line, `"digest":"`) {
					t.Errorf("line without digest: %s", line)
				}
			}
			out := stdout.String()
			for _, want := range tc.summary {
				if !strings.Contains(out, want) {
					t.Errorf("summary missing %q:\n%s", want, out)
				}
			}

			// A second run with a different worker count streams identical bytes.
			outPath2 := filepath.Join(dir, "out2.jsonl")
			if _, err := run(tc.spec, 1, false, outPath2, false, "work_total", "", &stdout); err != nil {
				t.Fatal(err)
			}
			jsonl2, err := os.ReadFile(outPath2)
			if err != nil {
				t.Fatal(err)
			}
			if string(jsonl) != string(jsonl2) {
				t.Error("JSONL output differs between -workers 4 and -workers 1")
			}
		})
	}
}

func TestRunSweepBadSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	if _, err := run(specPath, 1, false, "", false, "", "", &stdout); err == nil {
		t.Error("empty base accepted")
	}
}

// TestVerifyMismatchExit covers the -verify failure path: a report with
// digest mismatches must select the distinct exit code and produce the
// one-line stderr summary naming the first offender.
func TestVerifyMismatchExit(t *testing.T) {
	rep := &sweep.Report{
		Jobs:       4,
		Failed:     2,
		Mismatched: 2,
		Results: []sweep.JobResult{
			{ID: 0},
			{ID: 1, Error: "nondeterministic: digest aaa then bbb", Mismatch: true},
			{ID: 2, Error: "nondeterministic: digest ccc then ddd", Mismatch: true},
			{ID: 3},
		},
	}
	if got := exitCode(rep); got != exitMismatch {
		t.Errorf("exit code %d, want %d", got, exitMismatch)
	}
	line := mismatchSummary(rep)
	if !strings.Contains(line, "2 of 4 job(s) nondeterministic") || !strings.Contains(line, "job 1") {
		t.Errorf("summary %q", line)
	}
	if strings.Contains(line, "\n") {
		t.Errorf("summary is not one line: %q", line)
	}

	// Ordinary failures (or no report at all) stay exit 1, no summary.
	plain := &sweep.Report{Jobs: 2, Failed: 1, Results: []sweep.JobResult{{ID: 0, Error: "boom"}, {ID: 1}}}
	if got := exitCode(plain); got != 1 {
		t.Errorf("plain failure exit %d", got)
	}
	if mismatchSummary(plain) != "" || mismatchSummary(nil) != "" {
		t.Error("summary printed without mismatches")
	}
	if exitCode(nil) != 1 {
		t.Error("nil report exit code")
	}
}
