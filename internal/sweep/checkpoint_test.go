package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/testutil"
)

// extensionSpec sweeps the horizon itself: with a checkpoint store, the
// longer-horizon jobs should resume from the shorter-horizon jobs' final
// states instead of re-simulating the shared prefix.
const extensionSpec = `{
  "name": "extend",
  "seeds": 2,
  "base": {
    "rate_mips": 100,
    "horizon": "300ms",
    "seed": 42,
    "nodes": [
      {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
      {"path": "/be", "weight": 1, "leaf": "svr4"}
    ],
    "threads": [
      {"name": "dec", "leaf": "/soft", "weight": 2,
       "program": {"kind": "mpeg", "frames": 400, "loop": true}},
      {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
    ],
    "interrupts": [
      {"kind": "poisson", "rate_per_sec": 100, "service": "200us"}
    ]
  },
  "axes": [
    {"param": "horizon", "values": ["150ms", "300ms", "600ms"]}
  ]
}`

// TestHorizonExtensionByteIdentity is the sweep-level acceptance
// criterion: the streamed JSONL and the report's results must be
// byte-for-byte identical whether jobs run from scratch or resume from
// checkpoints; only Report.Resumed may differ. It runs the inline spec
// and the shipped examples/sweeps/ckpt.json.
func TestHorizonExtensionByteIdentity(t *testing.T) {
	t.Run("inline", func(t *testing.T) { checkHorizonExtension(t, parseTestSpec(t, extensionSpec)) })
	t.Run("ckpt.json", func(t *testing.T) { checkHorizonExtension(t, exampleSpec(t, "ckpt.json")) })
}

func checkHorizonExtension(t *testing.T, spec Spec) {
	dir := t.TempDir()

	var fresh bytes.Buffer
	repFresh, err := Run(spec, Options{Workers: 2, Stream: &fresh})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if repFresh.Resumed != 0 {
		t.Fatalf("fresh run claims %d resumed jobs", repFresh.Resumed)
	}

	// Workers: 1 so the shortest-horizon jobs complete (and store
	// checkpoints) before the longer-horizon jobs of the same seed start.
	var primed bytes.Buffer
	repPrimed, err := Run(spec, Options{Workers: 1, Stream: &primed, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("priming run: %v", err)
	}
	if repPrimed.Resumed == 0 {
		t.Fatal("priming run resumed nothing; expected horizon extension within the sweep")
	}
	if d := testutil.DiffBytes(primed.Bytes(), fresh.Bytes()); d != "" {
		t.Fatalf("checkpointed sweep JSONL differs from fresh: %s", d)
	}

	// Second pass over a fully primed store: every job resumes, bytes
	// still identical.
	var again bytes.Buffer
	repAgain, err := Run(spec, Options{Workers: 3, Stream: &again, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("primed run: %v", err)
	}
	if want := repAgain.Jobs; repAgain.Resumed != want {
		t.Fatalf("primed run resumed %d of %d jobs", repAgain.Resumed, want)
	}
	if d := testutil.DiffBytes(again.Bytes(), fresh.Bytes()); d != "" {
		t.Fatalf("fully-primed sweep JSONL differs from fresh: %s", d)
	}

	// Verify mode over the primed store compares every resumed digest
	// against a from-scratch rerun.
	rep, err := Run(spec, Options{Workers: 2, Verify: true, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("verify over primed store: %v", err)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("%d resumed jobs diverged from from-scratch reruns", rep.Mismatched)
	}
}

// TestExecuteResumeMatchesFull primes a store at a short horizon and
// checks a longer run of the same job resumes from it with the digest and
// metrics of a from-scratch run.
func TestExecuteResumeMatchesFull(t *testing.T) {
	spec := parseTestSpec(t, extensionSpec)
	c := spec.Base
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Prime at a short horizon.
	short := c
	short.Horizon = simconfig.Duration(100 * sim.Millisecond)
	if _, _, resumed, err := Execute(short, 7, store, nil); err != nil || resumed {
		t.Fatalf("prime: resumed=%v err=%v", resumed, err)
	}

	long := c
	long.Horizon = simconfig.Duration(400 * sim.Millisecond)
	wantDigest, wantMetrics, err := ExecuteConfig(long, 7)
	if err != nil {
		t.Fatal(err)
	}
	digest, m, resumed, err := Execute(long, 7, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("long run did not resume from the primed checkpoint")
	}
	if digest != wantDigest {
		t.Fatalf("resumed digest %s, full %s", digest, wantDigest)
	}
	if len(m) != len(wantMetrics) {
		t.Fatalf("metric sets differ: %v vs %v", m, wantMetrics)
	}
	for k, v := range wantMetrics {
		if m[k] != v {
			t.Fatalf("metric %s: resumed %v, full %v", k, m[k], v)
		}
	}

	// A different seed must not share the prefix.
	if _, _, resumed, err := Execute(long, 8, store, nil); err != nil || resumed {
		t.Fatalf("other seed: resumed=%v err=%v", resumed, err)
	}
}

// TestCorruptCheckpointFallsBack plants garbage and a truncated real
// checkpoint under the exact names the store would use; execution must
// fall back to a full run with correct results.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	spec := parseTestSpec(t, extensionSpec)
	c := spec.Base
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prefix := PrefixKey(c, 7)
	garbage := filepath.Join(store.Dir, prefix+".at1000000.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	wantDigest, _, err := ExecuteConfig(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	digest, _, resumed, err := Execute(c, 7, store, nil)
	if err != nil {
		t.Fatalf("corrupt store broke execution: %v", err)
	}
	if resumed {
		t.Fatal("claimed to resume from garbage")
	}
	if digest != wantDigest {
		t.Fatalf("digest %s after fallback, want %s", digest, wantDigest)
	}

	// The healthy run stored its own checkpoint; damage a copy of it at
	// a later name and re-run: Best picks the damaged (later) file,
	// Restore rejects it, and execution still succeeds from scratch.
	matches, _ := filepath.Glob(filepath.Join(store.Dir, prefix+".at*.ckpt"))
	if len(matches) == 0 {
		t.Fatal("healthy run stored no checkpoint")
	}
	data, err := os.ReadFile(matches[len(matches)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir, prefix+".at2000000.ckpt"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove intact entries so only damaged ones remain candidates.
	for _, m := range matches {
		if !strings.Contains(m, ".at1000000.") && !strings.Contains(m, ".at2000000.") {
			os.Remove(m)
		}
	}
	digest, _, resumed, err = Execute(c, 7, store, nil)
	if err != nil || resumed || digest != wantDigest {
		t.Fatalf("truncated-checkpoint fallback: digest=%s resumed=%v err=%v", digest, resumed, err)
	}
}

func TestPrefixKeyIgnoresHorizonOnly(t *testing.T) {
	spec := parseTestSpec(t, extensionSpec)
	a := spec.Base
	b := spec.Base
	b.Horizon = simconfig.Duration(7 * sim.Second)
	if PrefixKey(a, 1) != PrefixKey(b, 1) {
		t.Fatal("horizon change altered the prefix key")
	}
	if PrefixKey(a, 1) == PrefixKey(a, 2) {
		t.Fatal("seed change did not alter the prefix key")
	}
	c := spec.Base
	c.RateMIPS = 200
	if PrefixKey(a, 1) == PrefixKey(c, 1) {
		t.Fatal("config change did not alter the prefix key")
	}
}
