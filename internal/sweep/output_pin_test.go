package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/simconfig"
)

// TestSweepOutputPinned pins the bytes a sweep prints: for every
// examples/sweeps spec, the SHA-256 of the JSONL stream sweep.Run writes
// and of its marshaled aggregates, at one worker and at four. The stream
// carries every job's digest and metrics, so a change to Canonical,
// Metrics, the result encoding or the order the pool releases lines in
// changes a pin here. Like TestJobKeyPinned, a new spec must be added to
// the table.
func TestSweepOutputPinned(t *testing.T) {
	want := []struct {
		file       string
		stream     string
		aggregates string
	}{
		{"ckpt.json",
			"acab2f60f9d3293f1b6a70cd3847399d1e663b495fe83594d70d7580a1d9533e",
			"aac7757f6ad80a33a3ecff7a1b4a5329e470db9ac900ba55841339bd7e631d85"},
		{"mesh.json",
			"87ace66978976498cc6c003f8d3c9997146b251bd981d2db5206d845b823b30b",
			"42ffc47cb9627d6c2707a4f7d753d5e1ee42a3db11d19aec1df1ccf2ae26c365"},
		{"smoke.json",
			"85a30f9ecabca8fb25c8363418ccd2e560f2c7ba89d8331c074fcf78f2c530a5",
			"d61ef9e3d9de51d58b08082813adf9bf2def691e43266f46248d245d34d5807d"},
		{"smp.json",
			"5e39c8c24f8099f93dc2117c31bbad398972206196b9bf497704c924ba49e17f",
			"ad45841fb7946d0c5f39e2afc24e8051244d0a7e3e7c7f1f1a93080d3c5112a9"},
	}

	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w.file] = true
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "sweeps", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if name := filepath.Base(p); !pinned[name] {
			t.Errorf("examples/sweeps/%s has no pinned output", name)
		}
	}

	for _, w := range want {
		spec := exampleSpec(t, w.file)
		for _, workers := range []int{1, 4} {
			h := sha256.New()
			rep, err := Run(spec, Options{Workers: workers, Stream: h})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", w.file, workers, err)
			}
			aggs, err := json.Marshal(rep.Aggregates)
			if err != nil {
				t.Fatal(err)
			}
			stream, agg := hex.EncodeToString(h.Sum(nil)), sha256Hex(aggs)
			if stream != w.stream || agg != w.aggregates {
				t.Errorf("%s at %d workers: stream %s aggregates %s, pinned %s %s",
					w.file, workers, stream, agg, w.stream, w.aggregates)
			}
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCanonicalMatchesReference checks Canonical and Digest against
// canonicalReference, the fmt rendering they replaced, on every
// examples/configs config at seed 1, on one core and on three
// partitioned cores (which adds the per-core lines).
func TestCanonicalMatchesReference(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example configs")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := simconfig.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, cores := range []int{1, 3} {
			cfg.Cores, cfg.Policy = cores, ""
			if cores > 1 {
				cfg.Policy = "partitioned"
			}
			var s *simconfig.Simulation
			digest, _, err := ExecuteConfigListened(cfg, 1, nil, func(sim *simconfig.Simulation) { s = sim })
			if err != nil {
				t.Fatalf("%s on %d cores: %v", p, cores, err)
			}
			want := canonicalReference(s)
			if got := Canonical(s); got != want {
				t.Errorf("%s on %d cores: Canonical\n%s\nreference\n%s", filepath.Base(p), cores, got, want)
			}
			if ref := sha256Hex([]byte(want)); digest != ref {
				t.Errorf("%s on %d cores: Digest %s, reference %s", filepath.Base(p), cores, digest, ref)
			}
		}
	}
}

// canonicalReference is Canonical as first written, with fmt: the format
// every stored digest was computed in.
func canonicalReference(s *simconfig.Simulation) string {
	var b strings.Builder
	st := s.Machine.Stats()
	fmt.Fprintf(&b, "machine work=%d dispatches=%d preemptions=%d interrupts=%d stolen=%d idle=%d\n",
		int64(st.Work), st.Dispatches, st.Preemptions, st.Interrupts, int64(st.Stolen), int64(st.Idle))
	if n := s.Machine.NumCores(); n > 1 {
		fmt.Fprintf(&b, "machine migrations=%d\n", st.Migrations)
		for c := 0; c < n; c++ {
			cs := s.Machine.CoreStats(c)
			fmt.Fprintf(&b, "core %d work=%d dispatches=%d preemptions=%d migrations=%d idle=%d\n",
				c, int64(cs.Work), cs.Dispatches, cs.Preemptions, cs.Migrations, int64(cs.Idle))
		}
	}
	for _, th := range s.Threads {
		fmt.Fprintf(&b, "thread %s done=%d segments=%d waited=%d state=%s\n",
			th.Name, int64(th.Done), th.Segments, int64(th.Waited), th.State)
	}
	horizon := s.Config.Horizon.Time()
	for _, name := range sortedKeys(s.Periodics) {
		p := s.Periodics[name]
		fmt.Fprintf(&b, "periodic %s rounds=%d missed=%d minslack=%d\n", name, len(p.Slack), p.MissedDeadlines(), int64(p.MinSlack()))
	}
	for _, name := range sortedKeys(s.Decoders) {
		fmt.Fprintf(&b, "decoder %s frames=%d\n", name, s.Decoders[name].FramesDecoded(horizon))
	}
	return b.String()
}
