package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

// TestJobKeyPinned pins the literal content address of every shipped
// example: each examples/configs config and each examples/sweeps base
// config, at seeds 1 and 7. JobKey hashes the config's canonical JSON,
// so any schema edit that changes how an existing config marshals (a new
// field without omitempty, a renamed tag, a reordered field) re-keys
// hsfqd's cache and every stored sweep result. That must be a deliberate
// decision, made by updating this table, never a side effect.
func TestJobKeyPinned(t *testing.T) {
	want := []struct {
		file string
		seed uint64
		key  string
	}{
		{"configs/every-leaf.json", 1, "89e7fd0cf32b1ac2c9818793e37be6d08027ca34dc7cbf029305ad428b8b9e40"},
		{"configs/every-leaf.json", 7, "7fa196276d4f4e02c2f06df536d8e1a33f77f88ee1e85bf74327002eb727a98d"},
		{"configs/interrupt-storm.json", 1, "1d6c4ec608a5b5b2ada3d160f9ab67acf1a2a0dcda7a4f4094a8981bcc3f9f3f"},
		{"configs/interrupt-storm.json", 7, "e0ec77aec9701a4173ccf9c1a26225a74a978d3385a8de2f13f6d3111eb1e8f6"},
		{"configs/paper-fig2.json", 1, "50f339e9fdfa58b263b963db54986fe8eeb496f38a5731dd413e2b4e0b17e59a"},
		{"configs/paper-fig2.json", 7, "4a0accc51a44576535f0878736c8d975afbd4574660b52ec4dd228b0e352aef2"},
		{"configs/video-server.json", 1, "d6742f4b8e53fb4ac6771a53081cc94e866da7a8338bbe57ae5cc7a214d93c65"},
		{"configs/video-server.json", 7, "2a6992a9d13c097c10253d0af427a620f71db304095c8f4fba710966846c089e"},
		{"sweeps/ckpt.json", 1, "b37cdd07d1b1f396ca9e8ac7d183bcfe5a6929d687b1964cd02dba9a9086e5cd"},
		{"sweeps/ckpt.json", 7, "f19a0ea635391cd9191424c718f98e0658ef02071175d238bd0a9d9fb2a0c141"},
		{"sweeps/mesh.json", 1, "5eb9abaede22368e7c1ecaab3190258320fa5960f2ccc99166b681dcf5be0ac2"},
		{"sweeps/mesh.json", 7, "88dabc8d06a2744d1fae77026978a7299da54c2e8ce5fee0e9694fb3085f4a80"},
		{"sweeps/smoke.json", 1, "bca351e7b1463309552c506a4f6ac735ac40ee1508b19f56c80c53ea830ac817"},
		{"sweeps/smoke.json", 7, "98b0791ad98675dae967a4bb8e559dd285eab9c481766dbb9fbb2cc5e7ce680c"},
		{"sweeps/smp.json", 1, "66d807fe0fa785a27f2f7963fd188fc7355d13d35198e057e41eed6ced2783cd"},
		{"sweeps/smp.json", 7, "1c4e6e8168e3df7e80c57c5617e264b5eb1ab54db39f83ff1725fb994c04cfea"},
	}

	// Every shipped example must appear in the table, so a new one cannot
	// slip in unpinned.
	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w.file] = true
	}
	for _, dir := range []string{"configs", "sweeps"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if name := dir + "/" + filepath.Base(p); !pinned[name] {
				t.Errorf("examples/%s has no pinned JobKey", name)
			}
		}
	}

	for _, w := range want {
		f, err := os.Open(filepath.Join("..", "..", "examples", w.file))
		if err != nil {
			t.Fatal(err)
		}
		var cfg simconfig.Config
		if strings.HasPrefix(w.file, "sweeps/") {
			var spec Spec
			spec, err = ParseSpec(f)
			cfg = spec.Base
		} else {
			cfg, err = simconfig.Parse(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		if got := JobKey(cfg, w.seed); got != w.key {
			t.Errorf("%s seed %d: JobKey %s, pinned %s", w.file, w.seed, got, w.key)
		}
	}
}

// TestTraceDigestPinned pins the literal trace.Hasher digest and row count
// of every examples/configs config at seed 1, on one core and on three
// partitioned cores, plus interrupt-storm on three global cores. Multicore
// rows carry a core column, so a dispatch, charge or idle event on the
// wrong core, or a wake, block, exit or interrupt event that stops
// carrying core 0, changes a digest here. Like TestJobKeyPinned, a new
// example must be added to the table.
func TestTraceDigestPinned(t *testing.T) {
	want := []struct {
		file   string
		cores  int
		policy string
		rows   int
		digest string
	}{
		{"every-leaf.json", 1, "", 2694, "741ecab3173b375e6033729df45b333a1416f964ebff7474a0e32c227ceb45f7"},
		{"every-leaf.json", 3, "partitioned", 6743, "83d8a1a2e0ecfe68ebb01fe23f244724c740faf898defd3615e5f26d9731b144"},
		{"interrupt-storm.json", 1, "", 7325, "81eb68b2c6acbbc042b61096b8880ab1fad2beb8689cfba734aaf4e5dd3cb8eb"},
		{"interrupt-storm.json", 3, "partitioned", 13611, "5e007d3bffa63ae86887b3e6e30a3dfb9fd12d72d0e8f878f30f67d0ad84d62e"},
		{"interrupt-storm.json", 3, "global", 11834, "35e3ef7f79de5e01c5dc1528591a9b5804cee3ed72950e9ca3f61cdfaca954c1"},
		{"paper-fig2.json", 1, "", 11509, "951fca08747674b1c3213c6489cf2ec89f716c1091d98351f2c4dacf8516ca0c"},
		{"paper-fig2.json", 3, "partitioned", 25492, "2ed8aa3b55aaffe461da16437da08d3528f663f3d1b2285ddb53a645bf69b6a2"},
		{"video-server.json", 1, "", 39480, "07a56d5bf8cc2bca397340a7562b3b01df6babc1801c3f4572b9524415c6ea26"},
		{"video-server.json", 3, "partitioned", 97280, "b2c7ff85cd8f885fc423afc94409c5f0caebe84dedad144d6abd99faf6f4f320"},
	}

	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w.file] = true
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if name := filepath.Base(p); !pinned[name] {
			t.Errorf("examples/configs/%s has no pinned trace digest", name)
		}
	}

	for _, w := range want {
		f, err := os.Open(filepath.Join("..", "..", "examples", "configs", w.file))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := simconfig.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		cfg.Cores, cfg.Policy = w.cores, w.policy
		h := trace.NewHasher()
		if _, _, err := ExecuteConfigListened(cfg, 1, nil, func(s *simconfig.Simulation) { s.Machine.Listen(h) }); err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		if h.Rows() != w.rows || h.Sum() != w.digest {
			t.Errorf("%s on %d cores %q: %d rows digest %s, pinned %d rows %s",
				w.file, w.cores, w.policy, h.Rows(), h.Sum(), w.rows, w.digest)
		}
	}
}
