package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsfq/internal/simconfig"
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
