package sweep

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

const listenConfig = `{
  "rate_mips": 100,
  "horizon": "100ms",
  "seed": 9,
  "nodes": [
    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "rr"}
  ],
  "threads": [
    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
  ]
}`

func TestExecuteConfigListened(t *testing.T) {
	cfg, err := simconfig.Parse(strings.NewReader(listenConfig))
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantMetrics, err := ExecuteConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	var metas []trace.ThreadMeta
	digest, m, err := ExecuteConfigListened(cfg, 0, store, func(s *simconfig.Simulation) {
		s.Machine.Listen(h)
		metas = s.ThreadMetas()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Listeners must not perturb the run: same digest and metrics as the
	// plain path.
	if digest != wantDigest {
		t.Fatalf("digest %s != %s", digest, wantDigest)
	}
	if len(m) != len(wantMetrics) {
		t.Fatalf("metrics differ: %v vs %v", m, wantMetrics)
	}
	if h.Rows() == 0 {
		t.Fatal("listener saw no events")
	}
	if len(metas) != 2 || metas[0].Name != "dec" || metas[0].Depth != 1 || metas[0].Path != "/soft" {
		t.Fatalf("thread metas: %+v", metas)
	}
	// The traced run still contributes its final checkpoint.
	ckpts, _ := filepath.Glob(filepath.Join(store.Dir, "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("want 1 stored checkpoint, got %v", ckpts)
	}

	// A second traced run of the same job must not resume (the listener
	// needs the full stream): the hashed row count matches a fresh run.
	h2 := trace.NewHasher()
	if _, _, err := ExecuteConfigListened(cfg, 0, store, func(s *simconfig.Simulation) {
		s.Machine.Listen(h2)
	}); err != nil {
		t.Fatal(err)
	}
	if h2.Rows() != h.Rows() || h2.Sum() != h.Sum() {
		t.Fatalf("second traced run saw %d rows (%s), first %d (%s)", h2.Rows(), h2.Sum(), h.Rows(), h.Sum())
	}
}

// TestForEach checks the pool's contract over sizes around and past the
// worker count: every index in [0, n) runs exactly once, never more than
// min(workers, n) calls are in flight or distinct goroutines make them
// (workers <= 0 means 1), and n = 0 returns without calling fn. At one
// worker every call runs on the calling goroutine, in index order: the
// calls record into plain, unsynchronized state, which -race checks.
func TestForEach(t *testing.T) {
	caller := goid()
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 200} {
			limit := min(max(workers, 1), n)
			counts := make([]atomic.Int32, n)
			var inFlight, peak atomic.Int32
			var mu sync.Mutex
			goroutines := map[string]bool{}
			ForEach(n, workers, func(i int) {
				now := inFlight.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				counts[i].Add(1)
				mu.Lock()
				goroutines[goid()] = true
				mu.Unlock()
				runtime.Gosched() // let other workers overlap this call
				inFlight.Add(-1)
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if p := int(peak.Load()); p > limit {
				t.Errorf("n=%d workers=%d: %d calls in flight, want at most %d", n, workers, p, limit)
			}
			if len(goroutines) > limit {
				t.Errorf("n=%d workers=%d: calls on %d goroutines, want at most %d", n, workers, len(goroutines), limit)
			}

			if workers > 1 {
				continue
			}
			var order []int
			ForEach(n, workers, func(i int) {
				if g := goid(); g != caller {
					t.Errorf("n=%d workers=%d: index %d ran on goroutine %s, not the caller's %s", n, workers, i, g, caller)
				}
				order = append(order, i)
			})
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d workers=%d: call %d had index %d, want index order", n, workers, i, got)
				}
			}
			if len(order) != n {
				t.Errorf("n=%d workers=%d: %d calls, want %d", n, workers, len(order), n)
			}
		}
	}
}

// goid returns the calling goroutine's ID, read from the header of its
// stack trace ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// FuzzExecute runs arbitrary valid configs through Execute: parsing,
// validating, building and running any of them must not panic, and
// resume equivalence must hold on each: with a fresh store, a 10 ms run
// followed by a 20 ms run of the same job resumes from the first run's
// checkpoint and reports the digest of a from-scratch 20 ms run.
func FuzzExecute(f *testing.F) {
	seeds := []string{
		listenConfig,
		`{"nodes": [{"path": "/a", "leaf": "sfq"}], "threads": [{"name": "t", "leaf": "/a", "program": {"kind": "loop"}}]}`,
		`{"rate_mips": 50, "cores": 2, "policy": "steal", "migration_cost": "50us",
		  "nodes": [{"path": "/a", "leaf": "sfq", "quantum": "2ms"}, {"path": "/b", "leaf": "eevdf"}],
		  "threads": [
		    {"name": "x", "leaf": "/a", "program": {"kind": "interactive", "think_mean": "3ms"}},
		    {"name": "y", "leaf": "/b", "program": {"kind": "onoff", "burst": 20000, "bursts": 2, "off": "1ms"}},
		    {"name": "z", "leaf": "/b", "program": {"kind": "dhrystone", "fault_every": 3, "fault_sleep": "500us"}}]}`,
		`{"nodes": [{"path": "/rt", "leaf": "edf"}, {"path": "/ts", "leaf": "mlfq", "levels": 3, "quantum": "1ms", "aging": "5ms"}],
		  "threads": [
		    {"name": "p", "leaf": "/rt", "period": "4ms", "program": {"kind": "periodic", "period": "4ms", "cost": "1ms"}},
		    {"name": "q", "leaf": "/ts", "program": {"kind": "loop", "burst": 1000}}],
		  "interrupts": [
		    {"kind": "periodic", "period": "1ms", "service": "20us"},
		    {"kind": "poisson", "rate_per_sec": 2000, "service": "10us"},
		    {"kind": "burst", "period": "5ms", "count": 4, "service": "30us"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint64(0))
		f.Add([]byte(s), uint64(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		c, err := simconfig.Parse(bytes.NewReader(data))
		if err != nil || c.Validate() != nil || !quickToRun(c) {
			return
		}
		c.Horizon = simconfig.Duration(20 * sim.Millisecond)
		want, _, _, err := Execute(c, seed, nil, nil)
		if err != nil {
			return // valid but unbuildable: there is no run to resume
		}
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		short := c
		short.Horizon = simconfig.Duration(10 * sim.Millisecond)
		if _, _, resumed, err := Execute(short, seed, store, nil); err != nil || resumed {
			t.Fatalf("10 ms run into a fresh store: resumed=%v err=%v", resumed, err)
		}
		got, _, resumed, err := Execute(c, seed, store, nil)
		if err != nil || !resumed {
			t.Fatalf("20 ms run after a 10 ms one: resumed=%v err=%v", resumed, err)
		}
		if got != want {
			t.Fatalf("resumed digest %s, from scratch %s", got, want)
		}
	})
}

// quickToRun bounds a fuzzed config so one execution stays short: the
// size of the tree and the machine, the CPU rate, and the densest event
// sources. Trace programs read files, so they are out of scope.
func quickToRun(c simconfig.Config) bool {
	if len(c.Nodes) > 16 || len(c.Threads) > 16 || c.Cores > 4 || c.RateMIPS > 10_000 {
		return false
	}
	for _, tc := range c.Threads {
		if tc.Program.Kind == "trace" {
			return false
		}
	}
	for _, ic := range c.Interrupts {
		if ic.Period != 0 && ic.Period < simconfig.Duration(sim.Microsecond) || ic.RatePerSec > 1e6 {
			return false
		}
	}
	return true
}
