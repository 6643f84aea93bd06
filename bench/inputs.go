package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"hsfq/internal/simconfig"
)

// Every input the benchmark feeds the program is drawn here from the run's
// seed, so the same seed gives byte-identical inputs. The shapes follow the
// scenarios shipped in examples/: video-server, interrupt-storm and the
// mesh sweep.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func dur(d time.Duration) simconfig.Duration { return simconfig.Duration(d.Nanoseconds()) }

// simSeed draws a non-zero simulation seed (0 would mean "keep the
// config's own seed" to simconfig.Build).
func simSeed(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<40) }

// videoServer is examples/configs/video-server.json at the given horizon
// and seed: three looping mpeg decoders under SFQ, a cron and an
// interactive shell under SVR4, and Poisson interrupts.
func videoServer(horizon time.Duration, seed uint64) simconfig.Config {
	return simconfig.Config{
		RateMIPS: 200,
		Horizon:  dur(horizon),
		Seed:     seed,
		Nodes: []simconfig.NodeConfig{
			{Path: "/video", Weight: 3, Leaf: "sfq", Quantum: dur(5 * time.Millisecond)},
			{Path: "/admin", Weight: 1, Leaf: "svr4"},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "stream-hd", Leaf: "/video", Weight: 4, Program: simconfig.ProgramConfig{Kind: "mpeg", Loop: true}},
			{Name: "stream-sd1", Leaf: "/video", Weight: 1, Program: simconfig.ProgramConfig{Kind: "mpeg", Loop: true}},
			{Name: "stream-sd2", Leaf: "/video", Weight: 1, Program: simconfig.ProgramConfig{Kind: "mpeg", Loop: true}},
			{Name: "cron", Leaf: "/admin", Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 20, Off: dur(5 * time.Second)}},
			{Name: "sshd", Leaf: "/admin", Program: simconfig.ProgramConfig{Kind: "interactive", ThinkMean: dur(300 * time.Millisecond)}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "poisson", RatePerSec: 200, Service: dur(50 * time.Microsecond)},
		},
	}
}

// interruptStorm is examples/configs/interrupt-storm.json at 300 s with
// seeded worker weights (the scenario itself draws no random numbers).
func interruptStorm(r *rand.Rand) simconfig.Config {
	return simconfig.Config{
		RateMIPS: 100,
		Horizon:  dur(300 * time.Second),
		Seed:     simSeed(r),
		Nodes: []simconfig.NodeConfig{
			{Path: "/rt", Weight: 1, Leaf: "rm", Quantum: dur(25 * time.Millisecond)},
			{Path: "/apps", Weight: 1, Leaf: "sfq", Quantum: dur(10 * time.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "control", Leaf: "/rt", Program: simconfig.ProgramConfig{Kind: "periodic", Period: dur(100 * time.Millisecond), Cost: dur(4 * time.Millisecond)}},
			{Name: "worker1", Leaf: "/apps", Weight: float64(1 + r.IntN(3)), Program: simconfig.ProgramConfig{Kind: "loop"}},
			{Name: "worker2", Leaf: "/apps", Weight: float64(1 + r.IntN(3)), Program: simconfig.ProgramConfig{Kind: "loop"}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "burst", Period: dur(250 * time.Millisecond), Count: 10, Service: dur(500 * time.Microsecond)},
			{Kind: "periodic", Period: dur(10 * time.Millisecond), Service: dur(100 * time.Microsecond)},
		},
	}
}

// wideTree is 8 SFQ leaves at depth 2 (two groups of four) with 8
// CPU-bound threads each and 1 ms quanta: one decision per simulated
// millisecond through a 64-thread hierarchy.
func wideTree(r *rand.Rand) simconfig.Config {
	c := simconfig.Config{RateMIPS: 100, Horizon: dur(60 * time.Second), Seed: simSeed(r)}
	for n := 0; n < 8; n++ {
		c.Nodes = append(c.Nodes, simconfig.NodeConfig{
			Path: fmt.Sprintf("/g%d/n%d", n/4, n), Weight: float64(1 + r.IntN(4)),
			Leaf: "sfq", Quantum: dur(time.Millisecond),
		})
		for t := 0; t < 8; t++ {
			c.Threads = append(c.Threads, simconfig.ThreadConfig{
				Name: fmt.Sprintf("t%d.%d", n, t), Leaf: c.Nodes[n].Path,
				Weight: float64(1 + r.IntN(4)), Program: simconfig.ProgramConfig{Kind: "loop"},
			})
		}
	}
	return c
}

// globalSMP is the video server on a 2-core machine under the global
// policy; the admin class moves to stride because global placement takes
// only dequeue-safe leaves.
func globalSMP(r *rand.Rand) simconfig.Config {
	c := videoServer(120*time.Second, simSeed(r))
	c.Cores = 2
	c.Policy = "global"
	c.Nodes[1].Leaf = "stride"
	c.Nodes[1].Quantum = dur(10 * time.Millisecond)
	return c
}

// engineShapes names the engine workload's four job shapes in cycle order.
var engineShapes = []string{"video", "storm", "wide", "global"}

// engineVariants is how many seeded variants of each shape the engine
// workload cycles through, so one run averages over several draws.
const engineVariants = 8

// engineInputs returns the engine workload's jobs as JSON configs, shape
// by shape: variant v of shape s is at index v*len(engineShapes)+s.
func engineInputs(seed uint64) [][]byte {
	r := newRand(seed, 1)
	var out [][]byte
	for v := 0; v < engineVariants; v++ {
		for _, shape := range engineShapes {
			var c simconfig.Config
			switch shape {
			case "video":
				c = videoServer(300*time.Second, simSeed(r))
			case "storm":
				c = interruptStorm(r)
			case "wide":
				c = wideTree(r)
			case "global":
				c = globalSMP(r)
			}
			out = append(out, mustJSON(c))
		}
	}
	return out
}

// sweepGrids is how many distinct grids the sweep workload cycles through.
const sweepGrids = 8

// sweepInputs returns seeded sweep specs shaped like
// examples/sweeps/mesh.json: an mpeg decoder and a hog under a Poisson
// interrupt load, swept over the decoder class's quantum and leaf and two
// horizons in [300 ms, 2 s] that sum to 2.3 s, at four seeds: 32 short
// jobs per grid, every grid simulating the same total time.
func sweepInputs(seed uint64) [][]byte {
	r := newRand(seed, 2)
	out := make([][]byte, 0, sweepGrids)
	for g := 0; g < sweepGrids; g++ {
		h1 := 300 + r.IntN(700) // ms
		h2 := 2300 - h1
		spec := map[string]any{
			"name":      fmt.Sprintf("bench-grid-%d", g),
			"seeds":     4,
			"base_seed": simSeed(r),
			"base": simconfig.Config{
				RateMIPS: 100,
				Horizon:  dur(300 * time.Millisecond),
				Nodes: []simconfig.NodeConfig{
					{Path: "/soft", Weight: 3, Leaf: "sfq", Quantum: dur(10 * time.Millisecond)},
					{Path: "/be", Weight: float64(1 + r.IntN(3)), Leaf: "svr4"},
				},
				Threads: []simconfig.ThreadConfig{
					{Name: "dec", Leaf: "/soft", Weight: 2, Program: simconfig.ProgramConfig{Kind: "mpeg", Loop: true}},
					{Name: "hog", Leaf: "/be", Program: simconfig.ProgramConfig{Kind: "loop"}},
				},
				Interrupts: []simconfig.InterruptConfig{
					{Kind: "poisson", RatePerSec: 100, Service: dur(200 * time.Microsecond)},
				},
			},
			"axes": []map[string]any{
				{"param": "quantum", "target": "/soft", "values": []string{"5ms", "20ms"}},
				{"param": "leaf", "target": "/soft", "values": []string{"sfq", "stride"}},
				{"param": "horizon", "values": []string{fmt.Sprintf("%dms", h1), fmt.Sprintf("%dms", h2)}},
			},
		}
		out = append(out, mustJSON(spec))
	}
	return out
}

// Request kinds of the serve workload's traffic mix.
const (
	reqFresh   = iota // a key never requested before: a miss
	reqLatest         // the most recent fresh key: coalesced or a hit
	reqEarlier        // an earlier fresh key: a hit
)

// request is one scheduled POST /v1/simulate of the serve workload.
type request struct {
	At     time.Duration `json:"at"` // due time from the start of the phase
	Kind   int           `json:"kind"`
	Tenant string        `json:"tenant"`
	Job    int           `json:"job"` // index into the fresh-job bodies
}

// serveSchedule is the serve workload's open-loop traffic: n requests.
type serveSchedule struct {
	Requests []request `json:"requests"`
	Bodies   [][]byte  `json:"bodies"` // one video-server config per fresh key
}

// serveInputs draws rate*seconds requests. Given their count, Poisson
// arrival times are independent uniform draws over the window, so the
// schedule sorts n uniform times: the count is exact and only the spacing
// varies with the seed. The mix is dealt from a shuffled deck with exact
// proportions — 50% fresh keys, 10% repeats of the latest fresh key, 40%
// repeats of an earlier one — and tenants gold and bronze each get half.
// Fresh keys are video-server configs at horizons dealt from
// 2/10/10/10/30 s.
func serveInputs(seed uint64, rate float64, seconds int) serveSchedule {
	r := newRand(seed, 3)
	n := int(rate * float64(seconds))
	window := time.Duration(seconds) * time.Second
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })

	kinds := deal(r, n, []int{reqFresh, reqFresh, reqFresh, reqFresh, reqFresh, reqLatest, reqEarlier, reqEarlier, reqEarlier, reqEarlier})
	tenants := deal(r, n, []int{0, 1})
	horizons := []time.Duration{2 * time.Second, 10 * time.Second, 10 * time.Second, 10 * time.Second, 30 * time.Second}

	var s serveSchedule
	var hdeck []int
	for i := 0; i < n; i++ {
		k := kinds[i]
		if len(s.Bodies) == 0 || (k == reqEarlier && len(s.Bodies) < 2) {
			k = reqFresh // nothing to repeat yet
		}
		rq := request{At: at[i], Kind: k, Tenant: []string{"gold", "bronze"}[tenants[i]]}
		switch k {
		case reqFresh:
			if len(hdeck) == 0 {
				hdeck = deal(r, len(horizons), []int{0, 1, 2, 3, 4})
			}
			h := horizons[hdeck[0]]
			hdeck = hdeck[1:]
			rq.Job = len(s.Bodies)
			s.Bodies = append(s.Bodies, mustJSON(videoServer(h, simSeed(r))))
		case reqLatest:
			rq.Job = len(s.Bodies) - 1
		case reqEarlier:
			rq.Job = r.IntN(len(s.Bodies) - 1)
		}
		s.Requests = append(s.Requests, rq)
	}
	return s
}

// deal returns n values dealt from repeated shuffles of deck, so each value
// appears in its exact proportion over every full deck.
func deal(r *rand.Rand, n int, deck []int) []int {
	out := make([]int, 0, n+len(deck))
	for len(out) < n {
		d := append([]int(nil), deck...)
		r.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		out = append(out, d...)
	}
	return out[:n]
}

// followInput returns the i-th job of the follow workload: a fresh 120 s
// video-server config.
func followInput(seed uint64, i int) []byte {
	r := newRand(seed, 4+uint64(i)<<8)
	return mustJSON(videoServer(120*time.Second, simSeed(r)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshaling generated input: %v", err)) // plain data; cannot fail
	}
	return b
}
