// Command bench is the repository's end-to-end benchmark. It runs the
// simulator in one process through the same public calls the tools make —
// simconfig, the machine, sweep, the serving daemon's handler, live trace
// streaming — on inputs drawn from a seed, times them, and checks the
// outputs. No sockets are opened and no daemon is spawned.
//
//	go run . -workload engine -seed 1            # one workload
//	go run . -seed 1                             # all four
//	go run . -workload serve -seed 1 -trace 1    # per-layer metrics + spans
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics, traced runs the per-layer ones. README.md describes the
// workloads, the metrics and how to compare two commits.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// defaultSeconds is the length of one workload's measured phase.
const defaultSeconds = 25

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 9

// runCtx carries one workload run's parameters and collects its results.
type runCtx struct {
	seed    uint64
	seconds int
	spans   *spanLog // nil unless traced

	e2e  *metricSet // end-to-end metrics
	diag *metricSet // workload-specific numbers printed but not gated

	attempted, failed int
	failures          []string

	// ops are the workload's completed units of work, from which the runner
	// derives the throughput and latency metrics.
	ops []op
	// openLoop marks a workload sent on a schedule: its rates are the
	// offered load over phase.
	openLoop bool
	phase    time.Duration

	// ref times reference chunks between operations.
	ref *refLoop

	// outputs folds the program's outputs in input order; two runs with
	// the same seed print the same outputs_digest.
	outputs  hash.Hash
	nOutputs int

	// replay lists distinct job inputs the run executed, for the traced
	// per-layer pass.
	replay []replayItem
}

// op is one completed unit of a workload's work: an engine round, a sweep
// grid, a served miss, a followed job.
type op struct {
	start time.Time
	dur   time.Duration
	jobs  int   // fresh simulation jobs it completed
	simNs int64 // simulated time those jobs covered
}

func (rc *runCtx) addOp(start time.Time, dur time.Duration, jobs int, simNs int64) {
	rc.ops = append(rc.ops, op{start, dur, jobs, simNs})
}

// replayItem is one job input: a JSON config and the seed to build it at
// (0 keeps the config's own).
type replayItem struct {
	body []byte
	seed uint64
}

func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	if len(rc.failures) < 5 {
		rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) output(s string) {
	rc.outputs.Write([]byte(s))
	rc.outputs.Write([]byte{'\n'})
	rc.nOutputs++
}

// measurer is a set-up workload, ready for its measured phase.
type measurer interface {
	// measure runs the phase for rc.seconds, checks the outputs, and fills
	// rc's metrics, counts and replay list.
	measure(rc *runCtx)
	// close releases what set-up built (servers, goroutines).
	close()
}

// workload is one traffic mix.
type workload struct {
	name  string
	setup func(rc *runCtx) (measurer, error)
}

var workloads = []workload{
	{"engine", setupEngine},
	{"sweep", setupSweep},
	{"serve", setupServe},
	{"follow", setupFollow},
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: engine, sweep, serve or follow (empty runs all four)")
		seed    = flag.Uint64("seed", 1, "seed every generated input is drawn from")
		seconds = flag.Int("seconds", defaultSeconds, "length of each workload's measured phase")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		outDir  = flag.String("out", ".", "directory for span files of traced runs")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traced == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed uint64, seconds int, traced bool, outDir string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	var selected []workload
	for _, wl := range workloads {
		if name == "" || wl.name == name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(w, "# hsfq bench seed=%d seconds=%d traced=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res := result{Metrics: map[string]metric{}}
	for _, wl := range selected {
		rc, layers, err := runWorkload(w, wl, seed, seconds, traced, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.Attempted += rc.attempted
		res.Failed += rc.failed
		reported := rc.e2e
		if traced {
			reported = layers
		}
		for _, n := range reported.order {
			key := n
			if len(selected) > 1 {
				key = wl.name + "." + n
			}
			res.Metrics[key] = reported.m[n]
		}
	}
	res.Correct = res.Failed == 0
	res.Attempted = max(res.Attempted, 1)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// runWorkload sets a workload up setupReps times, measures it once, and
// prints its metrics. For a traced run it then runs the per-layer pass and
// writes the spans.
func runWorkload(w io.Writer, wl workload, seed uint64, seconds int, traced bool, outDir string) (*runCtx, *metricSet, error) {
	rc := &runCtx{seed: seed, seconds: seconds, e2e: newMetricSet(), diag: newMetricSet(), outputs: sha256.New(), ref: newRefLoop()}
	if traced {
		rc.spans = newSpanLog()
	}
	rc.ref.run(refEdgeChunks)
	var setups, rawSetups []float64
	var m measurer
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.close()
		}
		// Each repetition starts from a collected heap and is scaled by the
		// reference chunks timed just before it.
		runtime.GC()
		rc.ref.run(8)
		t0 := time.Now()
		var err error
		if m, err = wl.setup(rc); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d/rc.ref.slowdownAt(t0))
	}
	defer m.close()
	runtime.GC()

	heap := startHeapSampler()
	m.measure(rc)
	heapMiB := heap.finish()
	rc.ref.run(refEdgeChunks)

	slow := rc.ref.slowdown()
	rc.diag.set("ref.slowdown", slow, "ratio", len(rc.ref.samples))
	rc.diag.set("raw.setup_s", median(rawSetups), "s", len(setups))
	rc.e2e.set("setup_s", median(setups), "s", len(setups))
	opMetrics(rc)
	// The p95 rather than the maximum: a single collection that lands while
	// several jobs are in flight would otherwise set the number.
	rc.e2e.setQ("live_heap_p95_mb", heapMiB, 0.95, "MiB")
	rc.diag.set("peak_live_heap_mb", slices.Max(heapMiB), "MiB", len(heapMiB))

	label := "e2e"
	if traced {
		label = "traced-e2e" // timings with span recording on: compare with an untraced run for the overhead
	}
	fmt.Fprintf(w, "## workload %s\n", wl.name)
	rc.e2e.print(w, fmt.Sprintf("%s %s ", label, wl.name))
	rc.diag.print(w, fmt.Sprintf("diag %s ", wl.name))
	fmt.Fprintf(w, "check %s attempted=%d failed=%d error_ratio=%g\n", wl.name, rc.attempted, rc.failed, float64(rc.failed)/float64(max(rc.attempted, 1)))
	for _, f := range rc.failures {
		fmt.Fprintf(w, "check %s FAILED: %s\n", wl.name, f)
	}
	fmt.Fprintf(w, "outputs_digest %s %x over %d outputs\n", wl.name, rc.outputs.Sum(nil), rc.nOutputs)

	if !traced {
		return rc, nil, nil
	}
	raw := layerPass(rc)
	rc.ref.run(refEdgeChunks)
	slow = rc.ref.slowdown()
	layers := scaleToReference(raw, slow)
	layers.print(w, fmt.Sprintf("layer %s ", wl.name))
	raw.print(w, fmt.Sprintf("raw-layer %s ", wl.name))
	fmt.Fprintf(w, "raw-layer %s ref.slowdown %g n=%d\n", wl.name, slow, len(rc.ref.samples))
	for _, s := range rc.spans.summarize() {
		fmt.Fprintf(w, "span %s %-28s n=%-7d total_ms=%-12.3f self_ms=%.3f\n", wl.name, s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, seed))
	if err := writeSpans(path, rc.spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "spans %s written to %s\n", wl.name, path)
	return rc, layers, nil
}

// refEdgeChunks is how many reference chunks a run times before set-up and
// after its measured phase, on top of those interleaved with operations.
const refEdgeChunks = 40

// opMetrics derives the throughput and latency metrics from rc.ops. Each op
// is scaled to the calibration machine's speed by the reference chunks
// timed around it. A closed loop's rates are per second of scaled op time;
// an open loop's are the offered load, over the phase as measured. The
// measured values go to rc.diag as raw.*.
func opMetrics(rc *runCtx) {
	var lat, rawLat []float64
	var busy, rawBusy float64 // ns
	var jobs int
	var simNs int64
	for _, o := range rc.ops {
		d := float64(o.dur)
		rawLat = append(rawLat, d/1e6)
		rawBusy += d
		d /= rc.ref.slowdownAt(o.start.Add(o.dur / 2))
		lat = append(lat, d/1e6)
		busy += d
		jobs += o.jobs
		simNs += o.simNs
	}
	set := func(s *metricSet, prefix string, lat []float64, wall float64) {
		wall = max(wall, 1) // no completed op: report zero rates, not NaN
		s.set(prefix+"sim_ns_per_wall_ns", float64(simNs)/wall, "ratio", jobs)
		s.set(prefix+"jobs_per_s", float64(jobs)/(wall/1e9), "1/s", jobs)
		s.setQ(prefix+"op_p50_ms", lat, 0.5, "ms")
		s.setQ(prefix+"op_p90_ms", lat, 0.9, "ms")
	}
	if rc.openLoop {
		busy, rawBusy = float64(rc.phase), float64(rc.phase)
	}
	set(rc.e2e, "", lat, busy)
	set(rc.diag, "raw.", rawLat, rawBusy)
}

// scaleToReference returns s with every duration scaled by 1/slow, to the
// calibration machine's speed (see refLoop).
func scaleToReference(s *metricSet, slow float64) *metricSet {
	out := newMetricSet()
	for _, name := range s.order {
		m := s.m[name]
		switch m.Unit {
		case "s", "ms", "us", "ns":
			m.Value /= slow
		}
		out.put(name, m)
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, l *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
