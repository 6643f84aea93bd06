package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hsfq/internal/checkpoint"
	"hsfq/internal/metrics"
	"hsfq/internal/simconfig"
)

// Options parameterize a sweep run.
type Options struct {
	// Workers bounds the pool of goroutines executing jobs; <= 0 means 1.
	Workers int
	// Verify runs every job twice and reports a job error on any digest
	// mismatch, turning determinism into a checked property.
	Verify bool
	// Stream, when non-nil, receives one JSON line per job result, in job
	// order, as results become available. The bytes are identical for any
	// worker count. The worker that finished a job writes, so a Stream
	// that blocks holds every worker that finishes a job meanwhile.
	Stream io.Writer
	// CheckpointDir, when non-empty, names a checkpoint Store: jobs
	// resume from stored prefixes of their runs when possible (horizon
	// extension) and store their own final state for future sweeps. The
	// streamed and reported results are byte-identical with or without a
	// store; only wall-clock time and Report.Resumed change.
	CheckpointDir string
}

// JobResult is the outcome of one job.
type JobResult struct {
	ID      int                `json:"id"`
	Point   map[string]string  `json:"point"`
	Rep     int                `json:"rep"`
	Seed    uint64             `json:"seed"`
	Digest  string             `json:"digest,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
	// Mismatch marks a Verify failure: the job ran twice and produced two
	// different digests, a determinism violation (as opposed to an
	// execution error).
	Mismatch bool `json:"mismatch,omitempty"`
}

// Aggregate summarizes one grid point's metrics across its seed
// replications.
type Aggregate struct {
	Point   map[string]string          `json:"point"`
	Seeds   int                        `json:"seeds"`
	Metrics map[string]metrics.Summary `json:"metrics"`
}

// Report is the outcome of a whole sweep.
type Report struct {
	Name    string `json:"name"`
	Jobs    int    `json:"jobs"`
	Workers int    `json:"workers"`
	Failed  int    `json:"failed"`
	// Mismatched counts the failures that were Verify digest mismatches;
	// callers (hsfqsweep) report these distinctly, because they impeach
	// the simulator rather than the scenario.
	Mismatched int `json:"mismatched,omitempty"`
	// Resumed counts the jobs that continued from a stored checkpoint
	// instead of simulating from tick zero. It lives on the report, not
	// on JobResult, so per-job JSONL stays byte-identical with and
	// without a checkpoint store.
	Resumed    int         `json:"resumed,omitempty"`
	Results    []JobResult `json:"results"`
	Aggregates []Aggregate `json:"aggregates"`
}

// Sink consumes job results. Orderer delivers them in dense job-ID order,
// so a Sink never needs to reorder; WriterSink is the JSONL implementation
// every tool shares.
type Sink interface {
	Emit(JobResult) error
}

// WriterSink streams one canonical JSON line per result. Marshaling is
// deterministic (struct field order; map keys sort), so the bytes written
// for a given result list are identical no matter who computed the
// results — the property the sweep engine's worker-count invariance and
// the dispatcher's remote/local equivalence both rest on.
type WriterSink struct{ W io.Writer }

// Emit implements Sink.
func (s WriterSink) Emit(r JobResult) error {
	b, err := jsonLine(r)
	if err != nil {
		return err
	}
	_, err = s.W.Write(b)
	return err
}

// jsonLine marshals r as one JSONL line. Maps marshal with sorted keys,
// so the line is deterministic.
func jsonLine(r JobResult) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// encodedSink writes the line Run's worker encoded for a result before it
// took Run's lock. A result with no line, whose encoding failed, is
// encoded again, so the Orderer meets its error in job order.
type encodedSink struct {
	w     io.Writer
	lines [][]byte
}

// Emit implements Sink.
func (s encodedSink) Emit(r JobResult) error {
	b := s.lines[r.ID]
	if b == nil {
		return WriterSink{s.w}.Emit(r)
	}
	s.lines[r.ID] = nil
	_, err := s.w.Write(b)
	return err
}

// Orderer releases results to a sink in dense job-ID order regardless of
// completion order: result i is held until every result below i has been
// emitted. It also retains all results for report assembly. Not safe for
// concurrent use; callers serialize Done (Run's workers and the
// dispatcher each call it under their own lock).
type Orderer struct {
	sink    Sink // may be nil: order/collect only
	results []JobResult
	ready   []bool
	next    int
	err     error // first sink error; later emissions are dropped
}

// NewOrderer prepares an orderer for jobs with IDs in [0, n).
func NewOrderer(n int, sink Sink) *Orderer {
	return &Orderer{sink: sink, results: make([]JobResult, n), ready: make([]bool, n)}
}

// Done records one completed result and flushes the contiguous prefix of
// completed results to the sink.
func (o *Orderer) Done(r JobResult) {
	if r.ID < 0 || r.ID >= len(o.results) || o.ready[r.ID] {
		panic(fmt.Sprintf("sweep: Orderer.Done of bad or duplicate job ID %d", r.ID))
	}
	o.results[r.ID] = r
	o.ready[r.ID] = true
	for o.next < len(o.results) && o.ready[o.next] {
		if o.sink != nil && o.err == nil {
			o.err = o.sink.Emit(o.results[o.next])
		}
		o.next++
	}
}

// Results returns the result slice, valid once every job is Done.
func (o *Orderer) Results() []JobResult { return o.results }

// Err returns the first sink error, if any.
func (o *Orderer) Err() error { return o.err }

// NewReport assembles a Report from per-job results: failure and mismatch
// counts plus per-point aggregates. Shared by the in-process engine and
// the distributed dispatcher, so both report identically.
func NewReport(name string, workers int, results []JobResult) *Report {
	rep := &Report{Name: name, Jobs: len(results), Workers: workers, Results: results}
	for _, r := range results {
		if r.Error != "" {
			rep.Failed++
		}
		if r.Mismatch {
			rep.Mismatched++
		}
	}
	rep.Aggregates = aggregate(results)
	return rep
}

// Run expands the spec and executes every job across the worker pool.
// The returned report lists results in job order; the error is non-nil if
// any job failed to build, run, or verify.
func Run(spec Spec, opt Options) (*Report, error) {
	jobs, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	workers := min(max(opt.Workers, 1), len(jobs))

	var store *Store
	if opt.CheckpointDir != "" {
		store, err = NewStore(opt.CheckpointDir)
		if err != nil {
			return nil, err
		}
	}

	// The worker that finished a job encodes its line outside the lock.
	// Under the lock, the Orderer records the result and writes every
	// line that is now next in job order. No goroutine but the workers
	// runs. Encoding under the lock instead cost the bench/ sweep
	// workload 6% of its jobs_per_s (9 of 10 pairs on 2 vCPUs).
	var (
		sink  Sink
		lines [][]byte
		mu    sync.Mutex
	)
	if opt.Stream != nil {
		lines = make([][]byte, len(jobs))
		sink = encodedSink{opt.Stream, lines}
	}
	ord := NewOrderer(len(jobs), sink)
	resumed := 0
	ForEach(len(jobs), workers, func(i int) {
		o := runJob(jobs[i], opt.Verify, store)
		if lines != nil {
			lines[i], _ = jsonLine(o.r)
		}
		mu.Lock()
		defer mu.Unlock()
		if o.resumed {
			resumed++
		}
		ord.Done(o.r)
	})
	if err := ord.Err(); err != nil {
		return nil, fmt.Errorf("sweep: streaming results: %w", err)
	}
	results := ord.Results()

	rep := NewReport(spec.Name, workers, results)
	rep.Resumed = resumed
	if rep.Failed > 0 {
		return rep, fmt.Errorf("sweep: %d of %d job(s) failed (first: %s)", rep.Failed, len(jobs), FirstError(results))
	}
	return rep, nil
}

// ForEach calls fn(i) for every i in [0, n), each exactly once, on
// min(workers, n) goroutines (workers <= 0 means 1), the calling one
// among them, and returns when every call has returned. Workers claim
// indices in increasing order from one counter; at one worker every call
// runs on the caller, in index order. It is the one worker pool behind
// sweeps, hsfqd batch claims and the experiments suite; fn must be safe
// to call concurrently.
//
// The pool has no goroutine besides its workers. On 2 vCPUs, this
// counter in place of a feeder goroutine that handed out indices over a
// channel, with Run still marshaling results on a collector goroutine,
// left the bench/ sweep workload's jobs_per_s where it was (+2%) and
// raised its op_p90_ms by 13% (4 of 4 pairs): the collector was a third
// runnable goroutine on two CPUs. With Run's workers encoding and writing
// their own lines, and each job allocating less, jobs_per_s rose 29% and
// op_p90_ms fell 18% (10 of 10 pairs).
func ForEach(n, workers int, fn func(i int)) {
	var claimed atomic.Int64
	work := func() {
		for i := int(claimed.Add(1)) - 1; i < n; i = int(claimed.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// FirstError returns the first failed result's error, or "" if none
// failed.
func FirstError(results []JobResult) string {
	for _, r := range results {
		if r.Error != "" {
			return r.Error
		}
	}
	return ""
}

// WriteSummary prints the report's per-point aggregate table for the
// named metrics under a header naming the sweep and where it ran (for
// example "on 4 worker(s)"). Names not among a point's metrics are
// skipped.
func WriteSummary(w io.Writer, rep *Report, where string, names []string) {
	fmt.Fprintf(w, "sweep %q: %d job(s) %s, %d grid point(s)\n",
		rep.Name, rep.Jobs, where, len(rep.Aggregates))
	tbl := metrics.NewTable("point", "seeds", "metric", "mean", "p50", "p99", "min", "max")
	for _, agg := range rep.Aggregates {
		for _, name := range names {
			name = strings.TrimSpace(name)
			s, ok := agg.Metrics[name]
			if !ok {
				continue
			}
			tbl.AddRow(pointLabel(agg.Point), agg.Seeds, name, s.Mean, s.P50, s.P99, s.Min, s.Max)
		}
	}
	fmt.Fprint(w, tbl.String())
}

// pointLabel renders a grid point compactly: "leaf@/soft=sfq quantum@/soft=5ms".
func pointLabel(point map[string]string) string {
	if len(point) == 0 {
		return "(base)"
	}
	keys := make([]string, 0, len(point))
	for k := range point {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + point[k]
	}
	return strings.Join(parts, " ")
}

// RunJob executes one job in-process (twice under verify) with nothing
// shared: the build constructs private engine, machine, structure, and
// thread state. It is the local execution authority: the dispatcher's
// local backend and its remote-result verification call it.
func RunJob(job Job, verify bool) JobResult { return runJob(job, verify, nil).r }

// outcome is one executed job's result and whether it resumed from a
// stored checkpoint.
type outcome struct {
	r       JobResult
	resumed bool
}

// runJob is RunJob with an optional checkpoint store. Under verify, the
// rerun is always executed from tick zero without the store, so for a
// resumed job the comparison checks resume equivalence end-to-end —
// restored-and-continued against from-scratch — not merely that two
// executions agree.
func runJob(job Job, verify bool, store *Store) outcome {
	res := JobResult{ID: job.ID, Point: job.Point, Rep: job.Rep, Seed: job.Seed}
	digest, m, resumed, err := execute(job.Config, job.Seed, store, nil)
	if err != nil {
		res.Error = err.Error()
		return outcome{r: res}
	}
	res.Digest, res.Metrics = digest, m
	if verify {
		again, _, _, err := execute(job.Config, job.Seed, nil, nil)
		if err != nil {
			res.Error = fmt.Sprintf("verify rerun: %v", err)
		} else if again != digest {
			res.Error = fmt.Sprintf("nondeterministic: digest %s then %s", digest, again)
			res.Mismatch = true
		}
	}
	return outcome{res, resumed}
}

// execute is a seam over Execute so tests can inject nondeterminism and
// execution failures into runJob.
var execute = Execute

// Execute runs one job and is the only code that does: it builds the
// config at the given seed (0 keeps the config's own), runs it to
// c.RunHorizon(), and returns the outcome digest plus the scalar metrics.
// Everything it constructs is private to the call, so concurrent
// executions cannot perturb each other.
//
// With a store, Execute resumes from the latest stored prefix of the run
// when one exists (horizon extension), reporting resumed, and stores the
// run's own final state for later runs. Results are byte-identical with
// or without a store: that is resume equivalence, and the sweep Verify
// mode re-checks it per job against a from-scratch rerun.
//
// attach, when non-nil, runs after the build and before the first event:
// the hook where a caller wires listeners (Machine.Listen) and reads
// thread metadata. A listened run never resumes, because a listener must
// observe the event stream from tick zero; determinism makes that sound
// rather than wasteful, since the stream of a job is the same whichever
// path produced it. It still stores its final state.
func Execute(c simconfig.Config, seed uint64, store *Store, attach func(*simconfig.Simulation)) (string, map[string]float64, bool, error) {
	horizon := c.RunHorizon()
	var prefix string
	var s *simconfig.Simulation
	if store != nil {
		prefix = PrefixKey(c, seed)
	}
	if store != nil && attach == nil {
		if data, _, ok := store.Best(prefix, horizon); ok {
			// A corrupt or version-skewed checkpoint falls through to a
			// full build: the store is a cache, never an authority.
			if restored, err := checkpoint.Restore(data, checkpoint.Options{}); err == nil {
				s = restored
			}
		}
	}
	resumed := s != nil
	if !resumed {
		var err error
		if s, err = simconfig.Build(c, simconfig.BuildOptions{Seed: seed}); err != nil {
			return "", nil, false, err
		}
	}
	if attach != nil {
		attach(s)
	}
	// A restored simulation carries the horizon it was checkpointed
	// under; this run's governs. Nothing the build constructs depends on
	// the horizon: only Run and the end-of-run metrics read it.
	s.Config.Horizon = simconfig.Duration(horizon)
	s.Machine.Run(horizon)
	if store != nil {
		// Snapshot before Flush: Flush charges the in-flight segment,
		// which only settles accounting for reporting, and a resumed run
		// must continue from the state the event loop left.
		if data, err := checkpoint.Save(s, checkpoint.Options{}); err == nil {
			store.Put(prefix, horizon, data) // best-effort: see Put
		}
	}
	s.Machine.Flush()
	return Digest(s), Metrics(s), resumed, nil
}

// ExecuteConfig is Execute with no store and no listener.
func ExecuteConfig(c simconfig.Config, seed uint64) (string, map[string]float64, error) {
	return withoutResumed(Execute(c, seed, nil, nil))
}

// ExecuteConfigListened is Execute without the resumed flag, for callers
// that attach listeners.
func ExecuteConfigListened(c simconfig.Config, seed uint64, store *Store, attach func(*simconfig.Simulation)) (string, map[string]float64, error) {
	return withoutResumed(Execute(c, seed, store, attach))
}

func withoutResumed(digest string, m map[string]float64, _ bool, err error) (string, map[string]float64, error) {
	return digest, m, err
}

// aggregate groups successful results by grid point (in first-seen job
// order) and summarizes every metric across the point's replications.
func aggregate(results []JobResult) []Aggregate {
	type group struct {
		point  map[string]string
		series map[string][]float64
		seeds  int
	}
	var (
		order []*group
		byKey = map[string]*group{}
		key   []byte
		keys  []string
	)
	for _, r := range results {
		if r.Error != "" {
			continue
		}
		key, keys = appendPointKey(key[:0], keys, r.Point)
		g := byKey[string(key)]
		if g == nil {
			g = &group{point: r.Point, series: map[string][]float64{}}
			byKey[string(key)] = g
			order = append(order, g)
		}
		g.seeds++
		for name, v := range r.Metrics {
			g.series[name] = append(g.series[name], v)
		}
	}
	aggs := make([]Aggregate, 0, len(order))
	for _, g := range order {
		m := make(map[string]metrics.Summary, len(g.series))
		for name, vs := range g.series {
			m[name] = metrics.Summarize(vs)
		}
		aggs = append(aggs, Aggregate{Point: g.point, Seeds: g.seeds, Metrics: m})
	}
	return aggs
}

// appendPointKey appends point's grouping key, "k=v;" per entry in key
// order, to b. keys is scratch for the sort, returned for reuse.
func appendPointKey(b []byte, keys []string, point map[string]string) ([]byte, []string) {
	keys = keys[:0]
	for k := range point {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(append(append(append(b, k...), '='), point[k]...), ';')
	}
	return b, keys
}
