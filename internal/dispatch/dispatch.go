// Package dispatch shards a sweep's job grid across hsfqd backends and
// merges the results back into the exact byte stream a serial local run
// would have produced.
//
// The design leans entirely on two properties the rest of the repository
// already guarantees: every job's content address (sweep.JobKey) is
// computable before execution, and execution is deterministic, so a
// remote result is verifiable after the fact by re-running the job
// locally and comparing outcome digests. That makes remote execution
// trustless: a backend that returns a wrong answer — bit rot, a corrupted
// cache, a diverging build — is detected by digest mismatch, quarantined
// for the rest of the run, and overruled by the local authority.
//
// Scheduling is failure-first: each backend has a bounded in-flight
// window of claims; a claim that errors or times out marks the backend
// down (health-probed until it recovers) and requeues its jobs with
// exponential backoff, preferring a different backend; jobs that exhaust
// their remote retries, and all jobs when no remote is usable, fall back
// to the in-process local backend. Optional tail hedging re-dispatches a
// straggling job to a second backend and takes whichever result lands
// first — safe precisely because both must be byte-identical.
package dispatch

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hsfq/internal/metrics"
	"hsfq/internal/sweep"
)

const (
	// localWindow bounds concurrent claims on the local fallback backend.
	localWindow = 2
	// verifySeed seeds the verification sampler. Sampling affects only
	// how much is verified, never the output bytes.
	verifySeed = 1
)

// Per-backend counter names, in reporting order.
const (
	cDispatched  = "dispatched"
	cOK          = "ok"
	cClaimErrors = "claim_errors"
	cJobErrors   = "job_errors"
	cRetried     = "retried"
	cHedged      = "hedged"
	cVerified    = "verified"
	cVerifyErr   = "verify_errors"
	cMismatches  = "mismatches"
	cQuarantined = "quarantined"
	cDiscarded   = "discarded"
)

func newCounters() *metrics.CounterSet {
	return metrics.NewCounterSet(cDispatched, cOK, cClaimErrors, cJobErrors,
		cRetried, cHedged, cVerified, cVerifyErr, cMismatches, cQuarantined, cDiscarded)
}

// Options parameterize a distributed run.
type Options struct {
	// Window bounds concurrent claims per remote backend; <= 0 means 4.
	Window int
	// Batch is the number of jobs per claim; <= 0 means 1.
	Batch int
	// Timeout is the per-job attempt deadline (a claim of k jobs gets
	// k*Timeout); <= 0 means 30 s.
	Timeout time.Duration
	// Retries is how many failed remote attempts a job tolerates before
	// it becomes local-only; <= 0 means 3.
	Retries int
	// Backoff is the base of the per-job exponential backoff between
	// attempts; <= 0 means 50 ms. Capped at MaxBackoff (<= 0 means 2 s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// HedgeAfter re-dispatches a job still in flight after this long to a
	// different backend, first result wins; 0 disables hedging.
	HedgeAfter time.Duration
	// VerifyFraction in (0,1] re-executes that fraction of remote results
	// locally and compares outcome digests. A mismatch quarantines the
	// backend, substitutes the local result, and is reported in
	// Result.Mismatches. 1 makes every remote result verified.
	VerifyFraction float64
	// ProbeInterval is the health-probe cadence for down backends;
	// <= 0 means 250 ms.
	ProbeInterval time.Duration
	// Logf, when non-nil, receives operational events (backend down,
	// recovered, quarantined).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator shards jobs across Remotes with Local as fallback and
// verification authority.
type Coordinator struct {
	Remotes []Backend
	Local   Backend // required; Local{} in production
	Opt     Options
}

// BackendStats reports one backend's counters after a run.
type BackendStats struct {
	Name     string           `json:"name"`
	Local    bool             `json:"local,omitempty"`
	Counters map[string]int64 `json:"counters"`
	// Line is the counters rendered in stable order for operator output.
	Line string `json:"-"`
}

// Result is the outcome of a distributed run.
type Result struct {
	// Results lists every job's accepted result in job-ID order; the
	// bytes a WriterSink emitted for them are identical to a serial
	// local run's.
	Results  []sweep.JobResult
	Backends []BackendStats
	// Mismatches counts digest-verification failures: a nonzero value
	// means some backend returned a wrong answer for a deterministic
	// computation and was quarantined; callers must report it and exit
	// nonzero even though the output bytes were repaired locally.
	Mismatches int
}

type backendState struct {
	b           Backend
	local       bool
	counters    *metrics.CounterSet
	down        bool
	quarantined bool
}

type jobState struct {
	job         sweep.Job
	done        bool
	verifying   bool // local verification in progress; no new dispatches
	localOnly   bool
	remoteFails int
	lastBackend string
	notBefore   time.Time
	inflight    int
	runningOn   string // backend of the first outstanding attempt
	firstStart  time.Time
	hedged      bool

	acceptedFrom   string
	acceptedDigest string
	acceptedError  string
}

type run struct {
	mu     sync.Mutex
	cond   *sync.Cond
	opt    Options
	ctx    context.Context
	cancel context.CancelFunc

	backends []*backendState // remotes in order, then local
	byName   map[string]*backendState
	localB   *backendState

	jobs       []*jobState
	remaining  int
	ord        *sweep.Orderer
	mismatches int
	rng        *rand.Rand // verification sampler; guarded by mu
}

// Run dispatches every job and returns once all results are accepted and
// emitted (in job-ID order) to sink. The error is non-nil only for a
// cancelled context or a failing sink; job-level failures and detected
// corruption ride in the Result.
func (c *Coordinator) Run(ctx context.Context, jobs []sweep.Job, sink sweep.Sink) (*Result, error) {
	opt := c.Opt.withDefaults()
	if c.Local == nil {
		return nil, fmt.Errorf("dispatch: coordinator needs a local backend")
	}
	for i, j := range jobs {
		if j.ID != i {
			return nil, fmt.Errorf("dispatch: job %d has ID %d (want dense IDs in expansion order)", i, j.ID)
		}
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &run{
		opt: opt, ctx: rctx, cancel: cancel,
		byName: map[string]*backendState{},
		ord:    sweep.NewOrderer(len(jobs), sink),
		rng:    rand.New(rand.NewSource(verifySeed)),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, b := range c.Remotes {
		bs := &backendState{b: b, counters: newCounters()}
		r.backends = append(r.backends, bs)
		r.byName[b.Name()] = bs
	}
	r.localB = &backendState{b: c.Local, local: true, counters: newCounters()}
	r.backends = append(r.backends, r.localB)
	r.byName[c.Local.Name()] = r.localB
	r.jobs = make([]*jobState, len(jobs))
	for i, j := range jobs {
		r.jobs[i] = &jobState{job: j}
	}
	r.remaining = len(jobs)

	var wg sync.WaitGroup
	// The ticker turns time-based eligibility (backoff expiry, hedge
	// deadlines) into cond wakeups, so workers need no per-job timers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-t.C:
				r.cond.Broadcast()
			}
		}
	}()
	for _, bs := range r.backends {
		if !bs.local {
			wg.Add(1)
			go func(bs *backendState) { defer wg.Done(); r.probe(bs) }(bs)
		}
		n := opt.Window
		if bs.local {
			n = localWindow
		}
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(bs *backendState) { defer wg.Done(); r.worker(bs) }(bs)
		}
	}

	r.mu.Lock()
	for r.remaining > 0 && rctx.Err() == nil {
		r.cond.Wait()
	}
	r.mu.Unlock()
	cancel()
	r.cond.Broadcast()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dispatch: interrupted: %w", err)
	}
	if err := r.ord.Err(); err != nil {
		return nil, fmt.Errorf("dispatch: streaming results: %w", err)
	}
	res := &Result{Results: r.ord.Results(), Mismatches: r.mismatches}
	for _, bs := range r.backends {
		res.Backends = append(res.Backends, BackendStats{
			Name:     bs.b.Name(),
			Local:    bs.local,
			Counters: bs.counters.Snapshot(),
			Line:     bs.counters.String(),
		})
	}
	return res, nil
}

// worker is one claim slot of one backend: claim, execute, complete.
func (r *run) worker(bs *backendState) {
	for {
		claim := r.claim(bs)
		if len(claim) == 0 {
			return
		}
		jobs := make([]sweep.Job, len(claim))
		for i, js := range claim {
			jobs[i] = js.job
		}
		ctx, cancel := context.WithTimeout(r.ctx, r.opt.Timeout*time.Duration(len(claim)))
		results, err := bs.b.Run(ctx, jobs)
		cancel()
		if err == nil && len(results) != len(jobs) {
			err = fmt.Errorf("dispatch: %s: %d results for %d jobs", bs.b.Name(), len(results), len(jobs))
		}
		r.complete(bs, claim, results, err)
	}
}

// claim blocks until it can hand bs a batch of eligible jobs, or returns
// nil when the run is over (or bs is quarantined).
func (r *run) claim(bs *backendState) []*jobState {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.remaining == 0 || r.ctx.Err() != nil || bs.quarantined {
			return nil
		}
		if !bs.down {
			if claim := r.eligible(bs); len(claim) > 0 {
				now := time.Now()
				for _, js := range claim {
					js.inflight++
					js.lastBackend = bs.b.Name()
					if js.inflight == 1 {
						js.firstStart = now
						js.runningOn = bs.b.Name()
					} else {
						js.hedged = true
						bs.counters.Inc(cHedged)
					}
					bs.counters.Inc(cDispatched)
				}
				return claim
			}
		}
		r.cond.Wait()
	}
}

// eligible gathers up to Batch jobs bs may run. The first pass prefers
// jobs whose last attempt was on a different backend (retry-on-another-
// backend); when that yields nothing, the second pass allows repeats so a
// lone surviving backend still drains the grid. Caller holds r.mu.
func (r *run) eligible(bs *backendState) []*jobState {
	now := time.Now()
	var claim []*jobState
	for pass := 0; pass < 2 && len(claim) == 0; pass++ {
		for _, js := range r.jobs {
			if !r.jobEligible(js, bs, now, pass == 0) {
				continue
			}
			claim = append(claim, js)
			if len(claim) == r.opt.Batch {
				break
			}
		}
	}
	return claim
}

func (r *run) jobEligible(js *jobState, bs *backendState, now time.Time, strict bool) bool {
	if js.done || js.verifying || js.notBefore.After(now) {
		return false
	}
	if js.inflight > 0 {
		// Only a hedge double-dispatches: hedging on, one straggling
		// attempt past the hedge deadline, and a different backend.
		return r.opt.HedgeAfter > 0 && !js.hedged && js.inflight == 1 &&
			js.runningOn != bs.b.Name() && now.Sub(js.firstStart) >= r.opt.HedgeAfter
	}
	if bs.local {
		// The local authority is a fallback: it takes jobs the remotes
		// gave up on, and everything once no remote is usable.
		return js.localOnly || !r.usableRemotes()
	}
	if js.localOnly {
		return false
	}
	if strict && js.lastBackend == bs.b.Name() && r.usableOtherRemote(bs) {
		return false
	}
	return true
}

// usableRemotes reports whether any remote backend can take claims.
// Caller holds r.mu.
func (r *run) usableRemotes() bool {
	for _, bs := range r.backends {
		if !bs.local && !bs.down && !bs.quarantined {
			return true
		}
	}
	return false
}

func (r *run) usableOtherRemote(not *backendState) bool {
	for _, bs := range r.backends {
		if bs != not && !bs.local && !bs.down && !bs.quarantined {
			return true
		}
	}
	return false
}

// complete settles one executed claim.
func (r *run) complete(bs *backendState, claim []*jobState, results []sweep.JobResult, err error) {
	if err != nil {
		now := time.Now()
		r.mu.Lock()
		bs.counters.Inc(cClaimErrors)
		if !bs.local && !bs.down && r.ctx.Err() == nil {
			bs.down = true
			r.opt.Logf("dispatch: backend %s down, probing /readyz: %v", bs.b.Name(), err)
		}
		for _, js := range claim {
			js.inflight--
			if js.done {
				continue
			}
			if !bs.local {
				js.remoteFails++
				if js.remoteFails >= r.opt.Retries {
					js.localOnly = true
				}
			}
			js.notBefore = now.Add(r.backoff(js.remoteFails))
			bs.counters.Inc(cRetried)
		}
		r.mu.Unlock()
		r.cond.Broadcast()
		return
	}
	for i, js := range claim {
		r.finish(bs, js, results[i])
	}
}

// finish settles one job's result: duplicate cross-check, job-error
// fallback, optional digest verification, acceptance.
func (r *run) finish(bs *backendState, js *jobState, res sweep.JobResult) {
	r.mu.Lock()
	js.inflight--
	if js.done {
		// A late hedge duplicate is a free consistency check: two
		// executions of the same deterministic job must agree.
		if js.acceptedError == "" && res.Error == "" && js.acceptedDigest != "" &&
			res.Digest != "" && res.Digest != js.acceptedDigest {
			r.mu.Unlock()
			r.arbitrate(bs, js, res)
			return
		}
		bs.counters.Inc(cDiscarded)
		r.mu.Unlock()
		return
	}
	if res.Error != "" && !bs.local {
		// Remote job-level failures are resolved by the local authority
		// so the emitted error (or recovery) matches a serial local run.
		js.localOnly = true
		bs.counters.Inc(cJobErrors)
		r.mu.Unlock()
		r.cond.Broadcast()
		return
	}
	verify := false
	if !bs.local && r.opt.VerifyFraction > 0 {
		verify = r.opt.VerifyFraction >= 1 || r.rng.Float64() < r.opt.VerifyFraction
	}
	if !verify {
		r.accept(bs, js, res)
		r.mu.Unlock()
		r.cond.Broadcast()
		return
	}
	js.verifying = true
	r.mu.Unlock()

	local := r.localRun(js.job)
	r.mu.Lock()
	js.verifying = false
	switch {
	case local.Error != "":
		// The authority itself could not run the job; keep the remote
		// result but record that it went unverified.
		bs.counters.Inc(cVerifyErr)
		r.accept(bs, js, res)
	case local.Digest != res.Digest:
		r.mismatches++
		bs.counters.Inc(cMismatches)
		r.quarantineLocked(bs, js.job.ID, res.Digest, local.Digest)
		r.accept(r.localB, js, local)
	default:
		bs.counters.Inc(cVerified)
		r.accept(bs, js, res)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// accept finalizes a job with res and releases it to the ordered sink.
// Caller holds r.mu.
func (r *run) accept(bs *backendState, js *jobState, res sweep.JobResult) {
	js.done = true
	js.acceptedFrom = bs.b.Name()
	js.acceptedDigest = res.Digest
	js.acceptedError = res.Error
	bs.counters.Inc(cOK)
	r.remaining--
	r.ord.Done(res)
}

// arbitrate resolves a digest disagreement between an accepted result and
// a late duplicate: the local authority re-runs the job and whichever
// backend disagrees with it is quarantined. The accepted bytes may
// already be emitted — arbitration cannot repair them, only report the
// corruption (Result.Mismatches, nonzero exit). With VerifyFraction 1
// this path is unreachable for the accepted side, because acceptance
// itself was verified.
func (r *run) arbitrate(bs *backendState, js *jobState, res sweep.JobResult) {
	local := r.localRun(js.job)
	r.mu.Lock()
	r.mismatches++
	bs.counters.Inc(cMismatches)
	if local.Error == "" {
		if local.Digest != res.Digest {
			r.quarantineLocked(bs, js.job.ID, res.Digest, local.Digest)
		}
		if accepted := r.byName[js.acceptedFrom]; accepted != nil && !accepted.local &&
			local.Digest != js.acceptedDigest {
			r.quarantineLocked(accepted, js.job.ID, js.acceptedDigest, local.Digest)
		}
	} else {
		r.opt.Logf("dispatch: job %d: hedge duplicates disagree (%s vs %s) and local arbitration failed: %s",
			js.job.ID, js.acceptedFrom, bs.b.Name(), local.Error)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// quarantineLocked permanently bars bs from further claims this run.
// Caller holds r.mu.
func (r *run) quarantineLocked(bs *backendState, jobID int, got, want string) {
	if !bs.quarantined {
		bs.quarantined = true
		bs.counters.Inc(cQuarantined)
	}
	r.opt.Logf("dispatch: backend %s QUARANTINED: job %d digest %.12s, local authority says %.12s",
		bs.b.Name(), jobID, got, want)
}

// localRun executes one job on the local authority, outside any claim
// accounting.
func (r *run) localRun(job sweep.Job) sweep.JobResult {
	res, err := r.localB.b.Run(r.ctx, []sweep.Job{job})
	if err != nil || len(res) != 1 {
		return sweep.JobResult{ID: job.ID, Point: job.Point, Rep: job.Rep, Seed: job.Seed,
			Error: fmt.Sprintf("local rerun: %v", err)}
	}
	return res[0]
}

// probe re-checks a down backend until it answers /readyz, then returns
// it to service.
func (r *run) probe(bs *backendState) {
	t := time.NewTicker(r.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		}
		r.mu.Lock()
		needed := bs.down && !bs.quarantined && r.remaining > 0
		r.mu.Unlock()
		if !needed {
			continue
		}
		pctx, cancel := context.WithTimeout(r.ctx, r.opt.ProbeInterval)
		err := bs.b.Probe(pctx)
		cancel()
		if err == nil {
			r.mu.Lock()
			bs.down = false
			r.mu.Unlock()
			r.opt.Logf("dispatch: backend %s recovered", bs.b.Name())
			r.cond.Broadcast()
		}
	}
}

// backoff is the delay before a job's next attempt after fails failures:
// Backoff doubled per failure, capped at MaxBackoff.
func (r *run) backoff(fails int) time.Duration {
	if fails < 1 {
		fails = 1
	}
	d := r.opt.Backoff << uint(min(fails-1, 20))
	if d <= 0 || d > r.opt.MaxBackoff {
		d = r.opt.MaxBackoff
	}
	return d
}
