// Command hsfqload fires concurrent mixed hit/miss traffic at an hsfqd
// and asserts its serving invariants: zero 5xx responses, 429 only as
// load shedding (every request eventually succeeds on retry), and
// byte-identical bodies for every repeat of the same scenario. With
// -hsfqd it spawns the daemon itself on a free port, and finishes by
// sending SIGTERM and requiring a clean drain (exit 0).
//
// Two multi-tenant modes exercise the tenant scheduler end to end:
//
//   - -tenants "gold:4,bronze:1" saturates the daemon from every listed
//     tenant at once and requires each tenant's completed-request
//     throughput to be proportional to its weight (within a fairness
//     tolerance), plus cross-tenant byte-identity for a shared scenario.
//   - -flood <attacker> (with the attacker and a victim in -tenants)
//     measures the victim's p99 latency alone, then again under a
//     sustained attacker flood, and fails unless
//     p99_flood <= bound x max(p99_alone, floor): the paper's isolation
//     claim, measured at the serving layer.
//
// Usage:
//
//	hsfqload -hsfqd /tmp/hsfqd -n 64 -c 64 -queue 16 -workers 4
//	hsfqload -addr http://localhost:8377 -n 128
//	hsfqload -hsfqd /tmp/hsfqd -policy tenants.json -tenants gold:4,bronze:1
//	hsfqload -hsfqd /tmp/hsfqd -policy tenants.json -tenants victim:1,flood:1 -flood flood
//	hsfqload -hsfqd /tmp/hsfqd -trace 4
//
// -trace K streams one live job over GET /v1/trace/{key}?follow=1 to K
// fast readers plus one deliberately slow one: fast streams must be
// gap-free with a row hash matching the engine's trace digest, the slow
// one must get exact drop accounting instead of backpressure, and a
// SIGTERM with a stream open must close it cleanly.
//
// Exit status 0 on success, 1 on any violated invariant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", "", "target daemon base URL (used when -hsfqd is empty)")
		hsfqd     = flag.String("hsfqd", "", "path to an hsfqd binary to spawn (and SIGTERM at the end)")
		n         = flag.Int("n", 64, "total requests")
		c         = flag.Int("c", 64, "concurrent client goroutines")
		scenarios = flag.Int("scenarios", 8, "distinct scenarios (the hit/miss mix: n/scenarios repeats each)")
		queue     = flag.Int("queue", 16, "spawned daemon's -queue")
		workers   = flag.Int("workers", 4, "spawned daemon's -workers")
		policy    = flag.String("policy", "", "tenant policy file passed to the spawned daemon's -policy")
		tenants   = flag.String("tenants", "", `weighted tenant load, e.g. "gold:4,bronze:1" (weights must match the policy)`)
		flood     = flag.String("flood", "", "isolation mode: attacker tenant name (must appear in -tenants; the others are victims)")
		bound     = flag.Float64("bound", 10, "flood mode: max allowed victim p99 degradation factor")
		duration  = flag.Duration("duration", 3*time.Second, "tenant/flood mode: load duration per phase")
		traceK    = flag.Int("trace", 0, "trace mode: K concurrent follow streams of one live job, plus one deliberately slow reader (0 = off)")
	)
	flag.Parse()

	var err error
	switch {
	case *traceK > 0:
		err = runTrace(*addr, *hsfqd, *policy, *traceK, *queue, *workers)
	case *flood != "":
		err = runFlood(*addr, *hsfqd, *policy, *tenants, *flood, *bound, *duration, *queue, *workers)
	case *tenants != "":
		err = runTenants(*addr, *hsfqd, *policy, *tenants, *duration, *c, *queue, *workers)
	default:
		err = run(*addr, *hsfqd, *policy, *n, *c, *scenarios, *queue, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfqload:", err)
		os.Exit(1)
	}
}

// spawn starts hsfqd on a free port (when binary is non-empty) and waits
// for readiness; otherwise it validates addr. extra appends additional
// daemon flags. The returned stop func is nil when no daemon was spawned.
func spawn(addr, binary, policy string, queue, workers int, extra ...string) (string, func() error, error) {
	if binary == "" {
		if addr == "" {
			return "", nil, fmt.Errorf("need -addr or -hsfqd")
		}
		return addr, nil, nil
	}
	port, err := freePort()
	if err != nil {
		return "", nil, err
	}
	addr = fmt.Sprintf("http://127.0.0.1:%d", port)
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-queue", fmt.Sprint(queue),
		"-workers", fmt.Sprint(workers),
		"-verify-cache", "0.1",
	}
	if policy != "" {
		args = append(args, "-policy", policy)
	}
	args = append(args, extra...)
	daemon := exec.Command(binary, args...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return "", nil, fmt.Errorf("spawning %s: %w", binary, err)
	}
	if err := waitReady(addr, 5*time.Second); err != nil {
		daemon.Process.Kill()
		return "", nil, err
	}
	stop := func() error {
		// Graceful drain: SIGTERM must flip readyz and exit 0.
		if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		select {
		case err := <-exited:
			if err != nil {
				return fmt.Errorf("daemon did not drain cleanly: %w", err)
			}
		case <-time.After(10 * time.Second):
			daemon.Process.Kill()
			return fmt.Errorf("daemon did not exit within 10s of SIGTERM")
		}
		fmt.Println("hsfqload: SIGTERM drain clean (exit 0)")
		return nil
	}
	return addr, stop, nil
}

func run(addr, hsfqd, policy string, n, c, scenarios, queue, workers int) error {
	addr, stop, err := spawn(addr, hsfqd, policy, queue, workers)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if stop != nil {
			stop()
		}
		return err
	}
	stats, err := fire(addr, n, c, scenarios)
	if err != nil {
		return fail(err)
	}
	// The /metrics schema stays backward compatible: the pre-tenant
	// fields must still decode, whatever else was added.
	if err := checkLegacyMetrics(addr); err != nil {
		return fail(err)
	}
	fmt.Printf("hsfqload: %d requests over %d scenario(s): %d ok, %d shed-then-retried, 0 server errors, bodies byte-identical\n",
		n, scenarios, n, stats.shed)
	if stop != nil {
		return stop()
	}
	return nil
}

// scenario is a small mixed workload; the seed makes each index a
// distinct job (distinct content address) with an identical structure.
// The horizon and quantum set how much real work one request costs —
// engine cost scales with the number of simulated dispatch events
// (horizon/quantum), not with simulated time alone.
func scenario(i int, horizon, quantum string) string {
	return fmt.Sprintf(`{
	  "rate_mips": 100,
	  "horizon": %q,
	  "seed": %d,
	  "nodes": [
	    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": %q},
	    {"path": "/be", "weight": 1, "leaf": "rr"}
	  ],
	  "threads": [
	    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
	    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
	  ]
	}`, horizon, i+1, quantum)
}

// The tenant and flood modes use a long horizon with a fine quantum so a
// single request costs real worker milliseconds: offered load then
// exceeds pool capacity and dispatch order is decided by the SFQ tree
// rather than by an idle queue. Classic mode keeps the cheap scenario
// (the hit/miss cache mix is the point there, not contention).
const (
	lightHorizon, lightQuantum = "100ms", "5ms"
	heavyHorizon, heavyQuantum = "150s", "1ms"
)

type loadStats struct {
	shed int
}

// fire issues n POSTs (round-robin over the scenarios) from c goroutines,
// retrying shed (429) requests, and checks the invariants.
func fire(addr string, n, c, scenarios int) (*loadStats, error) {
	var (
		mu     sync.Mutex
		bodies = map[int][]byte{}
		stats  loadStats
		errs   []error
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc := i % scenarios
				body, _, shed, err := request(addr, "", scenario(sc, lightHorizon, lightQuantum))
				mu.Lock()
				stats.shed += shed
				if err != nil {
					errs = append(errs, fmt.Errorf("request %d: %w", i, err))
				} else if prev, ok := bodies[sc]; !ok {
					bodies[sc] = body
				} else if string(prev) != string(body) {
					errs = append(errs, fmt.Errorf("scenario %d: response bytes differ across requests", sc))
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	if len(bodies) != scenarios {
		return nil, fmt.Errorf("saw %d scenarios, want %d", len(bodies), scenarios)
	}
	return &stats, nil
}

// tenantSpec is one "name:weight" element of -tenants.
type tenantSpec struct {
	name   string
	weight float64
}

func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		w := 1.0
		if ok {
			var err error
			if w, err = strconv.ParseFloat(wstr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad tenant weight %q", part)
			}
		}
		specs = append(specs, tenantSpec{name: name, weight: w})
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("-tenants needs at least two tenants, got %q", s)
	}
	return specs, nil
}

// runTenants saturates the daemon from every listed tenant at once
// (unique-seed misses, so every request is real work) and verifies that
// completed-request throughput is proportional to tenant weight within a
// fairness tolerance, and that a shared scenario's bytes are identical
// across tenants and header-less traffic.
//
// The verdict counts server-side completions between a warmup snapshot
// and a closing snapshot of /metrics: SFQ's proportional-share guarantee
// holds while every tenant is backlogged, which is true in that window
// but not during the ramp-up or the post-window drain (the drain
// completes each tenant's residual backlog — equal constants that would
// dilute the measured ratio toward 1). The window closes at the nominal
// deadline, warmup plus duration, once every tenant has minCompleted
// completions in it. On a slow machine the lightest tenant may not, so
// the load keeps running and /metrics is polled until it does, for at
// most maxExtension x duration past the deadline.
func runTenants(addr, hsfqd, policy, tenantsFlag string, duration time.Duration, c, queue, workers int) error {
	specs, err := parseTenants(tenantsFlag)
	if err != nil {
		return err
	}
	addr, stop, err := spawn(addr, hsfqd, policy, queue, workers)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if stop != nil {
			stop()
		}
		return err
	}

	perTenant := c / len(specs)
	if perTenant < 8 {
		perTenant = 8
	}
	const (
		minCompleted = 10
		maxExtension = 3
		pollEvery    = 100 * time.Millisecond
	)
	var mu sync.Mutex
	var errs []error
	var done atomic.Bool
	warmup := duration / 4
	deadline := time.Now().Add(warmup + duration)
	var wg sync.WaitGroup
	stopLoad := func() {
		done.Store(true)
		wg.Wait()
	}
	for ti, spec := range specs {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(ti, g int, tenant string) {
				defer wg.Done()
				for seq := 0; !done.Load(); seq++ {
					// Unique seeds per (tenant, goroutine, iteration):
					// all misses, all real scheduling work.
					seed := (ti+1)*10_000_000 + g*100_000 + seq
					_, _, _, err := request(addr, tenant, scenario(seed, heavyHorizon, heavyQuantum))
					if err != nil {
						mu.Lock()
						errs = append(errs, fmt.Errorf("tenant %s: %w", tenant, err))
						mu.Unlock()
						return
					}
				}
			}(ti, g, spec.name)
		}
	}
	time.Sleep(warmup)
	before, err := completedCounts(addr, names(specs))
	if err != nil {
		stopLoad()
		return fail(fmt.Errorf("warmup snapshot: %w", err))
	}
	opened := time.Now()
	time.Sleep(time.Until(deadline))
	extendUntil := deadline.Add(maxExtension * duration)
	var after map[string]int64
	for {
		if after, err = completedCounts(addr, names(specs)); err != nil {
			stopLoad()
			return fail(fmt.Errorf("deadline snapshot: %w", err))
		}
		if fewestCompleted(specs, before, after) >= minCompleted || !time.Now().Before(extendUntil) {
			break
		}
		time.Sleep(pollEvery)
	}
	window := time.Since(opened).Round(time.Millisecond)
	stopLoad()
	if len(errs) > 0 {
		return fail(errs[0])
	}
	if window > duration+pollEvery {
		fmt.Printf("hsfqload: window extended from %v to %v to reach %d completions per tenant\n", duration, window, minCompleted)
	}

	// Verdict: normalized throughput (completed/weight) must agree across
	// tenants within the fairness tolerance.
	const tolerance = 1.5
	counts := make([]int64, len(specs))
	minNorm, maxNorm := 0.0, 0.0
	for i, spec := range specs {
		counts[i] = after[spec.name] - before[spec.name]
		if counts[i] < minCompleted {
			return fail(fmt.Errorf("tenant %s completed only %d requests in %v; not enough signal", spec.name, counts[i], window))
		}
		norm := float64(counts[i]) / spec.weight
		if i == 0 || norm < minNorm {
			minNorm = norm
		}
		if i == 0 || norm > maxNorm {
			maxNorm = norm
		}
		fmt.Printf("hsfqload: tenant %-8s weight %.1f: %4d completed (%.1f/weight)\n", spec.name, spec.weight, counts[i], norm)
	}
	if maxNorm > tolerance*minNorm {
		return fail(fmt.Errorf("weighted fairness violated: normalized throughput spread %.2f..%.2f exceeds %.1fx tolerance", minNorm, maxNorm, tolerance))
	}
	fmt.Printf("hsfqload: weighted throughput proportional to weight within %.1fx (spread %.2f..%.2f)\n", tolerance, minNorm, maxNorm)

	// A shared scenario must serve byte-identical responses to every
	// tenant and to header-less traffic: results are content-addressed,
	// tenant-agnostic.
	shared := scenario(424_242, heavyHorizon, heavyQuantum)
	var ref []byte
	for _, who := range append([]string{""}, names(specs)...) {
		body, _, _, err := request(addr, who, shared)
		if err != nil {
			return fail(fmt.Errorf("shared scenario as %q: %w", who, err))
		}
		if ref == nil {
			ref = body
		} else if string(ref) != string(body) {
			return fail(fmt.Errorf("shared scenario bytes differ for tenant %q", who))
		}
	}
	fmt.Println("hsfqload: shared scenario byte-identical across tenants and header-less traffic")
	if err := printTenantMetrics(addr, names(specs)); err != nil {
		return fail(err)
	}
	if stop != nil {
		return stop()
	}
	return nil
}

// fewestCompleted returns the smallest per-tenant completion count
// between two /metrics snapshots.
func fewestCompleted(specs []tenantSpec, before, after map[string]int64) int64 {
	fewest := int64(-1)
	for _, spec := range specs {
		if n := after[spec.name] - before[spec.name]; fewest < 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}

func names(specs []tenantSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// runFlood measures the isolation invariant: a victim tenant's p99 under
// a sustained one-tenant flood must stay within bound x its p99 alone
// (floored, so microsecond baselines don't make the factor meaningless).
func runFlood(addr, hsfqd, policy, tenantsFlag, attacker string, bound float64, duration time.Duration, queue, workers int) error {
	specs, err := parseTenants(tenantsFlag)
	if err != nil {
		return err
	}
	victim := ""
	found := false
	for _, s := range specs {
		if s.name == attacker {
			found = true
		} else if victim == "" {
			victim = s.name
		}
	}
	if !found || victim == "" {
		return fmt.Errorf("-flood %q needs the attacker and at least one other tenant in -tenants %q", attacker, tenantsFlag)
	}
	addr, stop, err := spawn(addr, hsfqd, policy, queue, workers)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if stop != nil {
			stop()
		}
		return err
	}

	// Phase A: the victim alone, sequential unique-seed requests.
	alone, err := victimPass(addr, victim, 1_000_000, duration)
	if err != nil {
		return fail(fmt.Errorf("baseline phase: %w", err))
	}
	p99Alone := p99(alone)

	// Phase B: the attacker floods from many goroutines while the victim
	// repeats the same sequential pattern.
	floodDone := make(chan struct{})
	var floodWG sync.WaitGroup
	for g := 0; g < 8*workers; g++ {
		floodWG.Add(1)
		go func(g int) {
			defer floodWG.Done()
			for seq := 0; ; seq++ {
				select {
				case <-floodDone:
					return
				default:
				}
				// A namespace disjoint from every victim pass: a seed
				// collision would coalesce the victim's request onto a
				// job queued deep in the attacker's own FIFO, charging
				// the attacker's queueing delay to the victim.
				seed := 20_000_000 + g*100_000 + seq
				// The attacker ignores shed responses: a flood does not
				// politely back off.
				postOnce(addr, attacker, scenario(seed, heavyHorizon, heavyQuantum))
			}
		}(g)
	}
	under, err := victimPass(addr, victim, 3_000_000, duration)
	close(floodDone)
	floodWG.Wait()
	if err != nil {
		return fail(fmt.Errorf("flood phase: %w", err))
	}
	p99Flood := p99(under)
	fmt.Printf("hsfqload: victim alone  n=%d p50=%v p99=%v\n", len(alone), p50(alone), p99Alone)
	fmt.Printf("hsfqload: victim flood  n=%d p50=%v p99=%v\n", len(under), p50(under), p99Flood)

	const floor = 25 * time.Millisecond
	limit := time.Duration(bound * float64(max(p99Alone, floor)))
	fmt.Printf("hsfqload: victim %q p99 alone %v, under %q flood %v (limit %v = %.1f x max(alone, %v))\n",
		victim, p99Alone, attacker, p99Flood, limit, bound, floor)
	if err := printTenantMetrics(addr, names(specs)); err != nil {
		return fail(err)
	}
	if p99Flood > limit {
		return fail(fmt.Errorf("isolation violated: victim p99 %v under flood exceeds %v", p99Flood, limit))
	}
	fmt.Println("hsfqload: one-tenant flood left the victim's p99 within bound — isolation holds")
	if stop != nil {
		return stop()
	}
	return nil
}

// victimPass issues sequential unique-seed requests as tenant for the
// given duration and returns each successful request's latency.
func victimPass(addr, tenant string, seedBase int, duration time.Duration) ([]time.Duration, error) {
	var lat []time.Duration
	deadline := time.Now().Add(duration)
	for seq := 0; time.Now().Before(deadline); seq++ {
		start := time.Now()
		_, _, _, err := request(addr, tenant, scenario(seedBase+seq, heavyHorizon, heavyQuantum))
		if err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(start))
	}
	if len(lat) < 10 {
		return nil, fmt.Errorf("victim completed only %d requests in %v; not enough signal", len(lat), duration)
	}
	return lat, nil
}

func p99(lat []time.Duration) time.Duration { return quantile(lat, 99) }
func p50(lat []time.Duration) time.Duration { return quantile(lat, 50) }

func quantile(lat []time.Duration, pct int) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted) * pct) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// tenantMetricsDoc decodes just the tenant slice of /metrics.
type tenantMetricsDoc struct {
	Tenants map[string]struct {
		Weight     float64 `json:"weight"`
		Submitted  int64   `json:"submitted"`
		Completed  int64   `json:"completed"`
		Shed       int64   `json:"shed"`
		QueueDepth int     `json:"queue_depth"`
	} `json:"tenants"`
}

// completedCounts snapshots per-tenant completed counters from /metrics.
// Tenants the server has not seen yet read as zero.
func completedCounts(addr string, names []string) (map[string]int64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc tenantMetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics decode: %w", err)
	}
	out := make(map[string]int64, len(names))
	for _, name := range names {
		out[name] = doc.Tenants[name].Completed
	}
	return out, nil
}

func printTenantMetrics(addr string, names []string) error {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc tenantMetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("metrics decode: %w", err)
	}
	for _, name := range names {
		tm, ok := doc.Tenants[name]
		if !ok {
			return fmt.Errorf("tenant %q missing from /metrics", name)
		}
		fmt.Printf("hsfqload: /metrics tenant %-8s weight %.1f submitted %d completed %d shed %d\n",
			name, tm.Weight, tm.Submitted, tm.Completed, tm.Shed)
	}
	return nil
}

// checkLegacyMetrics requires the pre-tenant /metrics fields to still
// decode with sane values — the backward-compatibility half of the
// serving contract.
func checkLegacyMetrics(addr string) error {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc struct {
		Workers       int                        `json:"workers"`
		QueueCapacity int                        `json:"queue_capacity"`
		TasksDone     int64                      `json:"tasks_done"`
		Cache         map[string]json.RawMessage `json:"cache"`
		Endpoints     map[string]json.RawMessage `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("metrics decode: %w", err)
	}
	if doc.Workers <= 0 || doc.QueueCapacity <= 0 || doc.TasksDone <= 0 ||
		doc.Cache == nil || doc.Endpoints["simulate"] == nil {
		return fmt.Errorf("legacy /metrics fields missing or zero: workers=%d cap=%d done=%d",
			doc.Workers, doc.QueueCapacity, doc.TasksDone)
	}
	return nil
}

// request POSTs one scenario as the given tenant ("" sends no tenant
// header), retrying 429s; any 5xx is an immediate failure. Returns the
// body, final status, and how many times the request was shed.
func request(addr, tenant, body string) ([]byte, int, int, error) {
	shed := 0
	for attempt := 0; attempt < 400; attempt++ {
		status, b, err := postOnce(addr, tenant, body)
		if err != nil {
			return nil, 0, shed, err
		}
		switch {
		case status == http.StatusOK:
			return b, status, shed, nil
		case status == http.StatusTooManyRequests:
			shed++
			time.Sleep(5 * time.Millisecond)
		case status >= 500:
			return nil, status, shed, fmt.Errorf("server error %d: %s", status, b)
		default:
			return nil, status, shed, fmt.Errorf("status %d: %s", status, b)
		}
	}
	return nil, 0, shed, fmt.Errorf("starved: still shed after 400 attempts")
}

// postOnce is a single non-retrying POST.
func postOnce(addr, tenant, body string) (int, []byte, error) {
	req, err := http.NewRequest("POST", addr+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

func waitReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s not ready within %v", addr, timeout)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
