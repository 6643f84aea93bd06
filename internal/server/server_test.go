package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
)

// scenarioJSON is a small real scenario; seed variations make distinct
// jobs (distinct content addresses) from the same structure.
func scenarioJSON(seed int) string {
	return fmt.Sprintf(`{
	  "rate_mips": 100,
	  "horizon": "50ms",
	  "seed": %d,
	  "nodes": [
	    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "5ms"},
	    {"path": "/be", "weight": 1, "leaf": "rr"}
	  ],
	  "threads": [
	    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
	    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
	  ]
	}`, seed)
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSimulateCacheByteIdentical is the core serving contract: the same
// scenario submitted twice runs once, the second response is a recorded
// cache hit, and the bytes are identical. VerifyFraction 1 re-executes the
// hit and must find nothing wrong.
func TestSimulateCacheByteIdentical(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, VerifyFraction: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp1, body1 := post(t, ts, "/v1/simulate", scenarioJSON(7))
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first: %d %q %s", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
	}
	resp2, body2 := post(t, ts, "/v1/simulate", scenarioJSON(7))
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second: %d %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", body1, body2)
	}

	var r simulateResponse
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatal(err)
	}
	if r.Key == "" || r.Digest == "" || r.Seed != 7 || r.Metrics["work_total"] <= 0 {
		t.Fatalf("response: %+v", r)
	}

	// The job is retrievable by its content address, byte-identically.
	resp3, body3 := get(t, ts, "/v1/jobs/"+r.Key)
	if resp3.StatusCode != 200 || !bytes.Equal(body3, body1) {
		t.Fatalf("jobs retrieval: %d", resp3.StatusCode)
	}
	if resp4, _ := get(t, ts, "/v1/jobs/deadbeef"); resp4.StatusCode != 404 {
		t.Errorf("unknown job: %d", resp4.StatusCode)
	}

	m := srv.Snapshot()
	if m.Cache.Hits < 2 || m.Cache.Misses < 1 {
		t.Errorf("cache counters %+v", m.Cache)
	}
	// Verification is asynchronous; wait for the sampled hit's re-execution.
	waitFor(t, func() bool { return srv.Snapshot().VerifyRuns == 1 })
	if f := srv.Snapshot().VerifyFailures; f != 0 {
		t.Errorf("verify failures=%d", f)
	}
	if m.Endpoints["simulate"].Count != 2 {
		t.Errorf("simulate endpoint count %d", m.Endpoints["simulate"].Count)
	}
}

func TestSimulateValidationErrors(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Malformed JSON.
	resp, _ := post(t, ts, "/v1/simulate", `{"nodes": [`)
	if resp.StatusCode != 400 {
		t.Errorf("malformed: %d", resp.StatusCode)
	}
	// Unknown field (DisallowUnknownFields via simconfig.Parse).
	resp, _ = post(t, ts, "/v1/simulate", `{"bogus": 1}`)
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}
	// Validation failure carries the JSON field path.
	resp, body := post(t, ts, "/v1/simulate",
		`{"nodes":[{"path":"/a","leaf":"bogus"}]}`)
	if resp.StatusCode != 400 {
		t.Fatalf("bad leaf: %d", resp.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Field != "nodes[0].leaf" || !strings.Contains(e.Error, "unknown leaf scheduler") {
		t.Errorf("error response: %+v", e)
	}
	// Build-time failure (validates, but the trace file is missing) is
	// also the client's problem: 400, not 500.
	resp, _ = post(t, ts, "/v1/simulate",
		`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"trace","file":"/nonexistent"}}]}`)
	if resp.StatusCode != 400 {
		t.Errorf("build failure: %d", resp.StatusCode)
	}
}

// TestSimulateHugeFrameCount: an mpeg frame count is where the decoder
// wraps, not a trace to allocate up front, so a short job with 2^40
// frames is served like any other instead of exhausting the daemon's
// memory at build time.
func TestSimulateHugeFrameCount(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/simulate", `{
	  "rate_mips": 100,
	  "horizon": "1s",
	  "nodes": [{"path": "/soft", "weight": 1, "leaf": "sfq", "quantum": "10ms"}],
	  "threads": [{"name": "dec", "leaf": "/soft", "program": {"kind": "mpeg", "frames": 1099511627776}}]
	}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, SweepWorkers: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := fmt.Sprintf(`{
	  "name": "api",
	  "seeds": 2,
	  "base": %s,
	  "axes": [{"param": "weight", "target": "/be", "values": [1, 3]}]
	}`, scenarioJSON(42))
	resp1, body1 := post(t, ts, "/v1/sweep", spec)
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("sweep: %d %s", resp1.StatusCode, body1)
	}
	var r sweepResponse
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatal(err)
	}
	if r.Report.Jobs != 4 || r.Report.Failed != 0 || len(r.Report.Aggregates) != 2 {
		t.Fatalf("report: jobs=%d failed=%d aggs=%d", r.Report.Jobs, r.Report.Failed, len(r.Report.Aggregates))
	}
	// Same spec again: cache hit, identical bytes, retrievable by key.
	resp2, body2 := post(t, ts, "/v1/sweep", spec)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Fatalf("sweep rerun: %q identical=%v", resp2.Header.Get("X-Cache"), bytes.Equal(body1, body2))
	}
	if resp3, body3 := get(t, ts, "/v1/jobs/"+r.Key); resp3.StatusCode != 200 || !bytes.Equal(body3, body1) {
		t.Errorf("sweep by key: %d", resp3.StatusCode)
	}
	// A bad axis is rejected up front with 400.
	resp4, _ := post(t, ts, "/v1/sweep", fmt.Sprintf(`{"base": %s, "axes": [{"param": "bogus", "values": [1]}]}`, scenarioJSON(1)))
	if resp4.StatusCode != 400 {
		t.Errorf("bad axis: %d", resp4.StatusCode)
	}
}

// TestAdmissionControl stubs execution with a blocking job: with 1 worker
// and a queue of 1, a third concurrent request must be shed with 429 and
// a Retry-After header, while admitted requests complete with 200.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		started <- struct{}{}
		<-release
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	results := make(chan int, 2)
	fire := func(seed int) {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(scenarioJSON(seed)))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	fire(1)
	<-started // worker now busy and the queue empty...
	fire(2)   // ...so this one is admitted to the queue
	waitFor(t, func() bool { return srv.pool.Depth() == 1 })

	// Queue full: this one is shed.
	resp, _ := post(t, ts, "/v1/simulate", scenarioJSON(3))
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed request: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	close(release)
	for i := 0; i < 2; i++ {
		if status := <-results; status != 200 {
			t.Errorf("admitted request got %d", status)
		}
	}
	if shed := srv.Snapshot().Shed; shed != 1 {
		t.Errorf("shed counter %d", shed)
	}
	srv.Drain()
}

// TestRetryAfterPerTenant is the regression test for the shed header: a
// 429's Retry-After must be derived from the shedding tenant's own
// backlog, not the global queue depth. With one worker pinned, a tenant
// shed at backlog 6 must be told to wait longer than a tenant shed at
// backlog 1.
func TestRetryAfterPerTenant(t *testing.T) {
	pol := &tenantsched.Policy{Tenants: map[string]tenantsched.TenantPolicy{
		"deep":    {Quota: 6},
		"shallow": {Quota: 1},
	}}
	srv := New(Config{Workers: 1, QueueDepth: 8, Policy: pol})
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		if first.CompareAndSwap(true, false) {
			// The first request completes in ~half a second, seeding the
			// queue's mean-service estimate the Retry-After math uses.
			time.Sleep(500 * time.Millisecond)
		} else {
			started <- struct{}{}
			<-release
		}
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := postTenant(t, ts, "/v1/simulate", "deep", "", scenarioJSON(1)); resp.StatusCode != 200 {
		t.Fatalf("seeding request: %d", resp.StatusCode)
	}
	results := make(chan int, 16)
	fire := func(tenant string, seed int) {
		go func() {
			resp, _ := postTenant(t, ts, "/v1/simulate", tenant, "", scenarioJSON(seed))
			results <- resp.StatusCode
		}()
	}
	fire("deep", 2) // occupies the worker
	<-started
	for seed := 3; seed <= 8; seed++ {
		fire("deep", seed) // fills deep's quota of 6
	}
	waitFor(t, func() bool { return srv.pool.Depth() == 6 })

	retryOf := func(tenant string, seed int) int {
		resp, body := postTenant(t, ts, "/v1/simulate", tenant, "", scenarioJSON(seed))
		if resp.StatusCode != 429 {
			t.Fatalf("%s over quota: %d %s", tenant, resp.StatusCode, body)
		}
		sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("%s Retry-After %q: %v", tenant, resp.Header.Get("Retry-After"), err)
		}
		return sec
	}
	deep := retryOf("deep", 9)
	fire("shallow", 10) // shallow's quota of 1
	waitFor(t, func() bool { return srv.pool.Depth() == 7 })
	shallow := retryOf("shallow", 11)

	// deep is shed at backlog 6 with a ~0.5 s mean: at least 3 s. shallow
	// is shed at backlog 1: at most 2 s even after its share halves. The
	// old global derivation answered a constant "1" for both.
	if deep <= shallow {
		t.Errorf("Retry-After deep(backlog 6)=%ds <= shallow(backlog 1)=%ds; not derived from tenant backlog", deep, shallow)
	}
	if deep < 3 {
		t.Errorf("deep Retry-After %ds, want >= 3s for backlog 6 at ~0.5s/request", deep)
	}
	if shallow > 2 {
		t.Errorf("shallow Retry-After %ds, want <= 2s for backlog 1", shallow)
	}
	close(release)
	for i := 0; i < 8; i++ {
		if status := <-results; status != 200 {
			t.Errorf("admitted request got %d", status)
		}
	}
	srv.Drain()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestDeadline: a job slower than the request timeout yields 504
// without wedging the worker pool.
func TestRequestDeadline(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2, RequestTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		<-release
		return "d", nil, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := post(t, ts, "/v1/simulate", scenarioJSON(1))
	if resp.StatusCode != 504 {
		t.Fatalf("slow job: %d", resp.StatusCode)
	}
	close(release)
	srv.Drain()
	if got := srv.Snapshot().InFlight; got != 0 {
		t.Errorf("in-flight after drain: %d", got)
	}
}

// TestVerifyCacheDetectsDivergence: if execution stops matching the
// cached bytes (injected nondeterminism), the sampled verification on the
// next hit must count a failure.
func TestVerifyCacheDetectsDivergence(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2, VerifyFraction: 1})
	defer srv.Drain()
	calls := 0
	var mu sync.Mutex
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		return fmt.Sprintf("digest-%d", n), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post(t, ts, "/v1/simulate", scenarioJSON(1)) // miss: digest-1 cached
	post(t, ts, "/v1/simulate", scenarioJSON(1)) // hit: verify recomputes digest-2
	waitFor(t, func() bool {
		m := srv.Snapshot()
		return m.VerifyRuns == 1 && m.VerifyFailures == 1
	})
}

// TestJobKeyRejectsTraversal: with a spill directory configured, a job
// key that decodes to a relative path (r.PathValue decodes %2F) must be
// rejected before it can reach the cache's disk lookup — otherwise
// GET /v1/jobs/..%2Fsecret would read and serve arbitrary .json files.
func TestJobKeyRejectsTraversal(t *testing.T) {
	base := t.TempDir()
	if err := os.WriteFile(filepath.Join(base, "secret.json"), []byte(`{"stolen":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 2, CacheDir: filepath.Join(base, "cache")})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, key := range []string{
		"..%2Fsecret",
		"..%2F..%2Fetc%2Fcreds",
		"deadbeef",                           // too short
		strings.Repeat("Z", 64),              // right length, not hex
		strings.Repeat("a", 64)[:63] + "%2F", // separator smuggled into the last byte
	} {
		resp, body := get(t, ts, "/v1/jobs/"+key)
		if resp.StatusCode != 404 {
			t.Errorf("key %q: status %d (want 404), body %s", key, resp.StatusCode, body)
		}
		if bytes.Contains(body, []byte("stolen")) {
			t.Fatalf("key %q leaked file contents outside the cache dir", key)
		}
	}
}

// TestCoalescedMisses: two concurrent requests for the same uncached key
// run one simulation; the follower waits for the leader's result instead
// of taking a pool slot, and both get byte-identical 200s.
func TestCoalescedMisses(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	var executions atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		executions.Add(1)
		started <- struct{}{}
		<-release
		return "digest", map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		cache  string
		body   []byte
	}
	results := make(chan result, 2)
	fire := func() {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(scenarioJSON(1)))
			if err != nil {
				results <- result{status: -1}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("X-Cache"), b}
		}()
	}
	fire()
	<-started // leader is executing
	fire()    // same key while in flight: must coalesce, not re-execute
	waitFor(t, func() bool { return srv.Snapshot().Coalesced == 1 })
	close(release)

	caches := map[string]int{}
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("status %d", r.status)
		}
		caches[r.cache]++
		bodies = append(bodies, r.body)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	if caches["miss"] != 1 || caches["coalesced"] != 1 {
		t.Errorf("X-Cache counts: %v", caches)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("coalesced responses differ")
	}
	srv.Drain()
}

// TestInternalErrorIs500: a server-side fault (the sweep engine dying
// without a report) is 500, not a 400 blaming the request.
func TestInternalErrorIs500(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain()
	srv.runSweep = func(spec sweep.Spec, opt sweep.Options) (*sweep.Report, error) {
		return nil, errors.New("simulator exploded")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := fmt.Sprintf(`{"base": %s, "axes": [{"param": "weight", "target": "/be", "values": [1]}]}`, scenarioJSON(1))
	resp, body := post(t, ts, "/v1/sweep", spec)
	if resp.StatusCode != 500 {
		t.Errorf("internal fault: status %d (want 500), body %s", resp.StatusCode, body)
	}
}

// TestVerifyBounded: cache-hit responses return immediately while
// verification runs in the background, and the verification semaphore
// skips (not queues) samples arriving while one is already running.
func TestVerifyBounded(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, VerifyFraction: 1})
	var verifying atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		if verifying.Load() {
			entered <- struct{}{}
			<-release
		}
		return "d", map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post(t, ts, "/v1/simulate", scenarioJSON(1)) // miss: populate cache
	verifying.Store(true)

	// This hit samples a verification that blocks in the background; the
	// response itself must come back while it is still blocked.
	resp, _ := post(t, ts, "/v1/simulate", scenarioJSON(1))
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("hit during verification: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	<-entered // the verification is now occupying the only slot

	// Further sampled hits find the semaphore full and are skipped.
	post(t, ts, "/v1/simulate", scenarioJSON(1))
	waitFor(t, func() bool { return srv.Snapshot().VerifySkipped == 1 })

	close(release)
	srv.Drain() // waits for the in-flight verification
	m := srv.Snapshot()
	if m.VerifyRuns != 1 || m.VerifyFailures != 0 {
		t.Errorf("verify runs=%d failures=%d, want 1/0", m.VerifyRuns, m.VerifyFailures)
	}
}

func TestReadyzAndDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != 200 {
		t.Errorf("readyz %d", resp.StatusCode)
	}
	srv.SetReady(false)
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != 503 {
		t.Errorf("readyz while draining: %d", resp.StatusCode)
	}
	srv.Drain()
	// Work arriving after the drain is refused as unavailable, not queued.
	resp, _ := post(t, ts, "/v1/simulate", scenarioJSON(1))
	if resp.StatusCode != 503 {
		t.Errorf("post-drain request: %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{Workers: 3, QueueDepth: 5})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post(t, ts, "/v1/simulate", scenarioJSON(1))
	// A worker records the task done after the task returns, when the
	// handler may already have responded.
	waitFor(t, func() bool { return srv.pool.Done() == 1 })
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Workers != 3 || m.QueueCapacity != 5 || !m.Ready {
		t.Errorf("metrics %+v", m)
	}
	if m.Endpoints["simulate"].Count != 1 || m.Endpoints["simulate"].LatencyMS.N != 1 {
		t.Errorf("endpoint stats %+v", m.Endpoints["simulate"])
	}
	if m.TasksDone != 1 || m.Cache.Misses != 1 {
		t.Errorf("tasks=%d cache=%+v", m.TasksDone, m.Cache)
	}
}

// TestConcurrentLoad is the acceptance scenario: 64 concurrent requests
// over 8 distinct scenarios against a queue of 16 — no 5xx ever, shed
// requests get 429 and succeed on retry, every scenario's responses are
// byte-identical, and the final drain leaves nothing in flight. Run under
// -race this also proves the serving layer shares no simulation state.
func TestConcurrentLoad(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		requests  = 64
		scenarios = 8
	)
	var (
		mu     sync.Mutex
		bodies = map[int][][]byte{}
		shed   int
	)
	var wg sync.WaitGroup
	errCh := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		scenario := i % scenarios
		go func() {
			defer wg.Done()
			for attempt := 0; attempt < 400; attempt++ {
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
					strings.NewReader(scenarioJSON(scenario+1)))
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				switch {
				case resp.StatusCode == 200:
					mu.Lock()
					bodies[scenario] = append(bodies[scenario], body)
					mu.Unlock()
					return
				case resp.StatusCode == 429:
					mu.Lock()
					shed++
					mu.Unlock()
					time.Sleep(5 * time.Millisecond)
				case resp.StatusCode >= 500:
					errCh <- fmt.Errorf("server error %d: %s", resp.StatusCode, body)
					return
				default:
					errCh <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
			errCh <- fmt.Errorf("scenario %d starved by shedding", scenario)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for sc, bs := range bodies {
		if len(bs) != requests/scenarios {
			t.Errorf("scenario %d: %d responses", sc, len(bs))
		}
		for _, b := range bs {
			if !bytes.Equal(b, bs[0]) {
				t.Fatalf("scenario %d responses differ:\n%s\nvs\n%s", sc, b, bs[0])
			}
		}
	}

	m := srv.Snapshot()
	if int(m.Shed) != shed {
		t.Errorf("shed counter %d, observed %d 429s", m.Shed, shed)
	}
	// Each scenario simulated at least once; the rest were cache hits.
	if m.Cache.Misses < scenarios || m.Cache.Hits == 0 {
		t.Errorf("cache %+v", m.Cache)
	}

	// Graceful drain: nothing left queued or running afterwards.
	srv.Drain()
	m = srv.Snapshot()
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("after drain: in-flight=%d queued=%d", m.InFlight, m.QueueDepth)
	}
}
