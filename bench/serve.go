package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/server"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
)

// serveRate is the serve workload's fixed arrival rate in requests per
// second. Half the requests are misses (500 in a 25 s run). At this rate
// the pool is about a quarter busy on the 2-CPU machine the benchmark was
// calibrated on (see README.md): latency reflects service more than
// queueing, which would amplify every change in machine speed.
const serveRate = 40

// checkEvery samples the distinct served keys whose digests are checked
// against sweep.ExecuteConfig after the measured phase.
const checkEvery = 8

// tenantsPolicy is examples/policies/tenants.json.
const tenantsPolicy = `{
  "default_weight": 1,
  "default_quota": 32,
  "tenants": {
    "gold":   {"weight": 4, "quota": 64},
    "bronze": {"weight": 1, "quota": 64},
    "victim": {"weight": 1, "quota": 16},
    "flood":  {"weight": 1, "quota": 64}
  }
}`

// daemonConfig is hsfqd's default serving configuration with the given
// policy: tracing on, one worker per CPU but one, so the load generator
// keeps a CPU of its own.
func daemonConfig(pol *tenantsched.Policy) server.Config {
	return server.Config{
		Workers:         max(1, runtime.NumCPU()-1),
		QueueDepth:      64,
		CacheEntries:    1024,
		CacheBytes:      64 << 20,
		TraceBytes:      4 << 20,
		TraceCacheBytes: 32 << 20,
		Policy:          pol,
	}
}

// serveBench is the serve workload: an open-loop Poisson schedule of
// POST /v1/simulate requests from two tenants, each request sent by its own
// goroutine at its due time straight into Server.ServeHTTP.
type serveBench struct {
	srv   *server.Server
	plan  serveSchedule
	cfgs  []simconfig.Config
	keys  []string
	wkrs  int
	drain sync.Once
}

func setupServe(rc *runCtx) (measurer, error) {
	pol, err := tenantsched.ParsePolicy(strings.NewReader(tenantsPolicy))
	if err != nil {
		return nil, err
	}
	b := &serveBench{plan: serveInputs(rc.seed, serveRate, rc.seconds)}
	for i, body := range b.plan.Bodies {
		c, err := simconfig.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("serve job %d: %w", i, err)
		}
		b.cfgs = append(b.cfgs, c)
		b.keys = append(b.keys, sweep.JobKey(c, c.Seed))
	}
	cfg := daemonConfig(pol)
	b.wkrs = cfg.Workers
	b.srv = server.New(cfg)
	return b, nil
}

func (b *serveBench) close() { b.drain.Do(b.srv.Drain) }

// waitUntil returns at t. Sleeping overshoots by about a millisecond, so it
// sleeps to 2 ms before t and yields in a loop for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// served is one request's outcome.
type served struct {
	status int
	cache  string // X-Cache: miss, hit or coalesced
	body   []byte
	lat    time.Duration // from the due time to the response
	inCall time.Duration // inside ServeHTTP
}

// simulate sends one POST /v1/simulate through the handler.
func simulate(srv http.Handler, body []byte, tenant string) served {
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	return served{status: rec.Code, cache: rec.Header().Get("X-Cache"), body: rec.Body.Bytes(), inCall: time.Since(t0)}
}

func (b *serveBench) measure(rc *runCtx) {
	reqs := b.plan.Requests
	outs := make([]served, len(reqs))
	late := make([]float64, len(reqs))

	stopSampling := make(chan struct{})
	var depthMax, inflightSum, samples float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				snap := b.srv.Snapshot()
				depthMax = max(depthMax, float64(snap.QueueDepth))
				inflightSum += float64(snap.InFlight)
				samples++
			}
		}
	}()

	rc.openLoop = true
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(rq.At)
		// Until the next send, time reference chunks whenever no request is
		// outstanding, so they neither compete with the server nor delay a
		// send; the first chunk after the CPU was idle is not recorded.
		warm := false
		for time.Until(due) > 3*time.Millisecond {
			switch {
			case outstanding.Load() != 0:
				warm = false
				time.Sleep(200 * time.Microsecond)
			case !warm:
				rc.ref.warm()
				warm = true
			default:
				rc.ref.chunk()
			}
		}
		waitUntil(due)
		late[i] = ms(time.Since(due))
		wg.Add(1)
		outstanding.Add(1)
		go func(i int, rq request, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			id := rc.spans.begin("server.ServeHTTP", 0, int64(i+1))
			out := simulate(b.srv, b.plan.Bodies[rq.Job], rq.Tenant)
			rc.spans.end(id)
			out.lat = time.Since(due)
			outs[i] = out
		}(i, rq, due)
	}
	wg.Wait()
	rc.phase = time.Since(start)
	close(stopSampling)
	sampler.Wait()
	snap := b.srv.Snapshot()

	var missMs, hitMs, coalMs, missCall, hitCall, coalCall []float64
	first := make([][]byte, len(b.plan.Bodies)) // each key's miss body
	for i, o := range outs {
		rc.attempted++
		job := reqs[i].Job
		if o.status != http.StatusOK {
			rc.fail("request %d (job %d): status %d: %s", i, job, o.status, bytes.TrimSpace(o.body))
			continue
		}
		switch o.cache {
		case "miss":
			missMs = append(missMs, ms(o.lat))
			missCall = append(missCall, ms(o.inCall))
			rc.addOp(start.Add(reqs[i].At), o.lat, 1, int64(b.cfgs[job].Horizon.Time()))
			if first[job] == nil {
				first[job] = o.body
			}
		case "hit":
			hitMs = append(hitMs, ms(o.lat))
			hitCall = append(hitCall, ms(o.inCall)*1000)
		case "coalesced":
			coalMs = append(coalMs, ms(o.lat))
			coalCall = append(coalCall, ms(o.inCall))
		default:
			rc.fail("request %d: unexpected X-Cache %q", i, o.cache)
		}
	}
	// Every response must be byte-identical to its key's first computed body.
	for i, o := range outs {
		job := reqs[i].Job
		if o.status == http.StatusOK && first[job] != nil && !bytes.Equal(o.body, first[job]) {
			rc.fail("request %d (%s of job %d): body differs from the key's first body", i, o.cache, job)
		}
	}
	// Every checkEvery-th distinct key must match an in-process execution.
	for job, body := range first {
		if body == nil {
			continue
		}
		var resp struct {
			Key    string `json:"key"`
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Key != b.keys[job] {
			rc.fail("job %d: bad body (key %q, err %v)", job, resp.Key, err)
			continue
		}
		rc.output(fmt.Sprintf("%s %s", resp.Key, resp.Digest))
		rc.replay = append(rc.replay, replayItem{body: b.plan.Bodies[job]})
		if job%checkEvery != 0 {
			continue
		}
		rc.attempted++
		digest, _, err := sweep.ExecuteConfig(b.cfgs[job], b.cfgs[job].Seed)
		if err != nil || digest != resp.Digest {
			rc.fail("job %d: served digest %s, ExecuteConfig %s (err %v)", job, resp.Digest, digest, err)
		}
	}

	d := rc.diag
	d.setQ("miss_p99_ms", missMs, 0.99, "ms")
	d.setQ("hit_p50_ms", hitMs, 0.5, "ms")
	d.setQ("hit_p90_ms", hitMs, 0.9, "ms")
	d.setQ("coalesced_p50_ms", coalMs, 0.5, "ms")
	d.setQ("server.miss_ms", missCall, 0.5, "ms")
	d.setQ("server.hit_us", hitCall, 0.5, "us")
	d.setQ("server.coalesced_ms", coalCall, 0.5, "ms")
	hits, misses := float64(snap.Cache.Hits), float64(snap.Cache.Misses)
	d.set("server.cache_hit_ratio", hits/max(hits+misses, 1), "ratio", int(hits+misses))
	d.set("server.coalesced", float64(snap.Coalesced), "count", 0)
	d.set("server.shed", float64(snap.Shed), "count", 0)
	d.set("server.queue_depth_max", depthMax, "count", int(samples))
	d.set("server.utilization_mean", inflightSum/max(samples, 1)/float64(b.wkrs), "ratio", int(samples))
	d.setQ("loadgen.late_p50_ms", late, 0.5, "ms")
	d.setQ("loadgen.late_p99_ms", late, 0.99, "ms")
	d.set("loadgen.sent", float64(len(reqs)), "count", 0)
	d.set("loadgen.completed", float64(len(outs)), "count", 0)
}
