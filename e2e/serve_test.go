//go:build e2e

package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tenantPolicy names gold:4, bronze:1, victim:1 and flood:1.
const tenantPolicy = "../examples/policies/tenants.json"

// The tenant tests use a long horizon at a fine quantum, so one request
// costs real worker milliseconds: offered load exceeds the pool and the
// SFQ tree, not an idle queue, decides dispatch order. The classic test
// keeps the cheap job, because there the hit/miss mix is the point.
const (
	lightHorizon, lightQuantum = "100ms", "5ms"
	heavyHorizon, heavyQuantum = "150s", "1ms"
)

// TestServeClassic fires 64 concurrent requests over 8 scenarios at a
// daemon with a queue of 16, so requests are shed and retried. It
// requires zero 5xx, byte-identical bodies for every repeat of a
// scenario, the pre-tenant /metrics fields, and a clean drain, with and
// without a tenant policy.
func TestServeClassic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"no-policy", nil},
		{"tenants.json", []string{"-policy", tenantPolicy}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startDaemon(t, append([]string{"-queue", "16", "-workers", "4", "-verify-cache", "0.1"}, tc.flags...)...)
			const requests, scenarios = 64, 8
			bodies := make([][]byte, requests)
			errs := make([]error, requests)
			var wg sync.WaitGroup
			for i := range requests {
				wg.Add(1)
				go func() {
					defer wg.Done()
					bodies[i], errs[i] = request(d.URL, "", scenario(i%scenarios+1, lightHorizon, lightQuantum))
				}()
			}
			wg.Wait()
			for i := range requests {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if first := bodies[i%scenarios]; string(bodies[i]) != string(first) {
					t.Fatalf("scenario %d: response bytes differ across requests", i%scenarios)
				}
			}

			// The pre-tenant /metrics fields still decode, whatever else
			// was added.
			var m struct {
				Workers       int                        `json:"workers"`
				QueueCapacity int                        `json:"queue_capacity"`
				TasksDone     int64                      `json:"tasks_done"`
				Cache         map[string]json.RawMessage `json:"cache"`
				Endpoints     map[string]json.RawMessage `json:"endpoints"`
			}
			getJSON(t, d.URL+"/metrics", &m)
			if m.Workers <= 0 || m.QueueCapacity <= 0 || m.TasksDone <= 0 || m.Cache == nil || m.Endpoints["simulate"] == nil {
				t.Errorf("legacy /metrics fields missing or zero: %+v", m)
			}
		})
	}
}

type tenant struct {
	name   string
	weight float64
}

// TestServeWeightedTenants saturates a two-worker daemon from gold:4 and
// bronze:1 at once, 16 clients each, every request a distinct job. Over
// a 3 s window after a warmup, each tenant's completions per unit weight
// must agree within 1.5x, and a shared scenario must be byte-identical
// across both tenants and header-less traffic.
//
// The window opens after warmup because SFQ's guarantee holds while
// every tenant is backlogged, not during ramp-up or the final drain. It
// closes once each tenant has 10 completions in it; on a slow machine the
// load runs on, for at most 3 more windows, until they do.
func TestServeWeightedTenants(t *testing.T) {
	d := startDaemon(t, "-policy", tenantPolicy, "-queue", "64", "-workers", "2", "-verify-cache", "0.1")
	tenants := []tenant{{"gold", 4}, {"bronze", 1}}
	const (
		window       = 3 * time.Second
		warmup       = window / 4
		clients      = 16
		minCompleted = 10
		maxExtension = 3
		pollEvery    = 100 * time.Millisecond
		tolerance    = 1.5
	)
	deadline := time.Now().Add(warmup + window)

	var stopping atomic.Bool
	var wg sync.WaitGroup
	loadErr := make(chan error, len(tenants)*clients)
	for ti, tn := range tenants {
		for g := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 0; !stopping.Load(); seq++ {
					seed := (ti+1)*10_000_000 + g*100_000 + seq
					if _, err := request(d.URL, tn.name, scenario(seed, heavyHorizon, heavyQuantum)); err != nil {
						loadErr <- fmt.Errorf("tenant %s: %w", tn.name, err)
						return
					}
				}
			}()
		}
	}
	stopLoad := func() {
		stopping.Store(true)
		wg.Wait()
	}
	defer stopLoad()

	time.Sleep(warmup)
	before := tenantStats(t, d.URL)
	opened := time.Now()
	time.Sleep(time.Until(deadline))
	var after map[string]tenantStat
	for extendUntil := deadline.Add(maxExtension * window); ; time.Sleep(pollEvery) {
		after = tenantStats(t, d.URL)
		fewest := after[tenants[0].name].Completed - before[tenants[0].name].Completed
		for _, tn := range tenants[1:] {
			fewest = min(fewest, after[tn.name].Completed-before[tn.name].Completed)
		}
		if fewest >= minCompleted || !time.Now().Before(extendUntil) {
			break
		}
	}
	elapsed := time.Since(opened)
	stopLoad()
	select {
	case err := <-loadErr:
		t.Fatal(err)
	default:
	}
	t.Logf("window %v", elapsed.Round(time.Millisecond))

	var norms []float64
	for _, tn := range tenants {
		n := after[tn.name].Completed - before[tn.name].Completed
		if n < minCompleted {
			t.Fatalf("tenant %s completed only %d requests in %v; not enough signal", tn.name, n, elapsed)
		}
		norms = append(norms, float64(n)/tn.weight)
		t.Logf("tenant %s weight %.0f: %d completed (%.1f/weight)", tn.name, tn.weight, n, norms[len(norms)-1])
	}
	if lo, hi := slices.Min(norms), slices.Max(norms); hi > tolerance*lo {
		t.Errorf("completions per weight spread %.2f..%.2f exceeds %.1fx", lo, hi, tolerance)
	}

	// Results are content-addressed, not tenant-addressed: a shared
	// scenario is byte-identical for every tenant and for header-less
	// traffic.
	shared := scenario(424_242, heavyHorizon, heavyQuantum)
	var ref []byte
	for _, who := range []string{"", "gold", "bronze"} {
		body, err := request(d.URL, who, shared)
		if err != nil {
			t.Fatalf("shared scenario as %q: %v", who, err)
		}
		if ref == nil {
			ref = body
		} else if string(body) != string(ref) {
			t.Errorf("shared scenario bytes differ for tenant %q", who)
		}
	}
	requireTenants(t, d.URL, "gold", "bronze")
}

// TestServeFloodIsolation measures a victim tenant's p99 latency alone
// for 2 s, then for 2 s more under a flood from a second tenant of equal
// weight, 16 clients that ignore shedding. The p99 under flood must stay
// within 10x the p99 alone, floored at 25 ms so a tiny baseline cannot
// make the bound meaningless: Theorem 1's isolation, at the serving
// layer.
func TestServeFloodIsolation(t *testing.T) {
	d := startDaemon(t, "-policy", tenantPolicy, "-queue", "64", "-workers", "2", "-verify-cache", "0.1")
	const (
		phase    = 2 * time.Second
		flooders = 16
		bound    = 10
		floor    = 25 * time.Millisecond
	)

	alone := victimPass(t, d.URL, 1_000_000, phase)

	flooding := make(chan struct{})
	var wg sync.WaitGroup
	stopFlood := sync.OnceFunc(func() {
		close(flooding)
		wg.Wait()
	})
	defer stopFlood()
	for g := range flooders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-flooding:
					return
				default:
				}
				// Seeds disjoint from the victim's: a shared seed would
				// coalesce a victim request onto a job deep in the
				// flood's queue and charge its wait to the victim. The
				// outcome is dropped: a flood does not back off when shed.
				_, _, _ = postOnce(d.URL, "flood", scenario(20_000_000+g*100_000+seq, heavyHorizon, heavyQuantum))
			}
		}()
	}
	under := victimPass(t, d.URL, 3_000_000, phase)
	stopFlood()

	p99Alone, p99Flood := quantile(alone, 99), quantile(under, 99)
	limit := bound * max(p99Alone, floor)
	t.Logf("victim alone: n=%d p50=%v p99=%v", len(alone), quantile(alone, 50), p99Alone)
	t.Logf("victim under flood: n=%d p50=%v p99=%v (limit %v)", len(under), quantile(under, 50), p99Flood, limit)
	requireTenants(t, d.URL, "victim", "flood")
	if p99Flood > limit {
		t.Errorf("isolation violated: victim p99 %v under flood exceeds %v", p99Flood, limit)
	}
}

// victimPass sends sequential distinct requests as the victim tenant for
// the given duration and returns their latencies.
func victimPass(t *testing.T, base string, seedBase int, duration time.Duration) []time.Duration {
	t.Helper()
	var lat []time.Duration
	for seq, end := 0, time.Now().Add(duration); time.Now().Before(end); seq++ {
		start := time.Now()
		if _, err := request(base, "victim", scenario(seedBase+seq, heavyHorizon, heavyQuantum)); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	if len(lat) < 10 {
		t.Fatalf("victim completed only %d requests in %v; not enough signal", len(lat), duration)
	}
	return lat
}

// quantile returns the pct-th percentile of lat.
func quantile(lat []time.Duration, pct int) time.Duration {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return sorted[min(len(sorted)*pct/100, len(sorted)-1)]
}

// tenantStat is one tenant's entry in /metrics.
type tenantStat struct {
	Weight    float64 `json:"weight"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Shed      int64   `json:"shed"`
}

// tenantStats reads the tenants' /metrics entries. A tenant the daemon
// has not seen yet is absent, and reads as zero.
func tenantStats(t *testing.T, base string) map[string]tenantStat {
	t.Helper()
	var m struct {
		Tenants map[string]tenantStat `json:"tenants"`
	}
	getJSON(t, base+"/metrics", &m)
	return m.Tenants
}

// requireTenants requires each named tenant in /metrics and logs its
// counters.
func requireTenants(t *testing.T, base string, names ...string) {
	t.Helper()
	stats := tenantStats(t, base)
	for _, name := range names {
		st, ok := stats[name]
		if !ok {
			t.Errorf("tenant %q missing from /metrics", name)
			continue
		}
		t.Logf("/metrics tenant %s: %+v", name, st)
	}
}

// getJSON decodes the JSON body of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
