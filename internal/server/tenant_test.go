package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hsfq/internal/simconfig"
	"hsfq/internal/tenantsched"
)

// postTenant posts body with tenant identity headers (empty strings omit
// the header).
func postTenant(t *testing.T, ts *httptest.Server, path, tenant, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestTenantIdentity drives the identity matrix through real HTTP: the
// default tenant for header-less traffic, 400 for malformed names, 403
// for unknown tenants under a strict policy, 401 for a missing or wrong
// API key, and 200 with the right one.
func TestTenantIdentity(t *testing.T) {
	pol := &tenantsched.Policy{
		Strict: true,
		Tenants: map[string]tenantsched.TenantPolicy{
			"gold": {Weight: 4, Key: "sekrit"},
			"open": {Weight: 1},
		},
	}
	srv := New(Config{Workers: 1, QueueDepth: 4, Policy: pol})
	defer srv.Drain()
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name, tenant, key string
		want              int
	}{
		{"headerless is default tenant", "", "", 200},
		{"known keyless tenant", "open", "", 200},
		{"right key", "gold", "sekrit", 200},
		{"missing key", "gold", "", 401},
		{"wrong key", "gold", "nope", 401},
		{"unknown under strict", "stranger", "", 403},
		{"malformed name", "-bad", "", 400},
	}
	for i, c := range cases {
		resp, body := postTenant(t, ts, "/v1/simulate", c.tenant, c.key, scenarioJSON(100+i))
		if resp.StatusCode != c.want {
			t.Errorf("%s: got %d want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
	}
}

// TestTenantMetrics: /metrics grows a tenants section with per-tenant
// scheduling counters, tags, and latency quantiles, plus the tree's
// global virtual time — all additive next to the pre-tenant schema.
func TestTenantMetrics(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain()
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for seed := 1; seed <= 3; seed++ {
		if resp, _ := postTenant(t, ts, "/v1/simulate", "acme", "", scenarioJSON(seed)); resp.StatusCode != 200 {
			t.Fatalf("acme seed %d: %d", seed, resp.StatusCode)
		}
	}
	if resp, _ := post(t, ts, "/v1/simulate", scenarioJSON(4)); resp.StatusCode != 200 {
		t.Fatalf("headerless: %d", resp.StatusCode)
	}
	// A worker records the task done, and the tenant's completion, after
	// the task returns, when the handler may already have responded.
	waitFor(t, func() bool { return srv.pool.Done() == 4 })

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v\n%s", err, body)
	}
	acme, ok := m.Tenants["acme"]
	if !ok {
		t.Fatalf("no acme tenant in metrics: %s", body)
	}
	if acme.Submitted != 3 || acme.Completed != 3 || acme.Shed != 0 {
		t.Errorf("acme counters %+v", acme.TenantSnapshot)
	}
	if acme.Requests.Count != 3 || acme.Requests.LatencyMS.P99 < 0 {
		t.Errorf("acme latency %+v", acme.Requests)
	}
	def, ok := m.Tenants[tenantsched.DefaultTenant]
	if !ok || def.Submitted != 1 {
		t.Errorf("default tenant %+v ok=%v", def.TenantSnapshot, ok)
	}
	if m.VirtualTime <= 0 {
		t.Errorf("virtual time %v, want > 0 after served requests", m.VirtualTime)
	}
	// Finished tenants trail the advancing virtual time by a non-negative
	// lag.
	if acme.VirtualTimeLag < 0 {
		t.Errorf("acme virtual-time lag %v < 0", acme.VirtualTimeLag)
	}
	// Pre-tenant schema fields are still present and sane.
	if m.Workers != 2 || m.QueueCapacity != 8 || m.TasksDone != 4 {
		t.Errorf("legacy fields: workers=%d cap=%d done=%d", m.Workers, m.QueueCapacity, m.TasksDone)
	}
}

// TestPolicyHotSwap: SetPolicy must take effect on live traffic — a
// tenant admitted under the old policy is rejected once the new one
// requires a key, without restarting the server.
func TestPolicyHotSwap(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain()
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := postTenant(t, ts, "/v1/simulate", "acme", "", scenarioJSON(1)); resp.StatusCode != 200 {
		t.Fatalf("open policy: %d", resp.StatusCode)
	}
	srv.SetPolicy(&tenantsched.Policy{Tenants: map[string]tenantsched.TenantPolicy{
		"acme": {Key: "sekrit"},
	}})
	if resp, _ := postTenant(t, ts, "/v1/simulate", "acme", "", scenarioJSON(2)); resp.StatusCode != 401 {
		t.Errorf("after swap without key: %d, want 401", resp.StatusCode)
	}
	if resp, _ := postTenant(t, ts, "/v1/simulate", "acme", "sekrit", scenarioJSON(3)); resp.StatusCode != 200 {
		t.Errorf("after swap with key: %d, want 200", resp.StatusCode)
	}
}
