package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
	"hsfq/internal/trace"
	"hsfq/internal/tracediff"
	"hsfq/internal/tracestream"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// parseSSE splits a complete SSE body into events, skipping keepalives.
func parseSSE(body string) []sseEvent {
	var out []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = name
			} else if data, ok := strings.CutPrefix(line, "data: "); ok {
				ev.data = data
			}
		}
		if ev.name != "" {
			out = append(out, ev)
		}
	}
	return out
}

// TestTraceFollowReplayDigest is the acceptance check of the trace
// service: hashing the rows a follow stream delivers reproduces the
// trace.Hasher digest of the run — the stream is the trace, byte for
// byte.
func TestTraceFollowReplayDigest(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, TraceBytes: 4 << 20})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/simulate", scenarioJSON(7))
	if resp.StatusCode != 200 {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var r simulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	// Reference digest: the same job run directly with a stream hasher.
	cfg, err := simconfig.Parse(strings.NewReader(scenarioJSON(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	if _, _, err := sweep.ExecuteConfigListened(cfg, cfg.Seed, nil, func(s *simconfig.Simulation) {
		s.Machine.Listen(h)
	}); err != nil {
		t.Fatal(err)
	}

	fresp, fbody := get(t, ts, "/v1/trace/"+r.Key+"?follow=1")
	if fresp.StatusCode != 200 {
		t.Fatalf("follow: %d %s", fresp.StatusCode, fbody)
	}
	events := parseSSE(string(fbody))
	sum := sha256.New()
	rows := 0
	var endDigest string
	var endRows int
	for _, ev := range events {
		switch ev.name {
		case "row":
			fmt.Fprintf(sum, "%s\n", ev.data)
			rows++
		case "dropped":
			t.Fatalf("follow of a complete recording dropped events: %s", ev.data)
		case "end":
			var e struct {
				Rows   int    `json:"rows"`
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatal(err)
			}
			endDigest, endRows = e.Digest, e.Rows
		}
	}
	if rows == 0 || endDigest == "" {
		t.Fatalf("stream had %d rows, end digest %q", rows, endDigest)
	}
	got := fmt.Sprintf("%x", sum.Sum(nil))
	if got != endDigest || rows != endRows {
		t.Fatalf("client digest %s (%d rows) != stream's end digest %s (%d rows)", got, rows, endDigest, endRows)
	}
	if got != h.Sum() || rows != h.Rows() {
		t.Fatalf("stream digest %s (%d rows) != direct hasher %s (%d rows)", got, rows, h.Sum(), h.Rows())
	}
}

// TestTraceRawAndViews covers the replay modes: raw wire frames decode
// back to the digested stream, and the timeline/gantt views render from
// the same recording.
func TestTraceRawAndViews(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, TraceBytes: 4 << 20})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := post(t, ts, "/v1/simulate", scenarioJSON(3))
	var r simulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	resp, raw := get(t, ts, "/v1/trace/"+r.Key)
	if resp.StatusCode != 200 {
		t.Fatalf("raw: %d %s", resp.StatusCode, raw)
	}
	if st := resp.Header.Get("X-Trace-State"); st != "done" {
		t.Fatalf("state %q", st)
	}
	dec := tracestream.NewDecoder()
	dec.Feed(raw)
	rd := trace.NewHasher()
	var endDigest string
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			break
		}
		switch f.Type {
		case tracestream.FrameEvent:
			rd.Add(f.Event)
		case tracestream.FrameEnd:
			endDigest = f.Digest
		}
	}
	if endDigest == "" || rd.Sum() != endDigest {
		t.Fatalf("raw replay digest %s != end frame %s", rd.Sum(), endDigest)
	}
	if resp.Header.Get("X-Trace-Digest") != endDigest {
		t.Fatalf("X-Trace-Digest %q != %s", resp.Header.Get("X-Trace-Digest"), endDigest)
	}

	resp, tl := get(t, ts, "/v1/trace/"+r.Key+"?view=timeline")
	if resp.StatusCode != 200 {
		t.Fatalf("timeline: %d %s", resp.StatusCode, tl)
	}
	var doc traceTimelineResponse
	if err := json.Unmarshal(tl, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Digest != endDigest || len(doc.Timeline.Lanes) == 0 {
		t.Fatalf("timeline doc: digest %s, %d lanes", doc.Digest, len(doc.Timeline.Lanes))
	}
	// Threads sit at depth 1 in the scenario's tree (/soft, /be).
	if doc.Timeline.Lanes[0].Depth != 1 || len(doc.Timeline.Lanes[0].Threads) != 2 {
		t.Fatalf("lane 0: %+v", doc.Timeline.Lanes[0])
	}

	resp, page := get(t, ts, "/v1/trace/"+r.Key+"?view=gantt")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("gantt: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	html := string(page)
	for _, want := range []string{"depth 1", "dec (/soft)", "hog (/be)", "class=\"bar\"", endDigest} {
		if !strings.Contains(html, want) {
			t.Fatalf("gantt page missing %q", want)
		}
	}

	if resp, _ := get(t, ts, "/v1/trace/"+r.Key+"?view=bogus"); resp.StatusCode != 400 {
		t.Errorf("bogus view: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/trace/"+strings.Repeat("0", 64)); resp.StatusCode != 404 {
		t.Errorf("unknown key: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/trace/nothex"); resp.StatusCode != 404 {
		t.Errorf("malformed key: %d", resp.StatusCode)
	}
}

// TestTraceLRUAccountsRecordedBytes pins the finished-trace LRU's byte
// accounting to the recordings it holds: each entry counts
// len(Snapshot().Frames) and the total is their sum, for complete
// recordings and for ones truncated at the recording cap.
func TestTraceLRUAccountsRecordedBytes(t *testing.T) {
	for _, tc := range []struct{ recBytes, truncated int }{{4 << 20, 0}, {256, 3}} {
		srv := New(Config{Workers: 2, QueueDepth: 8, TraceBytes: tc.recBytes})
		ts := httptest.NewServer(srv)
		for seed := 1; seed <= 3; seed++ {
			if resp, body := post(t, ts, "/v1/simulate", scenarioJSON(seed)); resp.StatusCode != 200 {
				t.Fatalf("simulate: %d %s", resp.StatusCode, body)
			}
		}
		h := srv.traces
		h.mu.Lock()
		var frames int64
		truncated := 0
		for key, e := range h.done {
			rec := e.bc.Snapshot()
			e.mu.Lock()
			if e.bytes != len(rec.Frames) {
				t.Errorf("trace %s accounts %d bytes, recording holds %d", key, e.bytes, len(rec.Frames))
			}
			e.mu.Unlock()
			frames += int64(len(rec.Frames))
			if rec.Truncated {
				truncated++
			}
		}
		done, doneSize := len(h.done), h.doneSize
		h.mu.Unlock()
		ts.Close()
		srv.Drain()
		if done != 3 || doneSize != frames {
			t.Errorf("cap %d: %d finished traces account %d bytes, recordings hold %d", tc.recBytes, done, doneSize, frames)
		}
		if truncated != tc.truncated {
			t.Errorf("cap %d: %d of %d recordings truncated, want %d", tc.recBytes, truncated, done, tc.truncated)
		}
	}
}

// TestTraceDisabled pins the opt-in: without TraceBytes the endpoint is
// 404 and executions stay on the plain path.
func TestTraceDisabled(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := post(t, ts, "/v1/simulate", scenarioJSON(1))
	var r simulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts, "/v1/trace/"+r.Key); resp.StatusCode != 404 {
		t.Fatalf("tracing disabled: %d", resp.StatusCode)
	}
}

// TestDiffEndpointMatchesBatch plants a divergence and checks the
// endpoint localizes it to the same event as a direct tracediff run —
// the CLI and the service share one bisection.
func TestDiffEndpointMatchesBatch(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a := scenarioJSON(7)
	// Same structure, one weight bumped: the SFQ tags drift apart and the
	// schedules part ways at some dispatch after t=0.
	b := strings.Replace(a, `"path": "/soft", "weight": 3`, `"path": "/soft", "weight": 4`, 1)
	if a == b {
		t.Fatal("failed to plant divergence")
	}
	body := fmt.Sprintf(`{"a":{"config":%s},"b":{"config":%s},"grid":8}`, a, b)

	resp, out := post(t, ts, "/v1/diff", body)
	if resp.StatusCode != 200 {
		t.Fatalf("diff: %d %s", resp.StatusCode, out)
	}
	var res tracediff.Result
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Divergent() || res.DivergenceAtNs <= 0 || res.FirstRows == nil {
		t.Fatalf("result: %+v", res)
	}

	cfgA, err := simconfig.Parse(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := simconfig.Parse(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	want, err := tracediff.Diff(
		tracediff.Input{Label: "a", Config: cfgA, Seed: cfgA.Seed},
		tracediff.Input{Label: "b", Config: cfgB, Seed: cfgB.Seed}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergenceAtNs != want.DivergenceAtNs || res.FirstRows.A != want.FirstRows.A {
		t.Fatalf("endpoint localized t=%d (%q), direct diff t=%d (%q)",
			res.DivergenceAtNs, res.FirstRows.A, want.DivergenceAtNs, want.FirstRows.A)
	}

	// Repeating the diff is a cache hit with identical bytes.
	resp2, out2 := post(t, ts, "/v1/diff", body)
	if resp2.Header.Get("X-Cache") != "hit" || string(out2) != string(out) {
		t.Fatalf("repeat: X-Cache=%q, bytes equal=%v", resp2.Header.Get("X-Cache"), string(out2) == string(out))
	}

	// A self-diff is identical.
	resp3, out3 := post(t, ts, "/v1/diff", fmt.Sprintf(`{"a":{"config":%s},"b":{"config":%s}}`, a, a))
	if resp3.StatusCode != 200 {
		t.Fatalf("self-diff: %d %s", resp3.StatusCode, out3)
	}
	var same tracediff.Result
	if err := json.Unmarshal(out3, &same); err != nil {
		t.Fatal(err)
	}
	if same.Status != tracediff.StatusIdentical || same.Rows == 0 {
		t.Fatalf("self-diff: %+v", same)
	}

	if resp, _ := post(t, ts, "/v1/diff", `{"a":{"config":{}},"b":{"config":{}},"grid":100000}`); resp.StatusCode != 400 {
		t.Errorf("absurd grid: %d", resp.StatusCode)
	}
}

// TestTraceFollowQuotaAndDraining holds a live follow stream open and
// checks the per-tenant stream cap (429 beyond it) and the draining
// protocol (active stream gets a final "draining" status; new follows
// get 503).
func TestTraceFollowQuotaAndDraining(t *testing.T) {
	srv := New(Config{
		Workers: 1, QueueDepth: 4, TraceBytes: 1 << 20,
		Policy: &tenantsched.Policy{DefaultStreams: 1},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A live trace that never finishes: the stream stays open.
	key := strings.Repeat("ab", 32)
	entry := srv.traces.begin(key, 1<<20)
	if entry == nil {
		t.Fatal("begin refused")
	}
	entry.bc.Begin([]trace.ThreadMeta{{TID: 1, Name: "dec", Depth: 1, Path: "/soft"}})

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/trace/" + key + "?follow=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 1<<16)
		var all []byte
		for {
			n, rerr := resp.Body.Read(buf)
			all = append(all, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		done <- result{body: string(all)}
	}()

	waitFor(t, func() bool {
		srv.streamMu.Lock()
		defer srv.streamMu.Unlock()
		return srv.streams[tenantsched.DefaultTenant] == 1
	})

	// Second follow for the same (default) tenant: over the cap.
	if resp, _ := get(t, ts, "/v1/trace/"+key+"?follow=1"); resp.StatusCode != 429 {
		t.Fatalf("over-cap follow: %d", resp.StatusCode)
	}

	// Drain: the open stream ends with a "draining" status.
	srv.SetReady(false)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	events := parseSSE(res.body)
	last := events[len(events)-1]
	if last.name != "status" || !strings.Contains(last.data, "draining") {
		t.Fatalf("final event %q %q", last.name, last.data)
	}

	// New follows are refused while draining, accepted after reopen.
	if resp, _ := get(t, ts, "/v1/trace/"+key+"?follow=1"); resp.StatusCode != 503 {
		t.Fatalf("draining follow: %d", resp.StatusCode)
	}
	srv.SetReady(true)
	entry.bc.Finish()
	resp, body := get(t, ts, "/v1/trace/"+key+"?follow=1")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "event: end") {
		t.Fatalf("reopened follow: %d %s", resp.StatusCode, body)
	}

	srv.streamMu.Lock()
	open := srv.streams[tenantsched.DefaultTenant]
	srv.streamMu.Unlock()
	if open != 0 {
		t.Fatalf("streams not released: %d", open)
	}

	m := srv.Snapshot()
	if m.Trace == nil || m.Trace.Live != 1 {
		t.Fatalf("trace metrics: %+v", m.Trace)
	}
}

// TestTraceFollowStalledClientFreesSlot follows a long trace from a raw
// TCP client that reads the headers and the first row, then stops reading
// without closing its connection. Once the socket buffers are full, the
// handler's next write must fail at its write deadline, so the handler
// returns and frees the tenant's stream slot.
func TestTraceFollowStalledClientFreesSlot(t *testing.T) {
	defer func(d time.Duration) { sseWriteTimeout = d }(sseWriteTimeout)
	sseWriteTimeout = 100 * time.Millisecond
	srv := New(Config{Workers: 1, QueueDepth: 4, TraceBytes: 16 << 20, TraceCacheBytes: 64 << 20})
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two loop threads taking turns in 100 us quanta for 20 s: 400,000
	// rows, about 21 MB of SSE, far more than the socket buffers hold.
	resp, body := post(t, ts, "/v1/simulate", `{
	  "horizon": "20s",
	  "nodes": [{"path": "/a", "weight": 1, "leaf": "sfq", "quantum": "100us"}],
	  "threads": [
	    {"name": "x", "leaf": "/a", "program": {"kind": "loop"}},
	    {"name": "y", "leaf": "/a", "program": {"kind": "loop"}}
	  ]
	}`)
	if resp.StatusCode != 200 {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var r simulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/trace/%s?follow=1 HTTP/1.1\r\nHost: hsfqd\r\n\r\n", r.Key)
	fresp, err := http.ReadResponse(bufio.NewReaderSize(conn, 4<<10), nil)
	if err != nil || fresp.StatusCode != 200 {
		t.Fatalf("follow: %v %v", fresp, err)
	}
	events := bufio.NewReaderSize(fresp.Body, 4<<10)
	for name := ""; name != "row"; {
		name, _ = readEvent(t, events)
	}

	// The client reads no more and keeps the connection open.
	open := func() int {
		srv.streamMu.Lock()
		defer srv.streamMu.Unlock()
		return srv.streams[tenantsched.DefaultTenant]
	}
	for limit := time.Now().Add(10 * time.Second); open() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatal("the stalled follow stream still holds its slot after 10 s")
		}
	}
}
