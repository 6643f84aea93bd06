package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsfq/internal/dispatch"
	"hsfq/internal/server"
	"hsfq/internal/sweep"
	"hsfq/internal/testutil"
)

const testSpec = `{
  "name": "mesh-test",
  "seeds": 2,
  "base": {
    "rate_mips": 100,
    "horizon": "20ms",
    "seed": 7,
    "nodes": [
      {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
      {"path": "/be", "weight": 1, "leaf": "sfq"}
    ],
    "threads": [
      {"name": "a", "leaf": "/soft", "weight": 2, "program": {"kind": "loop"}},
      {"name": "b", "leaf": "/be", "program": {"kind": "loop"}}
    ]
  },
  "axes": [
    {"param": "quantum", "target": "/soft", "values": ["5ms", "20ms"]}
  ]
}`

func writeSpec(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(p, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// serialJSONL is the reference: the spec run by the in-process engine.
func serialJSONL(t *testing.T) []byte {
	t.Helper()
	spec, err := sweep.ParseSpec(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sweep.Run(spec, sweep.Options{Workers: 1, Stream: &buf}); err != nil {
		t.Fatalf("serial reference run: %v", err)
	}
	return buf.Bytes()
}

func testOpts() dispatch.Options {
	return dispatch.Options{
		Batch: 2, Timeout: time.Minute, Retries: 2,
		Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
	}
}

func TestRunLocalOnly(t *testing.T) {
	want := serialJSONL(t)
	var stdout, stderr bytes.Buffer
	code, err := run(context.Background(), writeSpec(t), "", testOpts(),
		"-", false, "work_total", false, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v, stderr %s", code, err, stderr.Bytes())
	}
	if d := testutil.DiffBytes(stdout.Bytes(), want); d != "" {
		t.Errorf("local-only output differs from serial: %s", d)
	}
}

func TestRunAgainstHTTPBackends(t *testing.T) {
	want := serialJSONL(t)
	var urls []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Workers: 2, QueueDepth: 8, SweepWorkers: 2})
		t.Cleanup(srv.Drain)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	var stdout, stderr bytes.Buffer
	code, err := run(context.Background(), writeSpec(t), strings.Join(urls, ","), testOpts(),
		"-", true, "work_total", true, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v, stderr %s", code, err, stderr.Bytes())
	}
	out := stdout.Bytes()
	if !bytes.HasPrefix(out, want) {
		t.Errorf("mesh JSONL differs from serial:\n got: %s\nwant: %s", out, want)
	}
	if !bytes.Contains(out, []byte(`sweep "mesh-test"`)) {
		t.Errorf("summary missing from stdout: %s", out)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("dispatched=")) {
		t.Errorf("per-backend stats missing from stderr: %s", stderr.Bytes())
	}
}

// digestRE matches the start of a JSON digest field.
var digestRE = regexp.MustCompile(`"digest":"[0-9a-f]`)

// corruptingBackend fronts a real hsfqd server with a reverse proxy that
// flips the first digit of every outcome digest in POST /v1/jobs
// responses: a backend with bit rot or a diverging build.
func corruptingBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	t.Cleanup(srv.Drain)
	backend := httptest.NewServer(srv)
	t.Cleanup(backend.Close)
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.Method != http.MethodPost || resp.Request.URL.Path != "/v1/jobs" {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		body = digestRE.ReplaceAllFunc(body, func(m []byte) []byte {
			if d := &m[len(m)-1]; *d == '0' {
				*d = '1'
			} else {
				*d = '0'
			}
			return m
		})
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	ts := httptest.NewServer(rp)
	t.Cleanup(ts.Close)
	return ts
}

func TestCorruptBackendExitsMismatch(t *testing.T) {
	want := serialJSONL(t)
	ts := corruptingBackend(t)
	opt := testOpts()
	opt.VerifyFraction = 1
	var quarantined atomic.Bool
	opt.Logf = func(f string, a ...any) {
		if strings.Contains(fmt.Sprintf(f, a...), "QUARANTINED") {
			quarantined.Store(true)
		}
	}
	var stdout, stderr bytes.Buffer
	code, err := run(context.Background(), writeSpec(t), ts.URL, opt,
		"-", false, "work_total", false, &stdout, &stderr)
	if code != exitMismatch {
		t.Fatalf("code = %d, want %d (err %v)", code, exitMismatch, err)
	}
	if err == nil || !strings.Contains(err.Error(), "digest verification") {
		t.Errorf("err = %v", err)
	}
	if !quarantined.Load() {
		t.Error("no QUARANTINED line logged")
	}
	// Detection does not sacrifice the output: every corrupt result was
	// replaced by the local authority's, so the JSONL is still right.
	if d := testutil.DiffBytes(stdout.Bytes(), want); d != "" {
		t.Errorf("output not repaired: %s", d)
	}
}

func TestBadBackendURL(t *testing.T) {
	code, err := run(context.Background(), writeSpec(t), "::not a url::", testOpts(),
		"", false, "work_total", false, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || code != 2 {
		t.Fatalf("code %d, err %v; want usage error", code, err)
	}
}
