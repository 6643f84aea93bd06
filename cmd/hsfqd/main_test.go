package main

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hsfq/internal/server"
)

// TestServeAndDrain runs the daemon's real lifecycle in-process: serve a
// request, deliver SIGTERM, and require readyz to flip, the listener to
// close, in-flight work to finish, and serve to return nil.
func TestServeAndDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + l.Addr().String()

	srv := server.New(server.Config{Workers: 2, QueueDepth: 4})
	hs := &http.Server{Addr: l.Addr().String(), Handler: srv}
	sigCh := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serveListener(hs, srv, sigCh, 10*time.Second, l) }()

	waitOK(t, addr+"/readyz")
	resp, err := http.Post(addr+"/v1/simulate", "application/json", strings.NewReader(
		`{"horizon":"50ms","nodes":[{"path":"/a","leaf":"sfq","quantum":"5ms"}],"threads":[{"name":"t","leaf":"/a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}

	sigCh <- syscall.SIGTERM
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain within 10s of SIGTERM")
	}
	m := srv.Snapshot()
	if m.Ready || m.InFlight != 0 || m.TasksDone != 1 {
		t.Errorf("after drain: ready=%v inflight=%d done=%d", m.Ready, m.InFlight, m.TasksDone)
	}
	// The listener is really closed: new connections are refused.
	if _, err := http.Get(addr + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestLogsBoundAddress listens the way main does for -addr 127.0.0.1:0
// and requires the startup line to name the ephemeral port actually
// bound, not the port 0 that was asked for.
func TestLogsBoundAddress(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	srv := server.New(server.Config{Workers: 1, QueueDepth: 2})
	hs := newHTTPServer("127.0.0.1:0", srv)
	l, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// A pending SIGTERM: serve logs its startup line, then drains at once.
	sigCh := make(chan os.Signal, 1)
	sigCh <- syscall.SIGTERM
	if err := serveListener(hs, srv, sigCh, 5*time.Second, l); err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if want := "listening on " + l.Addr().String() + " "; !strings.Contains(logged.String(), want) {
		t.Errorf("log lacks %q:\n%s", want, logged.String())
	}
}

// TestStalledHeaderDisconnected plays a slowloris client: it sends part
// of a request header and stalls. The daemon's server must hang up on it
// once the header bound passes, and must set no write bound that would
// cut long SSE streams.
func TestStalledHeaderDisconnected(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 2})
	hs := newHTTPServer("127.0.0.1:0", srv)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("bounds: header %v idle %v write %v", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	// The same server with a short header bound, so the test is quick.
	hs.ReadHeaderTimeout = 200 * time.Millisecond

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigCh := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serveListener(hs, srv, sigCh, 5*time.Second, l) }()
	defer func() {
		sigCh <- syscall.SIGTERM
		if err := <-serveErr; err != nil {
			t.Errorf("serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: hsfqd\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
}

// TestReloadPolicy drives the SIGHUP handler directly: a reload swaps
// the live policy (observable as identity enforcement flipping on), and
// a subsequent bad file keeps the last good policy instead of failing
// open.
func TestReloadPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.json")
	srv := server.New(server.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain()
	hupCh := make(chan os.Signal)
	go reloadPolicy(srv, path, hupCh)
	defer close(hupCh)

	status := func(tenant string) int {
		req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader("{}"))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	// Open default policy: unknown tenants are admitted (the empty body
	// then fails validation with 400).
	if got := status("stranger"); got != 400 {
		t.Fatalf("before reload: %d, want 400", got)
	}
	if err := os.WriteFile(path, []byte(`{"strict": true, "tenants": {"acme": {"weight": 2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hupCh <- syscall.SIGHUP
	deadline := time.Now().Add(5 * time.Second)
	for status("stranger") != 403 {
		if time.Now().After(deadline) {
			t.Fatal("strict policy never took effect after SIGHUP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A corrupt file on the next SIGHUP keeps the strict policy.
	if err := os.WriteFile(path, []byte(`{"strict": `), 0o644); err != nil {
		t.Fatal(err)
	}
	hupCh <- syscall.SIGHUP
	time.Sleep(50 * time.Millisecond)
	if got := status("stranger"); got != 403 {
		t.Errorf("after bad reload: %d, want 403 (last good policy)", got)
	}
}

func waitOK(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", url)
}
