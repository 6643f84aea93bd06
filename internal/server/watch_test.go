package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// readEvent reads one SSE frame (event name + single data line) from the
// stream, skipping keepalive comments.
func readEvent(t *testing.T, br *bufio.Reader) (name, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended mid-event: %v (name=%q data=%q)", err, name, data)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"): // keepalive comment
		case line == "":
			if name != "" || data != "" {
				return name, data
			}
		}
	}
}

// watchStream opens GET /v1/jobs/{key}?watch=1 and returns a buffered
// reader over the event stream.
func watchStream(t *testing.T, ts *httptest.Server, key string) (*bufio.Reader, func()) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("watch open: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("watch content type %q", ct)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestJobWatchSSE follows a job from before submission to completion:
// the stream reports unknown → queued → running → done, and the done
// event carries exactly the bytes the POST returned.
func TestJobWatchSSE(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain()
	release := make(chan struct{})
	srv.execute = func(cfg simconfig.Config, seed uint64, _ func(*simconfig.Simulation)) (string, map[string]float64, error) {
		<-release
		return fmt.Sprintf("digest-%d", seed), map[string]float64{"x": 1}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The job key is the content address, known before submitting.
	cfg, err := simconfig.Parse(strings.NewReader(scenarioJSON(42)))
	if err != nil {
		t.Fatal(err)
	}
	key := sweep.JobKey(cfg, cfg.Seed)

	br, closeStream := watchStream(t, ts, key)
	defer closeStream()
	if name, data := readEvent(t, br); name != "status" || !strings.Contains(data, "unknown") {
		t.Fatalf("initial event %q %q, want unknown status", name, data)
	}

	type posted struct {
		status int
		body   []byte
	}
	done := make(chan posted, 1)
	go func() {
		resp, body := post(t, ts, "/v1/simulate", scenarioJSON(42))
		done <- posted{resp.StatusCode, body}
	}()

	if name, data := readEvent(t, br); name != "status" || !strings.Contains(data, "queued") {
		t.Fatalf("event %q %q, want queued status", name, data)
	}
	if name, data := readEvent(t, br); name != "status" || !strings.Contains(data, "running") {
		t.Fatalf("event %q %q, want running status", name, data)
	}
	close(release)
	name, data := readEvent(t, br)
	if name != "done" {
		t.Fatalf("terminal event %q %q, want done", name, data)
	}
	p := <-done
	if p.status != 200 {
		t.Fatalf("post: %d", p.status)
	}
	if !bytes.Equal([]byte(data), p.body) {
		t.Errorf("done payload differs from response body:\n%s\nvs\n%s", data, p.body)
	}
	// The stream is closed after the terminal event.
	if _, err := br.ReadByte(); err == nil {
		t.Error("stream still open after done event")
	}

	// A watch on an already-cached job answers done immediately.
	br2, closeStream2 := watchStream(t, ts, key)
	defer closeStream2()
	if name, data := readEvent(t, br2); name != "done" || !bytes.Equal([]byte(data), p.body) {
		t.Errorf("cached watch: %q %q", name, data)
	}
}

// TestJobWatchDrainClosesStreams: drain must end every open watch stream
// with a final draining status, and refuse new watches with 503 — so a
// long-lived stream can never hold graceful shutdown hostage.
func TestJobWatchDrainClosesStreams(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	key := strings.Repeat("ab", 32)
	br, closeStream := watchStream(t, ts, key)
	defer closeStream()
	if name, data := readEvent(t, br); name != "status" || !strings.Contains(data, "unknown") {
		t.Fatalf("initial event %q %q", name, data)
	}

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	if name, data := readEvent(t, br); name != "status" || !strings.Contains(data, "draining") {
		t.Fatalf("drain event %q %q, want draining status", name, data)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Error("stream still open after drain")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain blocked on an open watch stream")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("watch after drain: %d, want 503", resp.StatusCode)
	}
}
