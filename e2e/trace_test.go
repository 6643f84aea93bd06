//go:build e2e

package e2e

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/trace"
	"hsfq/internal/tracestream"
)

// traceFlags start a daemon whose per-run recording holds a whole long
// trace.
var traceFlags = []string{"-workers", "2", "-queue", "16", "-trace-bytes", fmt.Sprint(64 << 20)}

// TestTraceFollowLive streams one live job of about 240k events to three
// lossless readers and one throttled reader on a minimum buffer. Each
// lossless stream must be gap-free and hash to the digest its end event
// announces; the throttled one must be told what it lost, with received +
// dropped == total, instead of slowing the run. Then the stored
// recording, fetched raw and decoded through the wire codec, must
// reproduce the live digest.
func TestTraceFollowLive(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, traceFlags...)
	job := scenario(424_242, "150s", "1ms")
	key := jobKey(t, job)
	posted := make(chan error, 1)
	go func() {
		_, err := request(d.URL, "", job)
		posted <- err
	}()

	const lossless = 3
	streams := make([]stream, lossless+1)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < lossless {
				// A buffer that holds the whole run, so a stalled
				// delivery cannot drop rows.
				streams[i] = follow(d.URL, key, 64<<20, false, nil)
			} else {
				streams[i] = follow(d.URL, key, 4096, true, nil)
			}
		}()
	}
	wg.Wait()
	if err := <-posted; err != nil {
		t.Fatalf("traced job: %v", err)
	}

	for i, s := range streams[:lossless] {
		if s.err != nil {
			t.Fatalf("stream %d: %v", i, s.err)
		}
		if !s.sawEnd || s.dropped != 0 {
			t.Fatalf("stream %d: end=%v dropped=%d; want a complete gap-free stream", i, s.sawEnd, s.dropped)
		}
		if s.digest != s.endDigest || s.rows != s.endRows {
			t.Fatalf("stream %d: hashed %d rows to %s, end event announced %d rows %s", i, s.rows, s.digest, s.endRows, s.endDigest)
		}
	}
	slow := streams[lossless]
	if slow.err != nil {
		t.Fatalf("throttled stream: %v", slow.err)
	}
	if !slow.sawEnd || slow.dropped == 0 {
		t.Fatalf("throttled stream: end=%v dropped=%d; want drop accounting, not backpressure", slow.sawEnd, slow.dropped)
	}
	if slow.rows+int(slow.dropped) != slow.endRows {
		t.Fatalf("throttled stream: %d received + %d dropped != %d total", slow.rows, slow.dropped, slow.endRows)
	}
	live := streams[0]
	t.Logf("%d rows, digest %s; throttled reader dropped %d", live.rows, live.digest, slow.dropped)

	resp, err := http.Get(d.URL + "/v1/trace/" + key)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("raw trace: status %d, %v: %.200s", resp.StatusCode, err, frames)
	}
	if got := resp.Header.Get("X-Trace-Digest"); got != live.digest {
		t.Fatalf("recording digest %s != live stream digest %s", got, live.digest)
	}
	dec := tracestream.NewDecoder()
	dec.Feed(frames)
	h := trace.NewHasher()
	var endDigest string
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("decoding the recording: %v", err)
		}
		if f == nil {
			break
		}
		switch f.Type {
		case tracestream.FrameHeader:
			h.SetNumCores(f.NumCores)
		case tracestream.FrameEvent:
			h.Add(f.Event)
		case tracestream.FrameEnd:
			endDigest = f.Digest
		}
	}
	if h.Sum() != live.digest || endDigest != live.digest || h.Rows() != live.rows {
		t.Fatalf("decoded recording: %d rows digest %s (end frame %s) != live stream %d rows %s",
			h.Rows(), h.Sum(), endDigest, live.rows, live.digest)
	}
}

// TestTraceFollowAcrossSIGTERM sends SIGTERM while a follow stream of a
// running job is open. The stream must close cleanly, with a draining
// status or, if the job won the race, its end event, and the daemon must
// still exit 0.
func TestTraceFollowAcrossSIGTERM(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, traceFlags...)
	job := scenario(31_338, "600s", "1ms")
	key := jobKey(t, job)
	posted := make(chan struct{})
	go func() {
		request(d.URL, "", job) // the job finishes during the drain; its outcome is not checked
		close(posted)
	}()
	attached := make(chan struct{})
	got := make(chan stream, 1)
	go func() { got <- follow(d.URL, key, 0, false, attached) }()
	// SIGTERM only once the stream is open: a follow that dials after it
	// finds the listener closed. A follow that returns without attaching
	// is put back and its error reported below.
	select {
	case <-attached:
	case s := <-got:
		got <- s
	}
	stopErr := d.stop()
	s := <-got
	<-posted
	if s.err != nil {
		t.Fatalf("stream open across SIGTERM: %v", s.err)
	}
	if !s.draining && !s.sawEnd {
		t.Fatal("stream open across SIGTERM ended without a draining status or end event")
	}
	if stopErr != nil {
		t.Fatal(stopErr)
	}
}

// jobKey computes a job's content address client-side, so follow
// streams can attach before the submission returns.
func jobKey(t *testing.T, job string) string {
	t.Helper()
	cfg, err := simconfig.Parse(strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	return sweep.JobKey(cfg, cfg.Seed)
}

// stream is what one follow stream observed.
type stream struct {
	rows      int
	digest    string // SHA-256 over the received rows, as trace.Hasher folds them
	endRows   int    // the row count the end event announced
	endDigest string
	dropped   uint64 // rows the server said this reader lost
	draining  bool   // a draining status ended the stream
	sawEnd    bool
	err       error
}

// follow reads GET /v1/trace/{key}?follow=1 to its end, retrying while
// the trace does not exist yet. buf > 0 sets the server-side buffer;
// throttle reads 4 KiB per 5 ms, so that buffer overflows on a long
// stream. attached, if not nil, is closed once the stream is open.
func follow(base, key string, buf int, throttle bool, attached chan<- struct{}) stream {
	url := base + "/v1/trace/" + key + "?follow=1"
	if buf > 0 {
		url += fmt.Sprintf("&buf=%d", buf)
	}
	var resp *http.Response
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		r, err := http.Get(url)
		if err != nil {
			return stream{err: err}
		}
		if r.StatusCode == http.StatusOK {
			resp = r
			break
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			return stream{err: fmt.Errorf("follow: status %d", r.StatusCode)}
		}
		if time.Now().After(deadline) {
			return stream{err: fmt.Errorf("trace for %s never appeared", key)}
		}
	}
	defer resp.Body.Close()
	if attached != nil {
		close(attached)
	}

	var body io.Reader = resp.Body
	if throttle {
		body = &throttledReader{resp.Body}
	}
	var s stream
	sum := sha256.New()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // blank separators, keepalive comments
		}
		switch event {
		case "row":
			fmt.Fprintf(sum, "%s\n", data)
			s.rows++
		case "dropped":
			var m struct {
				Dropped uint64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(data), &m); err == nil {
				s.dropped += m.Dropped
			}
		case "end":
			var m struct {
				Rows   int    `json:"rows"`
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal([]byte(data), &m); err != nil {
				s.err = err
				return s
			}
			s.sawEnd, s.endRows, s.endDigest = true, m.Rows, m.Digest
		case "status":
			s.draining = s.draining || strings.Contains(data, "draining")
		}
	}
	s.err = sc.Err()
	s.digest = fmt.Sprintf("%x", sum.Sum(nil))
	return s
}

// throttledReader reads at most 4 KiB per call and pauses 5 ms after
// each.
type throttledReader struct{ r io.Reader }

func (t *throttledReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p[:min(len(p), 4096)])
	time.Sleep(5 * time.Millisecond)
	return n, err
}
