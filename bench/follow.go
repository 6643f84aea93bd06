package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/server"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// followAttachTimeout bounds how long a follow keeps polling for a job's
// trace to appear.
const followAttachTimeout = 10 * time.Second

// followStats is what a reader of a ?follow=1 SSE stream saw.
type followStats struct {
	rows       int
	dropFrames int    // `dropped` events
	dropped    uint64 // events they reported lost
	gotEnd     bool
	endRows    uint64
	endDigest  string
	rowDigest  string // SHA-256 over the received rows, as the end event's digest is computed
	firstRow   time.Time
	endAt      time.Time
}

// readFollow parses an SSE trace stream up to its end event: it counts
// rows, folds them into the row digest, and records drop and end events.
func readFollow(r io.Reader) (followStats, error) {
	var st followStats
	var h hash.Hash = sha256.New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch event {
			case "row":
				if st.rows == 0 {
					st.firstRow = time.Now()
				}
				st.rows++
				h.Write(data)
				h.Write([]byte{'\n'})
			case "dropped":
				var d struct {
					Dropped uint64 `json:"dropped"`
				}
				if err := json.Unmarshal(data, &d); err != nil {
					return st, fmt.Errorf("dropped event: %w", err)
				}
				st.dropFrames++
				st.dropped += d.Dropped
			case "end":
				var e struct {
					Rows   uint64 `json:"rows"`
					Digest string `json:"digest"`
				}
				if err := json.Unmarshal(data, &e); err != nil {
					return st, fmt.Errorf("end event: %w", err)
				}
				st.gotEnd, st.endRows, st.endDigest, st.endAt = true, e.Rows, e.Digest, time.Now()
				st.rowDigest = fmt.Sprintf("%x", h.Sum(nil))
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended without an end event")
}

// check reports what is wrong with a finished stream, or nil.
func (st followStats) check() error {
	switch {
	case !st.gotEnd:
		return errors.New("no end event")
	case st.dropFrames > 0 || st.dropped > 0:
		return fmt.Errorf("%d drop events, %d rows lost", st.dropFrames, st.dropped)
	case uint64(st.rows) != st.endRows:
		return fmt.Errorf("received %d rows, end event says %d", st.rows, st.endRows)
	case st.rowDigest != st.endDigest:
		return fmt.Errorf("row digest %s, end event digest %s", st.rowDigest, st.endDigest)
	}
	return nil
}

// pipeResponse is an http.ResponseWriter and http.Flusher whose body goes
// into a pipe, so a reader consumes an SSE stream while the handler is
// still writing it.
type pipeResponse struct {
	header http.Header
	status int
	pw     *io.PipeWriter
}

func (p *pipeResponse) Header() http.Header { return p.header }

func (p *pipeResponse) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

func (p *pipeResponse) Write(b []byte) (int, error) {
	p.WriteHeader(http.StatusOK)
	return p.pw.Write(b)
}

func (p *pipeResponse) Flush() {}

// follow opens GET /v1/trace/{key}?follow=1 through the handler, retrying
// while the trace does not exist yet, and reads the stream to its end.
// attached is when the stream's status line arrived.
func follow(srv http.Handler, key string) (st followStats, attached time.Time, err error) {
	deadline := time.Now().Add(followAttachTimeout)
	for {
		pr, pw := io.Pipe()
		w := &pipeResponse{header: http.Header{}, pw: pw}
		req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+key+"?follow=1", nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(w, req)
			pw.Close()
		}()
		br := bufio.NewReader(pr)
		// The handler sets the status before its first write, and the pipe
		// hands bytes over synchronously, so once Peek returns the status is
		// readable (on EOF the handler has returned).
		_, perr := br.Peek(1)
		attached = time.Now()
		if perr == nil && w.status == http.StatusOK {
			st, err = readFollow(br)
		}
		io.Copy(io.Discard, br) // let the handler finish writing
		<-done
		if w.status == http.StatusOK {
			return st, attached, err
		}
		if w.status != http.StatusNotFound || time.Now().After(deadline) {
			return st, attached, fmt.Errorf("follow %s: status %d", key, w.status)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// followBench is the follow workload: one fresh 120 s video-server job at a
// time, POSTed through the handler while a concurrent follow stream reads
// its live trace over SSE and recomputes the row digest.
type followBench struct {
	srv   *server.Server
	drain sync.Once
}

func setupFollow(rc *runCtx) (measurer, error) {
	b := &followBench{srv: server.New(daemonConfig(nil))}
	// A warm-up job, outside the measured sequence, runs the POST and
	// follow paths once before timing.
	body := mustJSON(videoServer(10*time.Second, simSeed(newRand(rc.seed, 5))))
	c, err := simconfig.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	posted := make(chan served, 1)
	go func() { posted <- simulate(b.srv, body, "") }()
	st, _, err := follow(b.srv, sweep.JobKey(c, c.Seed))
	if post := <-posted; post.status != http.StatusOK {
		err = fmt.Errorf("warm-up POST status %d", post.status)
	} else if err == nil {
		err = st.check()
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("follow warm-up: %w", err)
	}
	return b, nil
}

func (b *followBench) close() { b.drain.Do(b.srv.Drain) }

func (b *followBench) measure(rc *runCtx) {
	var rowsPerS []float64
	var live, rows int
	var dropped uint64
	ops := 0
	start := time.Now()
	phase := time.Duration(rc.seconds) * time.Second
	for i := 0; time.Since(start) < phase; i++ {
		body := followInput(rc.seed, i)
		c, err := simconfig.Parse(bytes.NewReader(body))
		if err != nil {
			rc.attempted++
			rc.fail("follow job %d: %v", i, err)
			continue
		}
		key := sweep.JobKey(c, c.Seed)
		op := int64(i + 1)
		root := rc.spans.begin("follow.job", 0, op)
		t0 := time.Now()
		var postAt atomic.Int64 // ns after t0 when the POST returned
		posted := make(chan served, 1)
		go func() {
			id := rc.spans.begin("server.ServeHTTP.simulate", root, op)
			out := simulate(b.srv, body, "")
			rc.spans.end(id)
			postAt.Store(int64(time.Since(t0)))
			posted <- out
		}()
		id := rc.spans.begin("server.ServeHTTP.follow", root, op)
		st, attached, ferr := follow(b.srv, key)
		rc.spans.end(id)
		post := <-posted
		rc.spans.end(root)
		rc.ref.run(2)

		ops++
		rc.attempted++
		dropped += st.dropped
		switch {
		case post.status != http.StatusOK || post.cache != "miss":
			rc.fail("follow job %d: POST status %d X-Cache %q", i, post.status, post.cache)
			continue
		case ferr != nil:
			rc.fail("follow job %d: %v", i, ferr)
			continue
		}
		if err := st.check(); err != nil {
			rc.fail("follow job %d: %v", i, err)
			continue
		}
		rc.addOp(t0, st.endAt.Sub(t0), 1, int64(c.Horizon.Time()))
		if span := st.endAt.Sub(st.firstRow); span > 0 {
			rowsPerS = append(rowsPerS, float64(st.rows)/span.Seconds())
		}
		if int64(attached.Sub(t0)) < postAt.Load() {
			live++
		}
		rows += st.rows
		rc.output(fmt.Sprintf("%s %d %s", key, st.rows, st.endDigest))
		rc.replay = append(rc.replay, replayItem{body: body})
	}
	done := len(rc.ops)
	rc.diag.setQ("follow_rows_per_s", rowsPerS, 0.5, "1/s")
	rc.diag.set("follow.rows_per_job", float64(rows)/float64(max(done, 1)), "count", done)
	rc.diag.set("follow.live_ratio", float64(live)/float64(max(ops, 1)), "ratio", ops)
	rc.diag.set("follow.dropped", float64(dropped), "count", ops)
}
