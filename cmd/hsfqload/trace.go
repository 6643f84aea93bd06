package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// The trace leg exercises GET /v1/trace/{key}?follow=1 end to end: K
// concurrent follow streams of one live job, one of them deliberately
// slow. The invariants:
//
//   - every fast reader's stream is gap-free (no dropped marker) and
//     hashing its rows reproduces the digest in the stream's end event —
//     the same trace.Hasher digest the engine computed;
//   - the slow reader is told what it lost (dropped marker, counted)
//     instead of backpressuring the simulation or the fast readers;
//   - a SIGTERM with a stream open closes it cleanly (draining status or
//     end event, no transport error) and the daemon still exits 0.

// traceScenario is one long job: a fine quantum over a long horizon makes
// the stream hundreds of thousands of events, so readers attach while it
// is live and a throttled reader falls behind for real.
func traceScenario(seed int) string { return scenario(seed, "600s", "1ms") }

// jobKeyOf computes the job's content address client-side, so follow
// streams can start attaching before the submission returns.
func jobKeyOf(body string) (string, error) {
	cfg, err := simconfig.Parse(strings.NewReader(body))
	if err != nil {
		return "", err
	}
	return sweep.JobKey(cfg, cfg.Seed), nil
}

// streamResult is what one follow stream observed.
type streamResult struct {
	rows      int    // row events received
	digest    string // sha256 over received rows, hasher-style
	endDigest string // digest announced by the end event
	endRows   int
	dropped   uint64 // total events the server told us we lost
	draining  bool   // stream ended with a draining status
	sawEnd    bool
	err       error
}

// followStream attaches to the job's follow stream (retrying until the
// trace exists) and consumes it to the end. bufBytes > 0 is passed as
// ?buf=; slow throttles reads to force server-side drops. A non-nil
// attached is closed once the follow request has returned 200.
func followStream(addr, key string, bufBytes int, slow bool, attached chan<- struct{}) streamResult {
	url := fmt.Sprintf("%s/v1/trace/%s?follow=1", addr, key)
	if bufBytes > 0 {
		url += fmt.Sprintf("&buf=%d", bufBytes)
	}
	var resp *http.Response
	deadline := time.Now().Add(15 * time.Second)
	for {
		r, err := http.Get(url)
		if err != nil {
			return streamResult{err: err}
		}
		if r.StatusCode == http.StatusOK {
			resp = r
			break
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			return streamResult{err: fmt.Errorf("follow: status %d", r.StatusCode)}
		}
		if time.Now().After(deadline) {
			return streamResult{err: fmt.Errorf("trace for %s never appeared", key)}
		}
		time.Sleep(time.Millisecond)
	}
	defer resp.Body.Close()
	if attached != nil {
		close(attached)
	}

	var body io.Reader = resp.Body
	if slow {
		body = &throttledReader{r: resp.Body, chunk: 4096, pause: 5 * time.Millisecond}
	}
	return consumeSSE(body)
}

// consumeSSE reads a follow stream to completion, hashing rows the way
// trace.Hasher does (row text + newline into SHA-256).
func consumeSSE(r io.Reader) streamResult {
	var res streamResult
	sum := sha256.New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
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
			res.rows++
		case "dropped":
			var d struct {
				Dropped uint64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(data), &d); err == nil {
				res.dropped += d.Dropped
			}
		case "end":
			var e struct {
				Rows   int    `json:"rows"`
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				res.err = err
				return res
			}
			res.sawEnd, res.endRows, res.endDigest = true, e.Rows, e.Digest
		case "status":
			if strings.Contains(data, "draining") {
				res.draining = true
			}
		}
	}
	res.err = sc.Err()
	res.digest = fmt.Sprintf("%x", sum.Sum(nil))
	return res
}

// throttledReader caps read throughput: small chunks with pauses, so the
// server's per-subscriber buffer overflows and drop accounting engages.
type throttledReader struct {
	r     io.Reader
	chunk int
	pause time.Duration
}

func (t *throttledReader) Read(p []byte) (int, error) {
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	n, err := t.r.Read(p)
	time.Sleep(t.pause)
	return n, err
}

// runTrace is the -trace mode: stream one live job to K fast readers and
// one slow one, check gap-freedom and digest equality for the fast side
// and drop accounting for the slow side, then (when the daemon is ours)
// SIGTERM with a stream open and require a clean close and exit 0.
func runTrace(addr, hsfqd, policy string, streams, queue, workers int) error {
	addr, stop, err := spawn(addr, hsfqd, policy, queue, workers,
		"-trace-bytes", fmt.Sprint(64<<20))
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if stop != nil {
			stop()
		}
		return err
	}

	job := traceScenario(31_337)
	key, err := jobKeyOf(job)
	if err != nil {
		return fail(err)
	}
	postErr := make(chan error, 1)
	go func() {
		_, _, _, err := request(addr, "", job)
		postErr <- err
	}()

	results := make([]streamResult, streams+1)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Fast readers ask for a buffer large enough to absorb the
			// whole run's frames even if delivery momentarily stalls:
			// lossless is the point of this side of the check.
			results[i] = followStream(addr, key, 64<<20, false, nil)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Minimum server-side buffer plus a throttled client: guaranteed
		// to fall behind a stream this long.
		results[streams] = followStream(addr, key, 4096, true, nil)
	}()
	wg.Wait()
	if err := <-postErr; err != nil {
		return fail(fmt.Errorf("traced job: %w", err))
	}

	for i := 0; i < streams; i++ {
		r := results[i]
		if r.err != nil {
			return fail(fmt.Errorf("fast stream %d: %w", i, r.err))
		}
		if !r.sawEnd || r.dropped != 0 {
			return fail(fmt.Errorf("fast stream %d: end=%v dropped=%d; want a complete gap-free stream", i, r.sawEnd, r.dropped))
		}
		if r.digest != r.endDigest || r.rows != r.endRows {
			return fail(fmt.Errorf("fast stream %d: hashed %d rows to %s, stream announced %d rows %s",
				i, r.rows, r.digest, r.endRows, r.endDigest))
		}
	}
	slowRes := results[streams]
	if slowRes.err != nil {
		return fail(fmt.Errorf("slow stream: %w", slowRes.err))
	}
	if !slowRes.sawEnd || slowRes.dropped == 0 {
		return fail(fmt.Errorf("slow stream: end=%v dropped=%d; want drop accounting, not backpressure", slowRes.sawEnd, slowRes.dropped))
	}
	if slowRes.rows+int(slowRes.dropped) != slowRes.endRows {
		return fail(fmt.Errorf("slow stream accounting: %d received + %d dropped != %d total",
			slowRes.rows, slowRes.dropped, slowRes.endRows))
	}
	fmt.Printf("hsfqload: %d fast stream(s) gap-free, digest %s over %d rows matches the engine\n",
		streams, results[0].digest, results[0].rows)
	fmt.Printf("hsfqload: slow stream received %d rows, told about %d dropped (accounting exact)\n",
		slowRes.rows, slowRes.dropped)

	if stop == nil {
		return nil
	}

	// Drain leg: a fresh job with a stream open when SIGTERM lands. The
	// stream must close cleanly — a draining status (stream cut mid-run)
	// or the end event (job won the race) — and the daemon must exit 0.
	job2 := traceScenario(31_338)
	key2, err := jobKeyOf(job2)
	if err != nil {
		return fail(err)
	}
	post2 := make(chan error, 1)
	go func() {
		_, _, _, err := request(addr, "", job2)
		post2 <- err
	}()
	attached := make(chan struct{})
	ch := make(chan streamResult, 1)
	go func() { ch <- followStream(addr, key2, 0, false, attached) }()
	// Pull the plug only once the stream is attached: a follow that dials
	// after SIGTERM finds the listener closed. A follow that returns
	// without attaching is put back and its error reported below.
	select {
	case <-attached:
	case res := <-ch:
		ch <- res
	}
	stopErr := stop() // SIGTERM; waits for a clean exit 0
	res := <-ch
	<-post2 // the in-flight job finishes during drain; ignore its outcome
	if res.err != nil {
		return fail(fmt.Errorf("stream open across SIGTERM: %w", res.err))
	}
	if !res.draining && !res.sawEnd {
		return fail(fmt.Errorf("stream open across SIGTERM ended without draining status or end event"))
	}
	if stopErr != nil {
		return stopErr
	}
	fmt.Println("hsfqload: stream open across SIGTERM closed cleanly (draining protocol) and daemon exited 0")
	return nil
}
