// Command tracesmoke is the end-to-end harness for the trace-streaming
// subsystem. It proves the subsystem's three contracts against a real
// hsfqd process over real HTTP:
//
//  1. Replay soundness: a follow stream consumed while the job runs must
//     hash to the same digest as the recorded wire-format trace fetched
//     afterwards — and decoding that recording with the tracestream
//     decoder must reproduce the digest a third time. Live stream,
//     stored frames, and decoded replay are the same trace.
//  2. Drop accounting: a deliberately slow subscriber on a minimum
//     buffer must be told exactly what it lost (rows received + dropped
//     == total rows), never backpressuring the run or the fast reader.
//  3. Diff parity: POST /v1/diff on a deliberately planted divergence
//     must return the same verdict, divergence_at_ns, and first
//     divergent row pair as batch `hsfqdiff -json` on the same configs.
//
// Usage:
//
//	tracesmoke -hsfqd /tmp/hsfqd -hsfqdiff /tmp/hsfqdiff
//
// Exit status 0 when all three legs hold, 1 otherwise.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/trace"
	"hsfq/internal/tracediff"
	"hsfq/internal/tracestream"
)

func main() {
	var (
		hsfqdBin = flag.String("hsfqd", "", "path to an hsfqd binary (required)")
		diffBin  = flag.String("hsfqdiff", "", "path to an hsfqdiff binary (required)")
	)
	flag.Parse()
	if *hsfqdBin == "" || *diffBin == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*hsfqdBin, *diffBin); err != nil {
		fmt.Fprintln(os.Stderr, "tracesmoke:", err)
		os.Exit(1)
	}
}

func run(hsfqdBin, diffBin string) error {
	dir, err := os.MkdirTemp("", "tracesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addr, stop, err := spawn(hsfqdBin)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		stop()
		return err
	}
	if err := streamLeg(addr); err != nil {
		return fail(fmt.Errorf("stream leg: %w", err))
	}
	if err := diffLeg(addr, diffBin, dir); err != nil {
		return fail(fmt.Errorf("diff leg: %w", err))
	}
	if err := stop(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// spawn starts hsfqd with tracing on, on a free port, and returns the
// base URL plus a stop function that SIGTERMs and requires exit 0.
func spawn(binary string) (string, func() error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	addr := fmt.Sprintf("http://127.0.0.1:%d", port)

	daemon := exec.Command(binary,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "2", "-queue", "16",
		"-trace-bytes", fmt.Sprint(64<<20))
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return "", nil, fmt.Errorf("spawning %s: %w", binary, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			daemon.Process.Kill()
			return "", nil, fmt.Errorf("daemon at %s not ready within 5s", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop := func() error {
		if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		select {
		case err := <-exited:
			if err != nil {
				return fmt.Errorf("daemon did not drain cleanly: %w", err)
			}
		case <-time.After(10 * time.Second):
			daemon.Process.Kill()
			return fmt.Errorf("daemon did not exit within 10s of SIGTERM")
		}
		return nil
	}
	return addr, stop, nil
}

// traceConfig is the streamed job: a fine quantum over a long horizon
// makes the stream a few hundred thousand events, so readers attach
// while it is live and the throttled one falls behind for real.
const traceConfig = `{
  "rate_mips": 100,
  "horizon": "150s",
  "seed": 424242,
  "nodes": [
    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "1ms"},
    {"path": "/be", "weight": 1, "leaf": "rr"}
  ],
  "threads": [
    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
  ]
}`

// streamLeg runs legs 1 and 2: one traced job, one fast follow stream
// and one throttled one attached while it runs, then the recorded trace
// fetched raw and re-decoded.
func streamLeg(addr string) error {
	cfg, err := simconfig.Parse(strings.NewReader(traceConfig))
	if err != nil {
		return err
	}
	// The job's content address, computed client-side so the follow
	// streams can start attaching before the submission returns.
	key := sweep.JobKey(cfg, cfg.Seed)

	postErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(addr+"/v1/simulate", "application/json",
			strings.NewReader(traceConfig))
		if err != nil {
			postErr <- err
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("simulate: status %d: %s", resp.StatusCode, b)
		}
		postErr <- err
	}()

	var fast, slow streamResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// A buffer big enough to absorb the whole run even if delivery
		// momentarily stalls: lossless is the point of this reader.
		fast = followStream(addr, key, 64<<20, false)
	}()
	go func() {
		defer wg.Done()
		// Minimum server-side buffer plus a throttled client: guaranteed
		// to fall behind a stream this long.
		slow = followStream(addr, key, 4096, true)
	}()
	wg.Wait()
	if err := <-postErr; err != nil {
		return err
	}

	if fast.err != nil {
		return fmt.Errorf("fast stream: %w", fast.err)
	}
	if !fast.sawEnd || fast.dropped != 0 {
		return fmt.Errorf("fast stream: end=%v dropped=%d; want a complete gap-free stream", fast.sawEnd, fast.dropped)
	}
	if fast.digest != fast.endDigest || fast.rows != fast.endRows {
		return fmt.Errorf("fast stream: hashed %d rows to %s, stream announced %d rows %s",
			fast.rows, fast.digest, fast.endRows, fast.endDigest)
	}
	if slow.err != nil {
		return fmt.Errorf("slow stream: %w", slow.err)
	}
	if !slow.sawEnd || slow.dropped == 0 {
		return fmt.Errorf("slow stream: end=%v dropped=%d; want drop accounting, not backpressure", slow.sawEnd, slow.dropped)
	}
	if slow.rows+int(slow.dropped) != slow.endRows {
		return fmt.Errorf("slow stream accounting: %d received + %d dropped != %d total",
			slow.rows, slow.dropped, slow.endRows)
	}
	fmt.Printf("tracesmoke: fast follow gap-free (%d rows), slow follow told about %d dropped (accounting exact)\n",
		fast.rows, slow.dropped)

	// Replay soundness: the stored recording, fetched raw and re-decoded
	// through the wire codec, must reproduce the live stream's digest.
	resp, err := http.Get(addr + "/v1/trace/" + key)
	if err != nil {
		return err
	}
	frames, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("raw trace: status %d: %s", resp.StatusCode, frames)
	}
	if got := resp.Header.Get("X-Trace-Digest"); got != fast.digest {
		return fmt.Errorf("recording digest %s != live stream digest %s", got, fast.digest)
	}
	dec := tracestream.NewDecoder()
	dec.Feed(frames)
	rd := trace.NewHasher()
	var endDigest string
	for {
		f, err := dec.Next()
		if err != nil {
			return fmt.Errorf("decoding recording: %w", err)
		}
		if f == nil {
			break
		}
		switch f.Type {
		case tracestream.FrameHeader:
			rd.SetNumCores(f.NumCores)
		case tracestream.FrameEvent:
			rd.Add(f.Event)
		case tracestream.FrameEnd:
			endDigest = f.Digest
		}
	}
	if rd.Sum() != fast.digest || endDigest != fast.digest || rd.Rows() != fast.rows {
		return fmt.Errorf("decoded recording: %d rows digest %s (end frame %s) != live stream %d rows %s",
			rd.Rows(), rd.Sum(), endDigest, fast.rows, fast.digest)
	}
	fmt.Printf("tracesmoke: replay sound: live stream, recording header, and decoded frames all hash to %s over %d rows\n",
		fast.digest, fast.rows)
	return nil
}

// streamResult is what one follow stream observed.
type streamResult struct {
	rows      int
	digest    string // sha256 over received rows, hasher-style
	endDigest string
	endRows   int
	dropped   uint64
	sawEnd    bool
	err       error
}

// followStream attaches to the job's follow stream (retrying until the
// trace exists) and consumes it to the end. slow throttles reads so the
// server-side buffer overflows.
func followStream(addr, key string, bufBytes int, slow bool) streamResult {
	url := fmt.Sprintf("%s/v1/trace/%s?follow=1&buf=%d", addr, key, bufBytes)
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

	var body io.Reader = resp.Body
	if slow {
		body = &throttledReader{r: resp.Body, chunk: 4096, pause: 5 * time.Millisecond}
	}

	var res streamResult
	sum := sha256.New()
	sc := bufio.NewScanner(body)
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

// diffConfig is the diff leg's base scenario; the %d is the /soft
// weight, so the planted side is a one-integer change with a divergence
// that appears as soon as the weight ratio decides a dispatch.
const diffConfig = `{
  "rate_mips": 100,
  "horizon": "2s",
  "seed": 9,
  "nodes": [
    {"path": "/soft", "weight": %d, "leaf": "sfq", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "rr"}
  ],
  "threads": [
    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
  ]
}`

const diffGrid = 8

// diffLeg plants a divergence (a weight change) and requires the served
// POST /v1/diff verdict to match batch `hsfqdiff -json` exactly: same
// status, same divergence_at_ns, same first divergent row pair.
func diffLeg(addr, diffBin, dir string) error {
	base := fmt.Sprintf(diffConfig, 3)
	planted := fmt.Sprintf(diffConfig, 4)
	basePath := filepath.Join(dir, "base.json")
	plantedPath := filepath.Join(dir, "planted.json")
	if err := os.WriteFile(basePath, []byte(base), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(plantedPath, []byte(planted), 0o644); err != nil {
		return err
	}

	cmd := exec.Command(diffBin, "-a", basePath, "-b", plantedPath,
		"-grid", fmt.Sprint(diffGrid), "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		return fmt.Errorf("batch hsfqdiff: err %v, want exit status 3\n%s%s", err, stdout.Bytes(), stderr.Bytes())
	}
	var batch tracediff.Result
	if err := json.Unmarshal(stdout.Bytes(), &batch); err != nil {
		return fmt.Errorf("batch hsfqdiff JSON: %w\n%s", err, stdout.Bytes())
	}
	if !batch.Divergent() || batch.DivergenceAtNs == 0 {
		return fmt.Errorf("batch hsfqdiff did not localize the planted divergence: %+v", batch)
	}

	body := fmt.Sprintf(`{"a":{"config":%s},"b":{"config":%s},"grid":%d}`, base, planted, diffGrid)
	resp, err := http.Post(addr+"/v1/diff", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/diff: status %d: %s", resp.StatusCode, b)
	}
	var served tracediff.Result
	if err := json.Unmarshal(b, &served); err != nil {
		return fmt.Errorf("POST /v1/diff JSON: %w\n%s", err, b)
	}

	if served.Status != batch.Status || served.DivergenceAtNs != batch.DivergenceAtNs {
		return fmt.Errorf("served diff (%s at %dns) != batch hsfqdiff (%s at %dns)",
			served.Status, served.DivergenceAtNs, batch.Status, batch.DivergenceAtNs)
	}
	if served.FirstRows == nil || batch.FirstRows == nil || *served.FirstRows != *batch.FirstRows {
		return fmt.Errorf("served first rows %+v != batch first rows %+v", served.FirstRows, batch.FirstRows)
	}
	fmt.Printf("tracesmoke: diff parity: served and batch verdicts agree (%s at %dns)\n",
		served.Status, served.DivergenceAtNs)
	return nil
}
