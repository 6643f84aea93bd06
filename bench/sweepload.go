package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"time"

	"hsfq/internal/sweep"
)

// verifyEvery samples the sweep jobs whose digests are checked against a
// serial sweep.RunJob after the measured phase.
const verifyEvery = 16

// sweepBench is the sweep workload: repeated seeded grids of short jobs
// through sweep.Run with one worker per CPU, streaming JSONL to a counting
// writer. Short horizons make simconfig.Build, the digest/encode path and
// the worker pool a large share of each job.
type sweepBench struct {
	specs []sweep.Spec
	jobs  [][]sweep.Job
	simNs []int64 // simulated ns per grid
}

func setupSweep(rc *runCtx) (measurer, error) {
	b := &sweepBench{}
	for g, body := range sweepInputs(rc.seed) {
		spec, err := sweep.ParseSpec(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("sweep grid %d: %w", g, err)
		}
		jobs, err := sweep.Expand(spec)
		if err != nil {
			return nil, fmt.Errorf("sweep grid %d: %w", g, err)
		}
		var ns int64
		for _, j := range jobs {
			ns += int64(j.Config.Horizon.Time())
		}
		b.specs = append(b.specs, spec)
		b.jobs = append(b.jobs, jobs)
		b.simNs = append(b.simNs, ns)
	}
	// A warm-up grid starts the pool path once before timing.
	if _, err := sweep.Run(b.specs[0], sweep.Options{Workers: runtime.NumCPU()}); err != nil {
		return nil, fmt.Errorf("sweep warm-up: %w", err)
	}
	return b, nil
}

func (b *sweepBench) close() {}

// hashWriter counts and hashes what it is given.
type hashWriter struct {
	n int64
	h hash.Hash
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (b *sweepBench) measure(rc *runCtx) {
	workers := runtime.NumCPU()
	type sample struct {
		grid, job int
		digest    string
	}
	var samples []sample
	streams := make([]string, len(b.specs))
	var streamed int64
	var busy time.Duration
	jobs := 0
	start := time.Now()
	phase := time.Duration(rc.seconds) * time.Second
	for i := 0; time.Since(start) < phase; i++ {
		g := i % len(b.specs)
		w := &hashWriter{h: sha256.New()}
		t0 := time.Now()
		id := rc.spans.begin("sweep.Run", 0, int64(i+1))
		rep, err := sweep.Run(b.specs[g], sweep.Options{Workers: workers, Stream: w})
		rc.spans.end(id)
		dur := time.Since(t0)
		rc.ref.run(1)
		rc.attempted += len(b.jobs[g])
		if err != nil || rep == nil {
			rc.fail("grid %d: %v", g, err)
			rc.failed += len(b.jobs[g]) - 1
			continue
		}
		rc.addOp(t0, dur, rep.Jobs, b.simNs[g])
		busy += dur
		jobs += rep.Jobs
		streamed += w.n
		sum := fmt.Sprintf("%x", w.h.Sum(nil))
		switch {
		case streams[g] == "":
			streams[g] = sum
		case streams[g] != sum:
			rc.fail("grid %d: JSONL stream %s, earlier run streamed %s", g, sum, streams[g])
		}
		for _, r := range rep.Results {
			if (jobs-rep.Jobs+r.ID)%verifyEvery == 0 {
				samples = append(samples, sample{g, r.ID, r.Digest})
			}
		}
	}

	// Check the sampled digests against a serial execution, which also
	// times one job alone for the pool's busy ratio.
	var serialMs []float64
	for _, s := range samples {
		rc.attempted++
		t0 := time.Now()
		r := sweep.RunJob(b.jobs[s.grid][s.job], false)
		serialMs = append(serialMs, ms(time.Since(t0)))
		if r.Error != "" || r.Digest != s.digest {
			rc.fail("grid %d job %d: pooled digest %s, serial RunJob %s (err %q)", s.grid, s.job, s.digest, r.Digest, r.Error)
		}
	}

	rc.diag.set("sweep.workers", float64(workers), "count", 0)
	rc.diag.set("sweep.stream_bytes_per_job", float64(streamed)/float64(max(jobs, 1)), "B", jobs)
	if len(serialMs) > 0 {
		mean := 0.0
		for _, v := range serialMs {
			mean += v
		}
		mean /= float64(len(serialMs))
		rc.diag.set("sweep.worker_busy_ratio", mean*float64(jobs)/(float64(workers)*ms(busy)), "ratio", len(serialMs))
	}
	for g, s := range streams {
		if s == "" {
			continue
		}
		rc.output(fmt.Sprintf("%d %s", g, s))
		for _, j := range b.jobs[g] {
			rc.replay = append(rc.replay, replayItem{body: mustJSON(j.Config), seed: j.Seed})
		}
	}
}
