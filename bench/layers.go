package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hsfq/internal/core"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
	"hsfq/internal/trace"
	"hsfq/internal/tracestream"
)

// probeTime is how long each fixed-input layer probe loops.
const probeTime = 200 * time.Millisecond

// layerPass computes the per-layer metrics of a traced run. It replays the
// run's own distinct jobs, for as long as the measured phase lasted,
// through each stage the serving path calls — Parse, Validate, JobKey,
// Build, Run, Flush, Digest, Metrics, Marshal — then once plain
// (sweep.RunJob) and once with trace recording (ExecuteConfigListened), and
// finishes with fixed-input probes of the scheduling tree, the tenant
// queue, and trace fan-out and decoding.
func layerPass(rc *runCtx) *metricSet {
	var (
		parseUs, jobkeyUs, buildMs, buildShare, events, nsPerEvent []float64
		runMs, dispatches, interrupts, nsPerDispatch               []float64
		digestUs, metricsUs, encodeUs, runjobMs, rows, recRatio    []float64
		recNsPerRow, allocs, allocBytes                            []float64
	)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	l := rc.spans
	start := time.Now()
	for i, it := range rc.replay {
		if i > 0 && time.Since(start) > time.Duration(rc.seconds)*time.Second {
			break
		}
		op := int64(1_000_000 + i)
		root := l.begin("replay.job", 0, op)
		stage := func(name string, fn func()) time.Duration {
			t0 := time.Now()
			l.around(name, root, op, fn)
			return time.Since(t0)
		}
		var c simconfig.Config
		var err error
		parseUs = append(parseUs, us(stage("simconfig.Parse", func() { c, err = simconfig.Parse(bytes.NewReader(it.body)) })))
		if err == nil {
			stage("simconfig.Validate", func() { err = c.Validate() })
		}
		rc.attempted++
		if err != nil {
			rc.fail("replay %d: %v", i, err)
			l.end(root)
			continue
		}
		seed := it.seed
		if seed == 0 {
			seed = c.Seed
		}
		var key, digest string
		jobkeyUs = append(jobkeyUs, us(stage("sweep.JobKey", func() { key = sweep.JobKey(c, seed) })))
		var s *simconfig.Simulation
		build := stage("simconfig.Build", func() { s, err = simconfig.Build(c, simconfig.BuildOptions{Seed: seed}) })
		if err != nil {
			rc.fail("replay %d: %v", i, err)
			l.end(root)
			continue
		}
		run := stage("cpu.Machine.Run", func() { s.Machine.Run(s.Config.Horizon.Time()) })
		fired := float64(s.Engine.Fired())
		flush := stage("cpu.Machine.Flush", func() { s.Machine.Flush() })
		dig := stage("sweep.Digest", func() { digest = sweep.Digest(s) })
		var m map[string]float64
		met := stage("sweep.Metrics", func() { m = sweep.Metrics(s) })
		encodeUs = append(encodeUs, us(stage("json.Marshal", func() {
			_, err = json.Marshal(struct {
				Key     string             `json:"key"`
				Digest  string             `json:"digest"`
				Seed    uint64             `json:"seed"`
				Metrics map[string]float64 `json:"metrics"`
			}{key, digest, seed, m})
		})))
		st := s.Machine.Stats()
		whole := build + run + flush + dig + met
		buildMs = append(buildMs, ms(build))
		buildShare = append(buildShare, float64(build)/float64(whole))
		runMs = append(runMs, ms(run))
		events = append(events, fired)
		nsPerEvent = append(nsPerEvent, float64(run)/max(fired, 1))
		dispatches = append(dispatches, float64(st.Dispatches))
		interrupts = append(interrupts, float64(st.Interrupts))
		nsPerDispatch = append(nsPerDispatch, float64(run)/float64(max(st.Dispatches, 1)))
		digestUs = append(digestUs, us(dig))
		metricsUs = append(metricsUs, us(met))

		var plain sweep.JobResult
		var plainDur time.Duration
		objs, byts := allocDelta(func() {
			plainDur = stage("sweep.RunJob", func() { plain = sweep.RunJob(sweep.Job{Config: c, Seed: seed}, false) })
		})
		runjobMs = append(runjobMs, ms(plainDur))
		allocs = append(allocs, float64(objs))
		allocBytes = append(allocBytes, float64(byts))

		bc := tracestream.New()
		bc.EnableRecording(4 << 20)
		var recDigest string
		recDur := stage("sweep.ExecuteConfigListened", func() {
			recDigest, _, err = sweep.ExecuteConfigListened(c, seed, nil, func(s *simconfig.Simulation) {
				s.Machine.Listen(bc)
				bc.Begin(s.ThreadMetas())
			})
			bc.Finish()
		})
		n := float64(bc.Snapshot().Rows)
		rows = append(rows, n)
		recRatio = append(recRatio, float64(recDur)/float64(plainDur))
		recNsPerRow = append(recNsPerRow, float64(recDur-plainDur)/max(n, 1))
		l.end(root)
		if plain.Error != "" || plain.Digest != digest || err != nil || recDigest != digest {
			rc.fail("replay %d: staged digest %s, RunJob %s (%s), recorded %s (%v)", i, digest, plain.Digest, plain.Error, recDigest, err)
		}
	}

	out := newMetricSet()
	q := func(name string, xs []float64, unit string) { out.setQ(name, xs, 0.5, unit) }
	q("simconfig.parse_us", parseUs, "us")
	q("simconfig.build_ms", buildMs, "ms")
	q("simconfig.build_share", buildShare, "ratio")
	q("sim.events", events, "count")
	q("sim.ns_per_event", nsPerEvent, "ns")
	q("cpu.run_ms", runMs, "ms")
	q("cpu.dispatches", dispatches, "count")
	q("cpu.interrupts", interrupts, "count")
	q("cpu.ns_per_dispatch", nsPerDispatch, "ns")
	q("sweep.jobkey_us", jobkeyUs, "us")
	q("sweep.digest_us", digestUs, "us")
	q("sweep.metrics_us", metricsUs, "us")
	q("sweep.encode_us", encodeUs, "us")
	q("sweep.runjob_p50_ms", runjobMs, "ms")
	q("tracestream.rows", rows, "count")
	q("tracestream.record_overhead_ratio", recRatio, "ratio")
	q("tracestream.record_ns_per_row", recNsPerRow, "ns")
	q("go.allocs_per_job", allocs, "count")
	q("go.bytes_per_job", allocBytes, "B")

	probe := func(name string, fn func() float64) {
		var v float64
		l.around("probe."+name, 0, 0, func() { v = fn() })
		out.set(name, v, "ns", 0)
	}
	probe("core.pick_charge_ns.wide", func() float64 { return pickCharge(wideStructure()) })
	probe("core.pick_charge_ns.video", func() float64 { return pickCharge(videoStructure()) })
	probe("tenantsched.submit_next_ns.t10", func() float64 { return submitNext(10) })
	probe("tenantsched.submit_next_ns.t1000", func() float64 { return submitNext(1000) })
	probe("tracestream.fanout_ns_per_row.s0", func() float64 { return fanout(0) })
	probe("tracestream.fanout_ns_per_row.s1", func() float64 { return fanout(1) })
	probe("tracestream.fanout_ns_per_row.s4", func() float64 { return fanout(4) })
	probe("tracestream.decode_ns_per_row", decodeRows)
	return out
}

// loopFor calls step in batches until probeTime has passed and returns the
// mean nanoseconds per step.
func loopFor(step func()) float64 {
	const batch = 1024
	n := 0
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		for i := 0; i < batch; i++ {
			step()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n)
}

// wideStructure is the engine's wide tree: 8 SFQ leaves at depth 2 with 8
// runnable threads each.
func wideStructure() *core.Structure {
	s := core.NewStructure()
	id := 1
	for n := 0; n < 8; n++ {
		leaf, err := s.MknodPath(fmt.Sprintf("/g%d/n%d", n/4, n), float64(n%4+1), sched.NewSFQ(sim.Millisecond))
		if err != nil {
			panic(err) // fixed, valid tree
		}
		for t := 0; t < 8; t++ {
			attach(s, leaf, sched.NewThread(id, "t", float64(t%4+1)))
			id++
		}
	}
	return s
}

// videoStructure is the video server's tree: three decoders under SFQ and
// two admin threads under SVR4.
func videoStructure() *core.Structure {
	s := core.NewStructure()
	video, err := s.MknodPath("/video", 3, sched.NewSFQ(5*sim.Millisecond))
	if err != nil {
		panic(err)
	}
	svr4, err := sched.New("svr4", sched.LeafConfig{IPS: 200_000_000})
	if err != nil {
		panic(err)
	}
	admin, err := s.MknodPath("/admin", 1, svr4)
	if err != nil {
		panic(err)
	}
	for i, w := range []float64{4, 1, 1} {
		attach(s, video, sched.NewThread(i+1, "dec", w))
	}
	attach(s, admin, sched.NewThread(4, "cron", 1))
	attach(s, admin, sched.NewThread(5, "sshd", 1))
	return s
}

func attach(s *core.Structure, leaf core.NodeID, t *sched.Thread) {
	if err := s.Attach(t, leaf); err != nil {
		panic(err)
	}
	s.Enqueue(t, 0)
}

// pickCharge is one scheduling decision: Pick, then charge a full 1 ms
// quantum at 100 MIPS.
func pickCharge(s *core.Structure) float64 {
	now := sim.Time(0)
	return loopFor(func() {
		t := s.Pick(now)
		s.Charge(t, 100_000, now, true)
		now += sim.Millisecond
	})
}

// submitNext is one request through the tenant queue with the given
// number of tenants: Submit, Next, run, finish.
func submitNext(tenants int) float64 {
	q := tenantsched.NewQueue(nil, tenantsched.Options{Workers: 1})
	names := make([]string, tenants)
	noop := func() {}
	cycle := func(name string) {
		if err := q.Submit(name, "simulate", noop); err != nil {
			panic(err) // the queue never holds more than one request
		}
		task, finish, _ := q.Next()
		task()
		finish(time.Millisecond)
	}
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		cycle(names[i])
	}
	i := 0
	return loopFor(func() {
		cycle(names[i%tenants])
		i++
	})
}

// fanout is one event through a Broadcaster with subs draining
// subscribers and no recording.
func fanout(subs int) float64 {
	bc := tracestream.New()
	var wg sync.WaitGroup
	var list []*tracestream.Subscriber
	for i := 0; i < subs; i++ {
		sub := bc.Subscribe(8 << 20)
		list = append(list, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Notify() {
				sub.Take()
				if sub.Closed() {
					sub.Take()
					return
				}
			}
		}()
	}
	th := sched.NewThread(1, "t", 1)
	bc.Begin([]trace.ThreadMeta{{TID: 1, Name: "t", Depth: 1, Path: "/a"}})
	now := sim.Time(0)
	ns := loopFor(func() {
		bc.OnDispatch(th, now)
		now += sim.Millisecond
	})
	bc.Finish()
	for _, sub := range list {
		bc.Unsubscribe(sub)
	}
	wg.Wait()
	return ns
}

// decodeRows decodes a recorded stream of dispatch/charge events and
// returns nanoseconds per event frame.
func decodeRows() float64 {
	bc := tracestream.New()
	bc.EnableRecording(0)
	th := sched.NewThread(1, "t", 1)
	bc.Begin([]trace.ThreadMeta{{TID: 1, Name: "t", Depth: 1, Path: "/a"}})
	const n = 50_000
	for i := 0; i < n; i++ {
		now := sim.Time(i) * sim.Millisecond
		bc.OnDispatch(th, now)
		bc.OnCharge(th, 100_000, now+sim.Millisecond/2, true)
	}
	bc.Finish()
	frames := bc.Snapshot().Frames
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		dec := tracestream.NewDecoder()
		dec.Feed(frames)
		for {
			f, err := dec.Next()
			if err != nil {
				panic(err) // the stream was just encoded by the same package
			}
			if f == nil {
				break
			}
		}
		passes++
	}
	return float64(time.Since(t0)) / float64(passes*2*n)
}
