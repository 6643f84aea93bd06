package main

import (
	"bytes"
	"fmt"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// engineBench is the engine workload: one goroutine runs jobs back to back,
// cycling through seeded variants of four long-horizon shapes, calling the
// engine's stages directly. Almost all time is in sim/sched/core/cpu.
type engineBench struct {
	bodies [][]byte
	cfgs   []simconfig.Config
}

func setupEngine(rc *runCtx) (measurer, error) {
	b := &engineBench{bodies: engineInputs(rc.seed)}
	for i, body := range b.bodies {
		c, err := simconfig.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("engine input %d: %w", i, err)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("engine input %d: %w", i, err)
		}
		b.cfgs = append(b.cfgs, c)
	}
	// Build one variant of each shape so construction costs (mpeg frame
	// generation, structure set-up) that move into set-up show in setup_s.
	for s := range engineShapes {
		if _, err := simconfig.Build(b.cfgs[s], simconfig.BuildOptions{}); err != nil {
			return nil, fmt.Errorf("engine shape %s: %w", engineShapes[s], err)
		}
	}
	return b, nil
}

func (b *engineBench) close() {}

// runStaged executes one job through the engine's stages — Build, Run,
// Flush, Digest, Metrics — recording a span around each.
func runStaged(l *spanLog, parent, op int64, c simconfig.Config, seed uint64) (*simconfig.Simulation, string, error) {
	var s *simconfig.Simulation
	var err error
	l.around("simconfig.Build", parent, op, func() { s, err = simconfig.Build(c, simconfig.BuildOptions{Seed: seed}) })
	if err != nil {
		return nil, "", err
	}
	l.around("cpu.Machine.Run", parent, op, func() { s.Machine.Run(s.Config.Horizon.Time()) })
	l.around("cpu.Machine.Flush", parent, op, func() { s.Machine.Flush() })
	var digest string
	l.around("sweep.Digest", parent, op, func() { digest = sweep.Digest(s) })
	l.around("sweep.Metrics", parent, op, func() { sweep.Metrics(s) })
	return s, digest, nil
}

func (b *engineBench) measure(rc *runCtx) {
	nShapes := len(engineShapes)
	digests := make([]string, len(b.cfgs))
	shapeMs := make([][]float64, nShapes)
	jobs := 0
	start := time.Now()
	phase := time.Duration(rc.seconds) * time.Second
	for r := 0; time.Since(start) < phase; r++ {
		t0 := time.Now()
		done, simNs := 0, int64(0)
		for s := 0; s < nShapes; s++ {
			idx := (r%engineVariants)*nShapes + s
			op := int64(jobs + 1)
			j0 := time.Now()
			root := rc.spans.begin("engine.job", 0, op)
			sim, digest, err := runStaged(rc.spans, root, op, b.cfgs[idx], 0)
			rc.spans.end(root)
			jobs++
			rc.attempted++
			if err != nil {
				rc.fail("engine input %d: %v", idx, err)
				continue
			}
			shapeMs[s] = append(shapeMs[s], ms(time.Since(j0)))
			done++
			simNs += int64(sim.Config.Horizon.Time())
			switch {
			case digests[idx] == "":
				digests[idx] = digest
			case digests[idx] != digest:
				rc.fail("engine input %d: digest %s, earlier run gave %s", idx, digest, digests[idx])
			}
		}
		rc.addOp(t0, time.Since(t0), done, simNs)
		rc.ref.run(2)
	}
	for s, name := range engineShapes {
		rc.diag.setQ("job_p50_ms."+name, shapeMs[s], 0.5, "ms")
	}
	for idx, d := range digests {
		if d != "" {
			rc.output(fmt.Sprintf("%d %s", idx, d))
			rc.replay = append(rc.replay, replayItem{body: b.bodies[idx]})
		}
	}
}
