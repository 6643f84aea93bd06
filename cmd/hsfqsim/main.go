// Command hsfqsim runs a hierarchical scheduling simulation described by a
// JSON configuration and reports per-node and per-thread allocation.
//
// Usage:
//
//	hsfqsim -config sim.json
//	hsfqsim -config sim.json -trace events.csv -dot structure.dot
//	hsfqsim -config sim.json -cpuprofile cpu.pprof -memprofile mem.pprof
//	hsfqsim -config sim.json -checkpoint-every 1s -checkpoint-out run.ckpt
//	hsfqsim -resume run.ckpt -trace events.csv
//
// With no -config it runs a built-in demonstration: the paper's Fig. 2
// structure under mixed load.
//
// Checkpointing: -checkpoint-every periodically snapshots the full
// simulation state to -checkpoint-out (atomically, so a kill mid-write
// leaves the previous snapshot intact). -resume continues a run from such
// a snapshot; the completed run's outputs — the trace CSV in particular —
// are byte-identical to an uninterrupted run of the original config.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"hsfq/internal/checkpoint"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

const demoConfig = `{
  "rate_mips": 100,
  "horizon": "10s",
  "seed": 42,
  "nodes": [
    {"path": "/hard-real-time", "weight": 1, "leaf": "edf", "quantum": "10ms"},
    {"path": "/soft-real-time", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
    {"path": "/best-effort", "weight": 6},
    {"path": "/best-effort/user1", "weight": 1, "leaf": "sfq", "quantum": "10ms"},
    {"path": "/best-effort/user2", "weight": 1, "leaf": "svr4"}
  ],
  "threads": [
    {"name": "sensor", "leaf": "/hard-real-time",
     "program": {"kind": "periodic", "period": "60ms", "cost": "5ms"}},
    {"name": "decoder", "leaf": "/soft-real-time", "weight": 2,
     "program": {"kind": "mpeg", "loop": true}},
    {"name": "make", "leaf": "/best-effort/user1",
     "program": {"kind": "loop"}},
    {"name": "editor", "leaf": "/best-effort/user2",
     "program": {"kind": "interactive"}},
    {"name": "batch", "leaf": "/best-effort/user2",
     "program": {"kind": "loop"}}
  ],
  "interrupts": [
    {"kind": "periodic", "period": "10ms", "service": "100us"}
  ]
}`

func main() {
	var (
		configPath = flag.String("config", "", "JSON simulation config (empty: built-in demo)")
		tracePath  = flag.String("trace", "", "write a CSV scheduling trace to this file")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart of the first second")
		ganttDepth = flag.Bool("gantt-depth", false, "print the Gantt chart grouped by scheduling-tree depth (one lane per level)")
		dotPath    = flag.String("dot", "", "write the scheduling structure in DOT format")
		seed       = flag.Uint64("seed", 0, "override the config's random seed")
		cores      = flag.Int("cores", 0, "override the config's core count (0: keep the config's)")
		policy     = flag.String("policy", "", "override the config's multiprocessor policy: partitioned, global, or steal")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		ckptEvery  = flag.Duration("checkpoint-every", 0, "snapshot the simulation state at this simulated-time cadence (requires -checkpoint-out)")
		ckptOut    = flag.String("checkpoint-out", "", "checkpoint file, atomically overwritten at each snapshot")
		resumePath = flag.String("resume", "", "resume from a checkpoint file instead of building from a config")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hsfqsim [flags]\n\nleaf kinds (config \"leaf\" field): %s\n\nflags:\n",
			strings.Join(sched.Names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hsfqsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hsfqsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(runOptions{
		configPath: *configPath,
		tracePath:  *tracePath,
		dotPath:    *dotPath,
		seed:       *seed,
		cores:      *cores,
		policy:     *policy,
		gantt:      *gantt,
		ganttDepth: *ganttDepth,
		ckptEvery:  sim.Time(ckptEvery.Nanoseconds()),
		ckptOut:    *ckptOut,
		resumePath: *resumePath,
	})
	if *memProf != "" {
		if merr := writeMemProfile(*memProf); err == nil {
			err = merr
		}
	}
	if err != nil {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintln(os.Stderr, "hsfqsim:", err)
		os.Exit(1)
	}
}

// writeMemProfile snapshots the allocation profile after a final GC so the
// numbers reflect live and cumulative allocations of the run.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type runOptions struct {
	configPath string
	tracePath  string
	dotPath    string
	seed       uint64
	cores      int
	policy     string
	gantt      bool
	ganttDepth bool
	ckptEvery  sim.Time
	ckptOut    string
	resumePath string
}

func run(o runOptions) error {
	var s *simconfig.Simulation
	var rec *trace.Recorder
	wantTrace := o.tracePath != "" || o.gantt || o.ganttDepth

	if o.resumePath != "" {
		if o.configPath != "" || o.seed != 0 || o.cores != 0 || o.policy != "" {
			return fmt.Errorf("-resume carries its own config and seed; drop -config/-seed/-cores/-policy")
		}
		data, err := os.ReadFile(o.resumePath)
		if err != nil {
			return err
		}
		info, err := checkpoint.Peek(data)
		if err != nil {
			return err
		}
		var opt checkpoint.Options
		if wantTrace {
			if !info.HasTrace {
				return fmt.Errorf("%s has no trace section; rerun the checkpointing side with -trace", o.resumePath)
			}
			rec = trace.NewRecorder(0)
			opt.Recorder = rec
		}
		s, err = checkpoint.Restore(data, opt)
		if err != nil {
			return err
		}
		if rec != nil {
			s.Machine.Listen(rec)
		}
		fmt.Fprintf(os.Stderr, "hsfqsim: resumed at %v of %v (seed %d)\n", info.At, info.Horizon, info.Seed)
	} else {
		var cfg simconfig.Config
		var err error
		if o.configPath == "" {
			fmt.Println("(no -config given: running the built-in Fig. 2 demo)")
			cfg, err = simconfig.Parse(strings.NewReader(demoConfig))
		} else {
			f, ferr := os.Open(o.configPath)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			cfg, err = simconfig.Parse(f)
		}
		if err != nil {
			return err
		}
		if o.cores != 0 {
			cfg.Cores = o.cores
		}
		if o.policy != "" {
			cfg.Policy = o.policy
		}
		if s, err = simconfig.Build(cfg, simconfig.BuildOptions{Seed: o.seed}); err != nil {
			return err
		}
		if wantTrace {
			rec = trace.NewRecorder(0)
			s.Machine.Listen(rec)
		}
	}

	if o.ckptEvery > 0 {
		if o.ckptOut == "" {
			return fmt.Errorf("-checkpoint-every needs -checkpoint-out")
		}
		armCheckpoints(s, rec, o.ckptEvery, o.ckptOut)
	} else if o.ckptOut != "" {
		return fmt.Errorf("-checkpoint-out needs -checkpoint-every")
	}

	s.Run()

	nCores := s.Machine.NumCores()
	if len(s.Structures) == 1 {
		fmt.Println("scheduling structure:")
		fmt.Print(s.Structure.String())
	} else {
		for c, st := range s.Structures {
			fmt.Printf("scheduling structure (core %d):\n", c)
			fmt.Print(st.String())
		}
	}
	fmt.Println()

	cols := []string{"thread", "leaf", "weight", "work", "share", "segments", "waited", "state"}
	if nCores > 1 {
		cols = append(cols, "home")
	}
	tbl := metrics.NewTable(cols...)
	total := float64(s.Machine.Stats().Work)
	for _, th := range s.Threads {
		st := s.StructureOf(th)
		row := []any{th.Name, st.PathOf(st.LeafOf(th).ID()), th.Weight,
			int64(th.Done), float64(th.Done) / total, th.Segments, th.Waited.String(), th.State.String()}
		if nCores > 1 {
			row = append(row, s.Machine.HomeCore(th))
		}
		tbl.AddRow(row...)
	}
	fmt.Print(tbl.String())

	st := s.Machine.Stats()
	fmt.Printf("\nmachine: %v of work, %d dispatches, %d preemptions, %d interrupts (%v stolen), idle %v\n",
		st.Work, st.Dispatches, st.Preemptions, st.Interrupts, st.Stolen, st.Idle)
	if nCores > 1 {
		fmt.Printf("policy %s, %d migrations\n", s.Machine.Policy(), st.Migrations)
		for c := 0; c < nCores; c++ {
			cs := s.Machine.CoreStats(c)
			fmt.Printf("core %d: %v of work, %d dispatches, %d preemptions, %d migrations, idle %v\n",
				c, cs.Work, cs.Dispatches, cs.Preemptions, cs.Migrations, cs.Idle)
		}
	}

	for _, name := range sortedNames(s.Periodics) {
		p := s.Periodics[name]
		fmt.Printf("periodic %q: %d rounds, %d missed deadlines, min slack %v\n",
			name, len(p.Slack), p.MissedDeadlines(), p.MinSlack())
	}
	for _, name := range sortedNames(s.Decoders) {
		fmt.Printf("decoder %q: %d frames decoded\n", name, s.Decoders[name].FramesDecoded(s.Config.Horizon.Time()))
	}

	if o.gantt {
		fmt.Println("\nfirst second of the schedule:")
		if err := trace.Gantt(os.Stdout, rec.Spans(), 0, simSecond(), 100); err != nil {
			return err
		}
	}
	if o.ganttDepth {
		fmt.Println("\nfirst second of the schedule, by tree depth:")
		if err := trace.GanttByDepth(os.Stdout, rec.Spans(), s.ThreadMetas(), 0, simSecond(), 100); err != nil {
			return err
		}
	}
	if o.dotPath != "" {
		f, err := os.Create(o.dotPath)
		if err != nil {
			return err
		}
		if err := s.Structure.WriteDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.dotPath)
	}
	if rec != nil && o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", o.tracePath, len(rec.Events()))
	}
	return nil
}

// armCheckpoints schedules a self-rescheduling engine event that snapshots
// the full simulation state to path every `every` of simulated time. The
// write is atomic (temp file + rename in the same directory), so a kill
// mid-write leaves the previous snapshot intact. Snapshot failures only
// warn: a checkpoint is a convenience, never worth aborting the run for.
//
// The extra engine events consume sequence numbers but do not reorder any
// same-instant simulation events, so the run's trace stays byte-identical
// to one without checkpointing.
func armCheckpoints(s *simconfig.Simulation, rec *trace.Recorder, every sim.Time, path string) {
	var tick func()
	tick = func() {
		if err := writeCheckpoint(s, rec, path); err != nil {
			fmt.Fprintf(os.Stderr, "hsfqsim: checkpoint at %v: %v\n", s.Engine.Now(), err)
		}
		s.Engine.After(every, tick)
	}
	s.Engine.After(every, tick)
}

// writeCheckpoint atomically replaces path with the current snapshot.
func writeCheckpoint(s *simconfig.Simulation, rec *trace.Recorder, path string) error {
	data, err := checkpoint.Save(s, checkpoint.Options{Recorder: rec})
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hsfqsim-ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func simSecond() sim.Time { return sim.Second }

// sortedNames returns m's keys in order, so reports do not depend on map
// iteration order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
