// Command hsfqsweep runs a parameter sweep: a grid of deterministic
// simulations expanded from a JSON spec (a base simconfig scenario plus
// axes over weights, quanta, leaf kinds, interrupt load, MIPS, and seed
// replications), executed across a bounded pool of workers.
//
// Usage:
//
//	hsfqsweep -spec sweep.json                       # JSONL results + summary
//	hsfqsweep -spec sweep.json -workers 8 -o out.jsonl
//	hsfqsweep -spec sweep.json -verify               # every job twice; digests must match
//	hsfqsweep -spec sweep.json -metrics work_total,share:dec
//	hsfqsweep -spec sweep.json -checkpoint-dir ck/   # resume longer horizons from stored prefixes
//
// Per-job results stream as JSON lines in job order; the bytes are
// identical for any -workers value. The summary table aggregates each grid
// point's metrics across its seed replications (mean/p50/p99).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hsfq/internal/sched"
	"hsfq/internal/sweep"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "JSON sweep specification (required)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		verify      = flag.Bool("verify", false, "run every job twice and fail on any digest mismatch")
		outPath     = flag.String("o", "-", `JSON-lines results: "-" for stdout, "" for none, else a file`)
		summary     = flag.Bool("summary", true, "print the per-point aggregate table")
		metricNames = flag.String("metrics", "work_total", "comma-separated metrics to summarize")
		ckptDir     = flag.String("checkpoint-dir", "", "checkpoint store: resume jobs from stored run prefixes (horizon extension) and store final states for future sweeps")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `usage: hsfqsweep -spec sweep.json [flags]

axis params: %s %s %s %s %s %s %s %s %s
leaf kinds:  %s

flags:
`,
			sweep.ParamMIPS, sweep.ParamHorizon, sweep.ParamLeaf, sweep.ParamQuantum,
			sweep.ParamWeight, sweep.ParamThreadWeight, sweep.ParamInterruptPeriod,
			sweep.ParamInterruptService, sweep.ParamInterruptRate,
			strings.Join(sched.Names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(*specPath, *workers, *verify, *outPath, *summary, *metricNames, *ckptDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfqsweep:", err)
		if line := mismatchSummary(rep); line != "" {
			fmt.Fprintln(os.Stderr, "hsfqsweep:", line)
		}
		os.Exit(exitCode(rep))
	}
	if rep.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "hsfqsweep: resumed %d of %d job(s) from checkpoints\n", rep.Resumed, rep.Jobs)
	}
}

// exitMismatch distinguishes -verify digest mismatches (the simulator
// broke its determinism contract) from ordinary failures (exit 1), so CI
// can tell "scenario is wrong" from "reproduction is wrong".
const exitMismatch = 3

// exitCode maps a failed run's report to its exit status.
func exitCode(rep *sweep.Report) int {
	if rep != nil && rep.Mismatched > 0 {
		return exitMismatch
	}
	return 1
}

// mismatchSummary is the one-line stderr summary of -verify digest
// mismatches; empty when there are none.
func mismatchSummary(rep *sweep.Report) string {
	if rep == nil || rep.Mismatched == 0 {
		return ""
	}
	first := ""
	for _, r := range rep.Results {
		if r.Mismatch {
			first = fmt.Sprintf(" (first: job %d, %s)", r.ID, r.Error)
			break
		}
	}
	return fmt.Sprintf("verify: %d of %d job(s) nondeterministic%s", rep.Mismatched, rep.Jobs, first)
}

func run(specPath string, workers int, verify bool, outPath string, summary bool, metricNames, ckptDir string, stdout io.Writer) (*sweep.Report, error) {
	f, err := os.Open(specPath)
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpec(f)
	f.Close()
	if err != nil {
		return nil, err
	}

	var stream io.Writer
	switch outPath {
	case "":
	case "-":
		stream = stdout
	default:
		out, err := os.Create(outPath)
		if err != nil {
			return nil, err
		}
		defer out.Close()
		stream = out
	}

	rep, err := sweep.Run(spec, sweep.Options{Workers: workers, Verify: verify, Stream: stream, CheckpointDir: ckptDir})
	if err != nil {
		return rep, err
	}
	if summary {
		sweep.WriteSummary(stdout, rep, fmt.Sprintf("on %d worker(s)", rep.Workers), strings.Split(metricNames, ","))
	}
	return rep, nil
}
