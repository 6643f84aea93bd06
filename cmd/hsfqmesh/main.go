// Command hsfqmesh runs a parameter sweep across a mesh of hsfqd
// backends: the spec's job grid is sharded over the configured daemons
// with bounded per-backend windows, failed or timed-out claims retried
// with exponential backoff (preferring a different backend), stragglers
// optionally hedged, and a sampled fraction of remote results re-executed
// locally and digest-compared. A backend caught returning wrong bytes for
// a deterministic job is quarantined for the rest of the run and the
// process exits 3 (the same code hsfqsweep -verify uses for determinism
// violations), even though the output itself is repaired locally.
//
// Usage:
//
//	hsfqmesh -spec sweep.json -backends http://a:8377,http://b:8377
//	hsfqmesh -spec sweep.json -backends http://a:8377 -hedge-after 2s -verify 0.2
//	hsfqmesh -spec sweep.json                  # no backends: serial local run
//
// The JSONL on stdout (or -o) is byte-identical to `hsfqsweep -spec
// sweep.json` regardless of backend count, failures, retries, or hedging:
// job identity lives in the locally expanded grid, execution is
// deterministic, and every accepted remote result is structurally checked
// against its pre-computed content address.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hsfq/internal/dispatch"
	"hsfq/internal/sweep"
)

// Exit codes: 1 = job failures, exitMismatch = a backend returned wrong
// bytes for a deterministic job (matches hsfqsweep's -verify convention).
const exitMismatch = 3

func main() {
	var (
		specPath    = flag.String("spec", "", "JSON sweep specification (required)")
		backends    = flag.String("backends", "", "comma-separated hsfqd base URLs (empty = run everything locally)")
		outPath     = flag.String("o", "-", `JSON-lines results: "-" for stdout, "" for none, else a file`)
		summary     = flag.Bool("summary", true, "print the per-point aggregate table")
		metricNames = flag.String("metrics", "work_total", "comma-separated metrics to summarize")
		stats       = flag.Bool("stats", true, "print per-backend dispatch counters to stderr")
		window      = flag.Int("window", 4, "concurrent claims per backend")
		batch       = flag.Int("batch", 4, "jobs per claim")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-job attempt deadline")
		retries     = flag.Int("retries", 3, "remote attempts per job before it falls back to local execution")
		hedgeAfter  = flag.Duration("hedge-after", 0, "re-dispatch a straggling job after this long (0 = off)")
		verifyFrac  = flag.Float64("verify", 0.1, "fraction of remote results re-executed locally and digest-compared (0..1)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: hsfqmesh -spec sweep.json -backends http://host:8377,... [flags]

Output is byte-identical to a serial hsfqsweep run of the same spec.
Exit status: 0 ok, 1 job failures, 3 backend returned corrupt results.

flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	opt := dispatch.Options{
		Window:         *window,
		Batch:          *batch,
		Timeout:        *timeout,
		Retries:        *retries,
		HedgeAfter:     *hedgeAfter,
		VerifyFraction: *verifyFrac,
		Logf:           func(f string, a ...any) { fmt.Fprintf(os.Stderr, "hsfqmesh: "+f+"\n", a...) },
	}
	code, err := run(ctx, *specPath, *backends, opt, *outPath, *summary, *metricNames, *stats, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfqmesh:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run is the testable body of main: expand, dispatch, report.
func run(ctx context.Context, specPath, backendList string, opt dispatch.Options,
	outPath string, summary bool, metricNames string, stats bool, stdout, stderr io.Writer) (int, error) {
	f, err := os.Open(specPath)
	if err != nil {
		return 1, err
	}
	spec, err := sweep.ParseSpec(f)
	f.Close()
	if err != nil {
		return 1, err
	}
	jobs, err := sweep.Expand(spec)
	if err != nil {
		return 1, err
	}

	var remotes []dispatch.Backend
	for _, b := range strings.Split(backendList, ",") {
		if b = strings.TrimSpace(b); b == "" {
			continue
		}
		hb, err := dispatch.NewHTTP(b)
		if err != nil {
			return 2, err
		}
		remotes = append(remotes, hb)
	}

	var stream io.Writer
	switch outPath {
	case "":
	case "-":
		stream = stdout
	default:
		out, err := os.Create(outPath)
		if err != nil {
			return 1, err
		}
		defer out.Close()
		stream = out
	}
	var sink sweep.Sink
	if stream != nil {
		sink = sweep.WriterSink{W: stream}
	}

	c := &dispatch.Coordinator{Remotes: remotes, Local: dispatch.Local{}, Opt: opt}
	res, err := c.Run(ctx, jobs, sink)
	if err != nil {
		return 1, err
	}

	rep := sweep.NewReport(spec.Name, len(remotes)+1, res.Results)
	if stats {
		for _, b := range res.Backends {
			kind := "backend"
			if b.Local {
				kind = "local"
			}
			fmt.Fprintf(stderr, "hsfqmesh: %s %s: %s\n", kind, b.Name, b.Line)
		}
	}
	if summary {
		sweep.WriteSummary(stdout, rep, fmt.Sprintf("over %d backend(s) + local", len(remotes)), strings.Split(metricNames, ","))
	}

	if res.Mismatches > 0 {
		return exitMismatch, fmt.Errorf("%d remote result(s) failed digest verification (backend quarantined; affected jobs re-run locally)", res.Mismatches)
	}
	if rep.Failed > 0 {
		return 1, fmt.Errorf("%d of %d job(s) failed (first: %s)", rep.Failed, rep.Jobs, sweep.FirstError(res.Results))
	}
	return 0, nil
}
