// Command hsfqdiff localizes the first divergent scheduling event between
// two simulation runs. Give it two configs (or one config under two
// seeds): if their event streams are identical it says so and exits 0;
// otherwise it reports the simulated time of the first event where the
// runs part ways and exits 3.
//
// Usage:
//
//	hsfqdiff -a before.json -b after.json
//	hsfqdiff -a sim.json -b sim.json -seed-a 1 -seed-b 2
//	hsfqdiff -a before.json -b after.json -grid 64
//	hsfqdiff -a before.json -b after.json -json
//
// The checkpoint-grid bisection itself lives in internal/tracediff
// (shared with hsfqd's POST /v1/diff endpoint); this command is a thin
// client. With -json it emits the tracediff.Result JSON document — the
// same schema the service returns — instead of the human-readable
// report, so scripts stop scraping text. Exit codes are identical in
// both modes.
//
// Exit status: 0 identical, 3 divergent, 1 error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/tracediff"
)

// exitDivergent mirrors hsfqsweep's mismatch code: the runs completed
// fine but their streams differ.
const exitDivergent = 3

func main() {
	var (
		aPath   = flag.String("a", "", "first simulation config (required)")
		bPath   = flag.String("b", "", "second simulation config (required)")
		seedA   = flag.Uint64("seed-a", 0, "seed override for -a")
		seedB   = flag.Uint64("seed-b", 0, "seed override for -b")
		grid    = flag.Int("grid", 16, "checkpoint instants per run; finer grids replay less")
		jsonOut = flag.Bool("json", false, "emit the result as JSON (the POST /v1/diff schema) instead of text")
	)
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	divergent, err := run(os.Stdout, *aPath, *bPath, *seedA, *seedB, *grid, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfqdiff:", err)
		os.Exit(1)
	}
	if divergent {
		os.Exit(exitDivergent)
	}
}

// run diffs the runs of the configs at aPath and bPath and writes the
// report to w, as text or, with jsonOut, as JSON. It reports whether the
// runs diverge.
func run(w io.Writer, aPath, bPath string, seedA, seedB uint64, grid int, jsonOut bool) (bool, error) {
	a, err := load("a", aPath, seedA)
	if err != nil {
		return false, err
	}
	b, err := load("b", bPath, seedB)
	if err != nil {
		return false, err
	}
	warn := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hsfqdiff: "+format+"\n", args...)
	}
	res, err := tracediff.Diff(a, b, grid, warn)
	if err != nil {
		return false, err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		if err := enc.Encode(res); err != nil {
			return false, err
		}
		return res.Divergent(), nil
	}
	if !res.Divergent() {
		fmt.Fprintf(w, "identical: %d event(s), digest %s\n", res.Rows, res.Digest)
		return false, nil
	}
	fmt.Fprintf(w, "divergence_at_ns=%d\n", res.DivergenceAtNs)
	fmt.Fprintf(w, "a: %s\nb: %s\n", res.FirstRows.A, res.FirstRows.B)
	fmt.Fprintf(w, "replayed from instant %d/%d (t=%v), %d vs %d event(s) in the window\n",
		res.ReplayFromInstant, res.Grid, sim.Time(res.ReplayFromNs), res.EventsA, res.EventsB)
	return true, nil
}

// load reads one side's config file.
func load(label, path string, seed uint64) (tracediff.Input, error) {
	f, err := os.Open(path)
	if err != nil {
		return tracediff.Input{}, err
	}
	cfg, err := simconfig.Parse(f)
	f.Close()
	if err != nil {
		return tracediff.Input{}, fmt.Errorf("%s: %w", path, err)
	}
	return tracediff.Input{Label: label, Config: cfg, Seed: seed}, nil
}
