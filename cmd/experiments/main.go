// Command experiments regenerates the paper's evaluation figures on the
// simulated machine and self-checks their shapes.
//
// Usage:
//
//	experiments -run fig5            # one experiment
//	experiments -all                 # everything, summary at the end
//	experiments -all -workers 8      # same, run concurrently; output is
//	                                 # byte-identical to the serial run
//	experiments -all -json           # one JSON object per experiment
//	experiments -list                # available experiment ids
//	experiments -run fig8a -plot     # with ASCII plots
//
// Each experiment is an independent deterministic simulation, so -workers
// parallelizes across private machines without changing any result; the
// figures are rendered in id order regardless of completion order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hsfq/internal/experiments"
	"hsfq/internal/sweep"
)

func main() {
	var (
		runID   = flag.String("run", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		seed    = flag.Uint64("seed", 42, "random seed")
		plot    = flag.Bool("plot", false, "include ASCII plots")
		out     = flag.String("out", "", "also write each experiment's output to this directory")
		workers = flag.Int("workers", 1, "run experiments concurrently on this many workers")
		jsonOut = flag.Bool("json", false, "emit one JSON object per experiment (id, title, checks, digest) instead of ASCII")
	)
	flag.Parse()

	opt := experiments.Options{Seed: *seed, Plot: *plot}
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-18s %s\n", id, title)
		}
	case *all:
		results := runPool(experiments.IDs(), opt, *workers)
		failed := 0
		for _, res := range results {
			if !emit(res, *jsonOut, *out) {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d experiment(s) failed their shape checks\n", failed)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Println("all experiments reproduce the paper's shapes")
		}
	case *runID != "":
		res, err := experiments.Run(*runID, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !emit(res, *jsonOut, *out) {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runPool executes the experiments on a bounded worker pool and returns
// the results in id order. Every experiment builds its own simulated
// machine, so runs cannot interact.
func runPool(ids []string, opt experiments.Options, workers int) []*experiments.Result {
	results := make([]*experiments.Result, len(ids))
	sweep.ForEach(len(ids), workers, func(i int) {
		res, err := experiments.Run(ids[i], opt)
		if err != nil { // ids come from IDs(): cannot be unknown
			panic(err)
		}
		results[i] = res
	})
	return results
}

// jsonResult is the machine-readable form of one experiment, consumed by
// sweeps and CI instead of scraping the ASCII tables.
type jsonResult struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Passed bool                `json:"passed"`
	Digest string              `json:"digest"`
	Checks []experiments.Check `json:"checks"`
}

func emit(res *experiments.Result, asJSON bool, outDir string) bool {
	if asJSON {
		b, err := json.Marshal(jsonResult{
			ID: res.ID, Title: res.Title, Passed: res.Passed(),
			Digest: res.Digest(), Checks: res.Checks,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("==== %s: %s ====\n", res.ID, res.Title)
		fmt.Print(res.Output())
		fmt.Print(res.Summary())
		fmt.Println()
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		body := "==== " + res.ID + ": " + res.Title + " ====\n" + res.Output() + res.Summary()
		if err := os.WriteFile(filepath.Join(outDir, res.ID+".txt"), []byte(body), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
	}
	return res.Passed()
}
