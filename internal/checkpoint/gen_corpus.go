//go:build ignore

// gen_corpus regenerates the checked-in fuzz corpus for
// FuzzDecodeCheckpoint. Run it from the repository root after changing
// the checkpoint encoding:
//
//	go run ./internal/checkpoint/gen_corpus.go
//
// The corpus pins the interesting shapes — valid checkpoints with and
// without a trace section, truncations, version skew, bad magic, and
// bare payloads that exercise the decoders past the integrity hash — so
// CI's fuzz smoke starts from real structure instead of random bytes.
package main

import (
	"crypto/sha256"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hsfq/internal/checkpoint"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

func main() {
	dir := filepath.Join("internal", "checkpoint", "testdata", "fuzz", "FuzzDecodeCheckpoint")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	plain := build(false)
	traced := build(true)
	feedback := buildFeedback()
	payload := plain[len(checkpoint.Magic)+sha256.Size:]

	skew := append([]byte{}, plain...)
	skew[len(checkpoint.Magic)+sha256.Size] ^= 0x03

	flipped := append([]byte{}, payload...)
	flipped[len(flipped)/2] ^= 0x20

	entries := map[string][]byte{
		"valid-plain":       plain,
		"valid-traced":      traced,
		"truncated-frame":   plain[:len(plain)-9],
		"truncated-header":  plain[:20],
		"bad-magic":         append([]byte("NOTACKPT"), plain[8:]...),
		"version-skew":      skew,
		"bare-payload":      payload,
		"payload-flipped":   flipped,
		"payload-truncated": payload[:2*len(payload)/3],
		"valid-feedback":    feedback,
		"feedback-payload":  feedback[len(checkpoint.Magic)+sha256.Size:],
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d corpus entries to %s\n", len(entries), dir)
}

// buildFeedback checkpoints a run over the adaptive leaves (mlfq with
// non-default geometry, drr) so the corpus carries their Stater encodings.
func buildFeedback() []byte {
	c := simconfig.Config{
		RateMIPS: 100,
		Horizon:  simconfig.Duration(200 * sim.Millisecond),
		Seed:     7,
		Nodes: []simconfig.NodeConfig{
			{Path: "/fb", Weight: 2, Leaf: "mlfq", Levels: 3,
				Quantum: simconfig.Duration(2 * sim.Millisecond),
				Aging:   simconfig.Duration(40 * sim.Millisecond)},
			{Path: "/rr", Weight: 1, Leaf: "drr", Quantum: simconfig.Duration(3 * sim.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "a", Leaf: "/fb", Weight: 1},
			{Name: "b", Leaf: "/fb", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 3, Off: simconfig.Duration(10 * sim.Millisecond)}},
			{Name: "c", Leaf: "/rr", Weight: 1,
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 2, Off: simconfig.Duration(5 * sim.Millisecond)}},
		},
	}
	s, err := simconfig.Build(c, simconfig.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	s.Machine.Run(100 * sim.Millisecond)
	data, err := checkpoint.Save(s, checkpoint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return data
}

func build(withTrace bool) []byte {
	c := simconfig.Config{
		RateMIPS: 100,
		Horizon:  simconfig.Duration(200 * sim.Millisecond),
		Seed:     7,
		Nodes: []simconfig.NodeConfig{
			{Path: "/run", Weight: 1, Leaf: "sfq", Quantum: simconfig.Duration(5 * sim.Millisecond)},
		},
		Threads: []simconfig.ThreadConfig{
			{Name: "a", Leaf: "/run", Weight: 1},
			{Name: "b", Leaf: "/run", Weight: 2,
				Program: simconfig.ProgramConfig{Kind: "onoff", Bursts: 3, Off: simconfig.Duration(10 * sim.Millisecond)}},
		},
		Interrupts: []simconfig.InterruptConfig{
			{Kind: "periodic", Period: simconfig.Duration(7 * sim.Millisecond), Service: simconfig.Duration(100 * sim.Microsecond)},
		},
	}
	s, err := simconfig.Build(c, simconfig.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	opt := checkpoint.Options{}
	if withTrace {
		rec := trace.NewRecorder()
		s.Machine.Listen(rec)
		opt.Recorder = rec
	}
	s.Machine.Run(100 * sim.Millisecond)
	data, err := checkpoint.Save(s, opt)
	if err != nil {
		log.Fatal(err)
	}
	return data
}
