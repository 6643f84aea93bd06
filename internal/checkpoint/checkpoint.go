// Package checkpoint serializes the complete mutable state of a running
// simulation into a versioned, self-describing binary snapshot and
// restores it into a freshly rebuilt simulation such that the resumed
// run is byte-identical to an uninterrupted one — resume equivalence.
//
// A checkpoint is config + delta: simconfig.Build is deterministic, so
// the snapshot embeds the effective Config JSON and only the state that
// diverges from a fresh build — the virtual clock and event-sequence
// counters, per-thread accounting and program positions, pending-event
// descriptors, every scheduler's tags and queues, and every RNG stream.
// Restore rebuilds from the embedded config, drops the build's initial
// events (Engine.Reset), and overlays the saved delta; pending events
// are re-armed under their original sequence numbers, so the restored
// engine is indistinguishable from the saved one and save→restore→save
// is a byte-level fixed point.
//
// File format:
//
//	"HSFQCKP1" | sha256(payload) | payload
//	payload = version u64, then sections {name string, body blob}
//	          terminated by an "end" section
//
// Sections: "config" (effective Config JSON), "state" (engine + machine
// + scheduler delta), optional "trace" (recorder event log, so a resumed
// run emits the full logical trace). Unknown sections are skipped, so
// old readers tolerate new writers; the version number gates encoding
// changes to the known sections. The leading hash rejects truncated or
// corrupt files before any decoding happens.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

// Magic identifies checkpoint files; the trailing digit is the framing
// generation, not the payload version.
const Magic = "HSFQCKP1"

// Version is the payload encoding version this build reads and writes.
const Version = 1

// maxSections bounds the section loop against hostile inputs.
const maxSections = 64

// Options parameterize Save and Restore.
type Options struct {
	// Recorder, when non-nil, is saved into (or restored from) the
	// checkpoint's trace section, so the resumed run reproduces the FULL
	// event log of the logical run rather than just the tail.
	Recorder *trace.Recorder
}

// Snapshot appends the mutable-state delta — engine clock and counters,
// machine, and every scheduling structure (one per core on a partitioned
// or stealing multicore build) — to e. Once e and the schedulers' scratch
// buffers are warm it allocates nothing, so periodic checkpointing does
// not disturb the zero-allocation scheduling spine.
func Snapshot(s *simconfig.Simulation, e *sim.Enc) error {
	e.Time(s.Engine.Now())
	e.U64(s.Engine.Seq())
	e.U64(s.Engine.Fired())
	if err := s.Machine.SaveState(e); err != nil {
		return err
	}
	for _, st := range s.Structures {
		if err := st.SaveState(e); err != nil {
			return err
		}
	}
	return nil
}

// Save serializes the simulation into a framed checkpoint. It must be
// called at an event boundary: between Machine.Run calls, or from an
// engine event outside any program callback.
func Save(s *simconfig.Simulation, opt Options) ([]byte, error) {
	cfg, err := json.Marshal(s.Config)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: config: %w", err)
	}
	var body sim.Enc
	if err := Snapshot(s, &body); err != nil {
		return nil, err
	}

	var p sim.Enc
	p.U64(Version)
	p.Str("config")
	p.Blob(cfg)
	p.Str("state")
	p.Blob(body.Bytes())
	if opt.Recorder != nil {
		var tb sim.Enc
		opt.Recorder.SaveState(&tb)
		p.Str("trace")
		p.Blob(tb.Bytes())
	}
	p.Str("end")
	p.Blob(nil)

	payload := p.Bytes()
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(Magic)+sha256.Size+len(payload))
	out = append(out, Magic...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out, nil
}

// WriteFile atomically replaces path with data: it writes a temporary
// file in path's directory and renames it over path, so a reader, or a
// run killed mid-write, finds the previous file or the whole new one,
// never a torn snapshot.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: err is the failure to report
	}
	return err
}

// sections is a parsed checkpoint frame.
type sections struct {
	config   []byte
	state    []byte
	trace    []byte
	hasTrace bool
}

func parse(data []byte) (*sections, error) {
	if len(data) < len(Magic)+sha256.Size {
		return nil, fmt.Errorf("checkpoint: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:len(Magic)])
	}
	want := data[len(Magic) : len(Magic)+sha256.Size]
	payload := data[len(Magic)+sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("checkpoint: payload hash mismatch (corrupt or truncated)")
	}
	d := sim.NewDec(payload)
	version := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (this build reads %d)", version, Version)
	}
	sc := &sections{}
	for i := 0; ; i++ {
		if i >= maxSections {
			return nil, fmt.Errorf("checkpoint: more than %d sections", maxSections)
		}
		name := d.Str()
		body := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		switch name {
		case "end":
			if d.Remaining() != 0 {
				return nil, fmt.Errorf("checkpoint: %d bytes after end section", d.Remaining())
			}
			if sc.config == nil || sc.state == nil {
				return nil, fmt.Errorf("checkpoint: missing config or state section")
			}
			return sc, nil
		case "config":
			sc.config = body
		case "state":
			sc.state = body
		case "trace":
			sc.trace, sc.hasTrace = body, true
		default:
			// Forward compatibility: a newer writer may add sections this
			// reader does not know; skipping them is safe because the
			// known sections are self-contained.
		}
	}
}

// Restore rebuilds the checkpointed simulation: Build from the embedded
// config, then overlay the saved state. The returned simulation's clock
// stands at the checkpoint instant; continue it with
// Machine.Run(horizon) followed by Machine.Flush, exactly like a fresh
// run.
func Restore(data []byte, opt Options) (*simconfig.Simulation, error) {
	sc, err := parse(data)
	if err != nil {
		return nil, err
	}
	// Plain json.Unmarshal, unlike simconfig.Parse, ignores unknown
	// fields, so checkpoints whose embedded config carries a field this
	// build has retired still restore.
	var cfg simconfig.Config
	if err := json.Unmarshal(sc.config, &cfg); err != nil {
		return nil, fmt.Errorf("checkpoint: embedded config: %w", err)
	}
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuild: %w", err)
	}
	if err := RestoreState(s, sc.state); err != nil {
		return nil, err
	}
	if opt.Recorder != nil {
		if !sc.hasTrace {
			return nil, fmt.Errorf("checkpoint: no trace section; run the checkpointing side with tracing on")
		}
		// The trace encoding is core-tagged iff the machine was multicore;
		// the recorder must know the layout before it decodes.
		opt.Recorder.SetNumCores(cfg.NumCores())
		if err := opt.Recorder.LoadState(sim.NewDec(sc.trace)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RestoreState overlays a state delta captured by Snapshot onto a
// freshly built simulation of the same config.
func RestoreState(s *simconfig.Simulation, state []byte) error {
	d := sim.NewDec(state)
	now := d.Time()
	seq := d.U64()
	fired := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if now < 0 {
		return fmt.Errorf("checkpoint: negative clock %v", now)
	}
	byID := make(map[int]*sched.Thread, len(s.Threads))
	for _, t := range s.Threads {
		byID[t.ID] = t
	}
	resolve := func(id int) *sched.Thread { return byID[id] }
	s.Engine.Reset(now, seq, fired)
	if err := s.Machine.LoadState(d, resolve); err != nil {
		return err
	}
	for _, st := range s.Structures {
		if err := st.LoadState(d, resolve); err != nil {
			return err
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes in state section", d.Remaining())
	}
	return nil
}

// Info summarizes a checkpoint without rebuilding the simulation.
type Info struct {
	// At is the simulated instant the snapshot was taken.
	At sim.Time
	// Seed and Horizon come from the embedded effective config.
	Seed     uint64
	Horizon  sim.Time
	HasTrace bool
	// Config is the full embedded configuration.
	Config simconfig.Config
}

// Peek parses a checkpoint's frame and headers only.
func Peek(data []byte) (Info, error) {
	sc, err := parse(data)
	if err != nil {
		return Info{}, err
	}
	var cfg simconfig.Config
	if err := json.Unmarshal(sc.config, &cfg); err != nil {
		return Info{}, fmt.Errorf("checkpoint: embedded config: %w", err)
	}
	d := sim.NewDec(sc.state)
	at := d.Time()
	if err := d.Err(); err != nil {
		return Info{}, err
	}
	return Info{At: at, Seed: cfg.Seed, Horizon: cfg.Horizon.Time(), HasTrace: sc.hasTrace, Config: cfg}, nil
}
