package workload

import (
	"fmt"

	"hsfq/internal/cpu"
	"hsfq/internal/sim"
)

// This file implements cpu.Stater for every workload program, so a
// simulation built from these programs can be checkpointed mid-run and
// resumed without diverging. Static configuration (costs, periods,
// traces) is not serialized — the rebuild recreates it — only positions,
// phases, RNG streams, and the recorded metric series (slack, lateness,
// completion times) that the experiment reports at the end.

var (
	_ cpu.Stater = (*dhrystoneProgram)(nil)
	_ cpu.Stater = (*onOffProgram)(nil)
	_ cpu.Stater = (*scheduledLoopProgram)(nil)
	_ cpu.Stater = (*interactiveProgram)(nil)
	_ cpu.Stater = (*Decoder)(nil)
	_ cpu.Stater = (*PacedDecoder)(nil)
	_ cpu.Stater = (*Periodic)(nil)
)

func saveTimes(e *sim.Enc, ts []sim.Time) {
	e.Int(len(ts))
	for _, t := range ts {
		e.Time(t)
	}
}

func loadTimes(d *sim.Dec) []sim.Time {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Time())
	}
	return out
}

// SaveState implements cpu.Stater.
func (p *dhrystoneProgram) SaveState(e *sim.Enc) {
	e.Bool(p.computing)
	e.Int(p.batch)
}

// LoadState implements cpu.Stater.
func (p *dhrystoneProgram) LoadState(d *sim.Dec) error {
	p.computing = d.Bool()
	p.batch = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if p.batch < 0 {
		return fmt.Errorf("workload: negative dhrystone batch %d", p.batch)
	}
	return nil
}

// SaveState implements cpu.Stater.
func (p *onOffProgram) SaveState(e *sim.Enc) { e.Int(p.i) }

// LoadState implements cpu.Stater.
func (p *onOffProgram) LoadState(d *sim.Dec) error {
	p.i = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if p.i < 0 {
		return fmt.Errorf("workload: negative on-off phase %d", p.i)
	}
	return nil
}

// SaveState implements cpu.Stater. The program is stateless: behaviour
// depends only on the current time.
func (p *scheduledLoopProgram) SaveState(e *sim.Enc) {}

// LoadState implements cpu.Stater.
func (p *scheduledLoopProgram) LoadState(d *sim.Dec) error { return d.Err() }

// SaveState implements cpu.Stater. The RNG stream is the essential part:
// without it a resumed run would draw different think times and diverge.
func (p *interactiveProgram) SaveState(e *sim.Enc) {
	e.Bool(p.thinking)
	e.U64(p.rand.State())
}

// LoadState implements cpu.Stater.
func (p *interactiveProgram) LoadState(d *sim.Dec) error {
	p.thinking = d.Bool()
	st := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	p.rand.SetState(st)
	return nil
}

// SaveState implements cpu.Stater. Completion times are part of the
// state because FramesDecoded — the experiment's metric — is computed
// from them after the run. Frame costs are not: the rebuild recreates
// them, and an on-demand decoder regenerates the ones it had drawn.
func (p *Decoder) SaveState(e *sim.Enc) {
	e.Int(p.idx)
	saveTimes(e, p.doneTimes)
}

// LoadState implements cpu.Stater.
func (p *Decoder) LoadState(d *sim.Dec) error {
	idx := d.Int()
	times := loadTimes(d)
	if err := d.Err(); err != nil {
		return err
	}
	// Next never runs more than one frame ahead of the completions it
	// recorded, so the second bound also caps the prefix an on-demand
	// decoder regenerates at the size of the checkpoint.
	if idx < 0 || idx > p.frames || idx > len(times)+1 {
		return fmt.Errorf("workload: decoder position %d out of range [0, %d]", idx, min(p.frames, len(times)+1))
	}
	p.idx = idx
	p.doneTimes = times
	return nil
}

// SaveState implements cpu.Stater.
func (p *PacedDecoder) SaveState(e *sim.Enc) {
	e.Int(p.idx)
	e.Bool(p.pending)
	e.Time(p.pendingDeadline)
	saveTimes(e, p.Lateness)
}

// LoadState implements cpu.Stater.
func (p *PacedDecoder) LoadState(d *sim.Dec) error {
	idx := d.Int()
	pending := d.Bool()
	deadline := d.Time()
	lateness := loadTimes(d)
	if err := d.Err(); err != nil {
		return err
	}
	if idx < 0 || idx > len(p.trace) {
		return fmt.Errorf("workload: paced decoder position %d out of range [0, %d]", idx, len(p.trace))
	}
	p.idx = idx
	p.pending = pending
	p.pendingDeadline = deadline
	p.Lateness = lateness
	return nil
}

// SaveState implements cpu.Stater.
func (p *Periodic) SaveState(e *sim.Enc) {
	e.Time(p.nextRelease)
	e.Bool(p.pending)
	e.Time(p.deadline)
	e.Bool(p.started)
	e.Int(p.done)
	saveTimes(e, p.Slack)
	saveTimes(e, p.Releases)
}

// LoadState implements cpu.Stater.
func (p *Periodic) LoadState(d *sim.Dec) error {
	nextRelease := d.Time()
	pending := d.Bool()
	deadline := d.Time()
	started := d.Bool()
	done := d.Int()
	slack := loadTimes(d)
	releases := loadTimes(d)
	if err := d.Err(); err != nil {
		return err
	}
	if done < 0 {
		return fmt.Errorf("workload: negative completed-round count %d", done)
	}
	p.nextRelease = nextRelease
	p.pending = pending
	p.deadline = deadline
	p.started = started
	p.done = done
	p.Slack = slack
	p.Releases = releases
	return nil
}
