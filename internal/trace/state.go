package trace

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// SaveState captures the recorder's event log so a resumed run emits the
// FULL trace of the logical run, not just the tail after the restore
// point — the property the checkpoint smoke test byte-compares. A
// recorder fed by a multicore machine (numCores > 1) appends each event's
// core; the single-core encoding is byte-identical to the pre-SMP format,
// and the decoder learns the layout from SetNumCores, which checkpoint
// restore derives from the rebuilt config before calling LoadState. The
// leading integer is a legacy drop count, always 0, kept so checkpoint
// bytes do not change.
func (r *Recorder) SaveState(e *sim.Enc) {
	e.Int(0)
	e.Int(len(r.events))
	for _, ev := range r.events {
		e.Time(ev.At)
		e.Str(string(ev.Kind))
		e.Str(ev.Thread)
		e.Int(ev.ThreadID)
		e.I64(int64(ev.Used))
		e.Bool(ev.Runnable)
		e.Time(ev.Service)
		if r.numCores > 1 {
			e.Int(ev.Core)
		}
	}
}

// LoadState restores an event log saved by SaveState. The recorder must
// be empty (freshly built).
func (r *Recorder) LoadState(d *sim.Dec) error {
	if len(r.events) != 0 {
		return fmt.Errorf("trace: LoadState into a recorder with events")
	}
	drops := d.Int()
	n := d.Count(35)
	if err := d.Err(); err != nil {
		return err
	}
	if drops < 0 {
		return fmt.Errorf("trace: negative drop count %d", drops)
	}
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{
			At:       d.Time(),
			Kind:     Kind(d.Str()),
			Thread:   d.Str(),
			ThreadID: d.Int(),
			Used:     sched.Work(d.I64()),
			Runnable: d.Bool(),
			Service:  d.Time(),
		}
		if r.numCores > 1 {
			ev.Core = d.Int()
			if d.Err() == nil && (ev.Core < 0 || ev.Core >= r.numCores) {
				return fmt.Errorf("trace: event on core %d of a %d-core machine", ev.Core, r.numCores)
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
		events = append(events, ev)
	}
	r.events = events
	return nil
}
