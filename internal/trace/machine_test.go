package trace_test

import (
	"testing"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// TestRecorderOnMachine wires the recorder to a real machine run and
// checks the event stream is self-consistent.
func TestRecorderOnMachine(t *testing.T) {
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, 1000, sched.NewSFQ(10*sim.Millisecond))
	r := trace.NewRecorder()
	m.Listen(r)
	m.Spawn("a", 1, cpu.Sequence(cpu.Compute(25), cpu.Sleep(5*sim.Millisecond), cpu.Compute(5), cpu.Exit()), 0)
	m.Run(sim.Second)

	spans := r.Spans()
	var total sched.Work
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %+v inverted", sp)
		}
		total += sp.Used
	}
	if total != 30 {
		t.Errorf("total span work %d, want 30", total)
	}
	if got := r.Filter(trace.Exit); len(got) != 1 {
		t.Errorf("exit events %d", len(got))
	}
	if got := r.Filter(trace.Block); len(got) != 1 {
		t.Errorf("block events %d", len(got))
	}
	if got := r.Filter(trace.Wake); len(got) != 2 {
		t.Errorf("wake events %d (spawn + sleep return)", len(got))
	}
}
