package experiments

import (
	"fmt"

	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("fig3", "Computation of virtual time, start tag, and finish tag in SFQ: worked example", runFig3)
}

// fig3Row is one scheduling decision of the worked example.
type fig3Row struct {
	At     sim.Time
	Thread string
	SA, FA float64
	SB, FB float64
	V      float64
}

// fig3Expected is the execution sequence the paper derives in §3 and
// draws in Fig. 3: threads A and B with weights 1 and 2, 10 ms quanta,
// each consuming full quanta; B blocks at t=60 ms (resumes at 115 ms) and
// A blocks at t=90 ms (resumes at 110 ms). Tags are in the paper's units
// (1 tag unit = 1 ms of service). v is the virtual time as each quantum
// is dispatched. The entries through t=110 follow the paper's prose
// verbatim; the tail extends the same arithmetic to both threads' exits.
var fig3Expected = []struct {
	at     sim.Time
	thread string
	v      float64
}{
	{0, "A", 0},                     // S_A=0
	{10 * sim.Millisecond, "B", 0},  // S_B=0, F_A=10
	{20 * sim.Millisecond, "B", 5},  // F_B=5
	{30 * sim.Millisecond, "A", 10}, // F_B=10, tie A first (FIFO)
	{40 * sim.Millisecond, "B", 10},
	{50 * sim.Millisecond, "B", 15},
	{60 * sim.Millisecond, "A", 20},  // B blocks with F_B=20
	{70 * sim.Millisecond, "A", 30},  // "v(t) changes at the beginning of each quantum of A"
	{80 * sim.Millisecond, "A", 40},  // A blocks at 90 with F_A=50; idle v=50
	{110 * sim.Millisecond, "A", 50}, // A wakes: S_A=max(50,50)=50
	{120 * sim.Millisecond, "B", 50}, // B woke at 115 with S_B=max(50,20)=50
	{130 * sim.Millisecond, "B", 55},
	{140 * sim.Millisecond, "A", 60}, // tie at 60, A's tag is older
	{150 * sim.Millisecond, "B", 60},
}

func runFig3(opt Options) *Result {
	r := &Result{}
	// 1 instruction = 1 ms of CPU so tags read exactly as in the paper.
	const figRate = cpu.Rate(1000)
	eng := sim.NewEngine()
	leaf := sched.NewSFQ(10 * sim.Millisecond)
	m := cpu.NewMachine(eng, figRate, leaf)

	// A: 20 ms by t=60 plus 30 ms until it blocks at t=90, then 20 ms
	// after resuming. B: 40 ms by t=60, then 30 ms after resuming.
	a := m.Spawn("A", 1, cpu.Sequence(
		cpu.Compute(50), cpu.SleepUntil(110*sim.Millisecond), cpu.Compute(20), cpu.Exit(),
	), 0)
	b := m.Spawn("B", 2, cpu.Sequence(
		cpu.Compute(40), cpu.SleepUntil(115*sim.Millisecond), cpu.Compute(30), cpu.Exit(),
	), 0)

	finalF := map[*sched.Thread]float64{}
	var rows []fig3Row
	m.Listen(fig3ExitListener(func(t *sched.Thread, now sim.Time) {
		_, f := leaf.Tags(t)
		finalF[t] = f
	}))
	m.Listen(fig3Listener(func(t *sched.Thread, now sim.Time) {
		sa, fa := leaf.Tags(a)
		sb, fb := leaf.Tags(b)
		rows = append(rows, fig3Row{
			At: now, Thread: t.Name,
			SA: sa, FA: fa, SB: sb, FB: fb,
			V: leaf.VirtualTime(),
		})
	}))
	m.Run(200 * sim.Millisecond)

	tbl := metrics.NewTable("t", "runs", "v(t)", "S_A", "F_A", "S_B", "F_B")
	for _, row := range rows {
		tbl.AddRow(row.At, row.Thread, row.V, row.SA, row.FA, row.SB, row.FB)
	}
	r.Printf("%s", tbl.String())

	ok := len(rows) == len(fig3Expected)
	detail := fmt.Sprintf("%d dispatches, want %d", len(rows), len(fig3Expected))
	if ok {
		for i, want := range fig3Expected {
			got := rows[i]
			if got.At != want.at || got.Thread != want.thread || got.V != want.v {
				ok = false
				detail = fmt.Sprintf("dispatch %d: got (%v, %s, v=%g), want (%v, %s, v=%g)",
					i, got.At, got.Thread, got.V, want.at, want.thread, want.v)
				break
			}
		}
	}
	r.Check(ok, "golden execution sequence", "%s", detail)

	// Final tags, captured at exit (the machine forgets exited threads):
	// A exits after 70 units of normalized service, B after a resumed run
	// stamped at S=50 plus 30 ms at weight 2.
	fa := finalF[a]
	fb := finalF[b]
	r.Check(fa == 70, "F_A final", "got %v, want 70 (= 50 at block + 20/1 after resume)", fa)
	r.Check(fb == 65, "F_B final", "got %v, want 65 (= resume at S=50 + 30/2)", fb)
	r.Check(a.State == sched.StateExited && b.State == sched.StateExited,
		"completion", "A=%v B=%v", a.State, b.State)
	return r
}

type fig3Listener func(*sched.Thread, sim.Time)

func (f fig3Listener) OnDispatch(t *sched.Thread, now sim.Time)         { f(t, now) }
func (fig3Listener) OnCharge(*sched.Thread, sched.Work, sim.Time, bool) {}
func (fig3Listener) OnWake(*sched.Thread, sim.Time)                     {}
func (fig3Listener) OnBlock(*sched.Thread, sim.Time)                    {}
func (fig3Listener) OnExit(*sched.Thread, sim.Time)                     {}
func (fig3Listener) OnInterrupt(sim.Time, sim.Time)                     {}
func (fig3Listener) OnIdle(sim.Time)                                    {}

type fig3ExitListener func(*sched.Thread, sim.Time)

func (fig3ExitListener) OnDispatch(*sched.Thread, sim.Time)                 {}
func (fig3ExitListener) OnCharge(*sched.Thread, sched.Work, sim.Time, bool) {}
func (fig3ExitListener) OnWake(*sched.Thread, sim.Time)                     {}
func (fig3ExitListener) OnBlock(*sched.Thread, sim.Time)                    {}
func (f fig3ExitListener) OnExit(t *sched.Thread, now sim.Time)             { f(t, now) }
func (fig3ExitListener) OnInterrupt(sim.Time, sim.Time)                     {}
func (fig3ExitListener) OnIdle(sim.Time)                                    {}
