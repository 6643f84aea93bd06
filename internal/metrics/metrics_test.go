package metrics

import (
	"math"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

func TestSamplerSeries(t *testing.T) {
	eng := sim.NewEngine()
	a := sched.NewThread(1, "a", 1)
	b := sched.NewThread(2, "b", 1)
	s := NewSampler(sim.Second, a, b)
	s.Install(eng, 3*sim.Second)
	// Simulate work accrual between samples.
	eng.At(500*sim.Millisecond, func() { a.Done = 10; b.Done = 5 })
	eng.At(1500*sim.Millisecond, func() { a.Done = 30; b.Done = 10 })
	eng.At(2500*sim.Millisecond, func() { a.Done = 60; b.Done = 30 })
	eng.Run()

	if got := s.Times(); len(got) != 4 || got[3] != 3*sim.Second {
		t.Fatalf("times %v", got)
	}
	if got := s.Cumulative(0); got[0] != 0 || got[1] != 10 || got[2] != 30 || got[3] != 60 {
		t.Errorf("cumulative %v", got)
	}
	if got := s.Deltas(0); got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("deltas %v", got)
	}
	r := s.RatioSeries(0, 1)
	if r[0] != 2 || r[1] != 4 || r[2] != 1.5 {
		t.Errorf("ratios %v", r)
	}
}

func TestSamplerRatioNaNOnZero(t *testing.T) {
	eng := sim.NewEngine()
	a := sched.NewThread(1, "a", 1)
	b := sched.NewThread(2, "b", 1)
	s := NewSampler(sim.Second, a, b)
	s.Install(eng, sim.Second)
	eng.At(500*sim.Millisecond, func() { a.Done = 10 })
	eng.Run()
	if r := s.RatioSeries(0, 1); !math.IsNaN(r[0]) {
		t.Errorf("ratio %v, want NaN", r)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]sched.Work{100, 100, 100}, []float64{1, 1, 1}); got != 1 {
		t.Errorf("perfect fairness index %v", got)
	}
	// Weighted: 300 at weight 3 and 100 at weight 1 is perfectly fair.
	if got := JainIndex([]sched.Work{300, 100}, []float64{3, 1}); got != 1 {
		t.Errorf("weighted fairness index %v", got)
	}
	got := JainIndex([]sched.Work{100, 0}, []float64{1, 1})
	if got > 0.51 || got < 0.49 {
		t.Errorf("one-sided index %v, want 0.5", got)
	}
	if got := JainIndex([]sched.Work{0, 0}, []float64{1, 1}); got != 1 {
		t.Errorf("all-zero index %v", got)
	}
}

func TestMaxNormalizedGap(t *testing.T) {
	if got := MaxNormalizedGap([]sched.Work{300, 100}, []float64{3, 1}); got != 0 {
		t.Errorf("gap %v", got)
	}
	if got := MaxNormalizedGap([]sched.Work{100, 100}, []float64{1, 2}); got != 50 {
		t.Errorf("gap %v, want 50", got)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV of constants %v", got)
	}
	got := CoefficientOfVariation([]float64{1, 3})
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CV %v, want 0.5", got)
	}
	if got := CoefficientOfVariation([]float64{0, 0}); got != 0 {
		t.Errorf("zero-mean CV %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 || s.Mean != 3 {
		t.Errorf("%+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
	if !strings.Contains(s.String(), "p50=3.000") {
		t.Errorf("summary string %q", s.String())
	}
	// Summarize must not mutate its input.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestDurations(t *testing.T) {
	got := Durations([]sim.Time{sim.Millisecond, 2500 * sim.Microsecond})
	if got[0] != 1 || got[1] != 2.5 {
		t.Errorf("%v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value", "ratio")
	tbl.AddRow("alpha", 42, 1.5)
	tbl.AddRow("b", int64(7), math.NaN())
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %q", out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "ratio") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.5") {
		t.Errorf("row %q", lines[2])
	}
	if !strings.Contains(lines[3], "-") { // NaN renders as -
		t.Errorf("NaN row %q", lines[3])
	}
}

func TestAsciiPlot(t *testing.T) {
	var b strings.Builder
	err := AsciiPlot(&b, 5, map[rune][]float64{
		'a': {0, 1, 2, 3, 4},
		'b': {4, 3, 2, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("plot missing marks:\n%s", out)
	}
	// Empty input.
	b.Reset()
	if err := AsciiPlot(&b, 5, nil); err != nil || !strings.Contains(b.String(), "no data") {
		t.Errorf("empty plot: %v %q", err, b.String())
	}
	// Flat series must not divide by zero.
	b.Reset()
	if err := AsciiPlot(&b, 3, map[rune][]float64{'x': {2, 2}}); err != nil {
		t.Fatal(err)
	}
}

// event is one machine event of kind k for thread t at time at.
func event(k trace.Kind, t *sched.Thread, at sim.Time) trace.Event {
	return trace.Event{At: at, Kind: k, Thread: t.Name, ThreadID: t.ID}
}

func TestLatencyRecorder(t *testing.T) {
	a := sched.NewThread(1, "a", 1)
	b := sched.NewThread(2, "b", 1)
	r := NewLatencyRecorder(a)

	r.Add(event(trace.Wake, a, 100))
	r.Add(event(trace.Dispatch, a, 150))
	// Untracked thread ignored.
	r.Add(event(trace.Wake, b, 100))
	r.Add(event(trace.Dispatch, b, 500))
	// Re-dispatch without a wake (preemption resume) records nothing.
	r.Add(event(trace.Dispatch, a, 300))
	// Second wake.
	r.Add(event(trace.Wake, a, 1000))
	r.Add(event(trace.Dispatch, a, 1010))

	got := r.Latencies(a)
	if len(got) != 2 || got[0] != 50 || got[1] != 10 {
		t.Errorf("latencies %v", got)
	}
	if r.MaxLatency(a) != 50 {
		t.Errorf("max %v", r.MaxLatency(a))
	}
	if len(r.Latencies(b)) != 0 {
		t.Error("untracked thread recorded")
	}
	// Untargeted recorder tracks everything.
	all := NewLatencyRecorder()
	all.Add(event(trace.Wake, b, 0))
	all.Add(event(trace.Dispatch, b, 7))
	if all.MaxLatency(b) != 7 {
		t.Error("untargeted recorder missed thread")
	}
}

func TestLatencyRecorderDoubleWake(t *testing.T) {
	// Two wakes without a dispatch: latency measured from the first.
	a := sched.NewThread(1, "a", 1)
	r := NewLatencyRecorder(a)
	r.Add(event(trace.Wake, a, 100))
	r.Add(event(trace.Wake, a, 200))
	r.Add(event(trace.Dispatch, a, 300))
	if got := r.Latencies(a); len(got) != 1 || got[0] != 200 {
		t.Errorf("latencies %v", got)
	}
}
