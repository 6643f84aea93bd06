package fcserver

import (
	"math"
	"testing"
	"testing/quick"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

func pts(pairs ...int64) []ServicePoint {
	out := make([]ServicePoint, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, ServicePoint{At: sim.Time(pairs[i]) * sim.Millisecond, Work: sched.Work(pairs[i+1])})
	}
	return out
}

func TestFCMinService(t *testing.T) {
	fc := FC{Rate: 1000, Burst: 50}
	if got := fc.MinService(sim.Second); got != 950 {
		t.Errorf("MinService = %v", got)
	}
	if got := fc.MinService(0); got != -50 {
		t.Errorf("MinService(0) = %v", got)
	}
}

func TestFCConformance(t *testing.T) {
	// A constant-rate trace at exactly the FC rate conforms with zero
	// burst.
	fc := FC{Rate: 1000, Burst: 0} // 1000 work/s = 1 per ms
	trace := pts(0, 0, 100, 100, 200, 200, 300, 300)
	if d := fc.WorstDeficit(trace); d != 0 {
		t.Errorf("constant-rate deficit %v", d)
	}
	// A stall of 100 ms creates a deficit of 100 work units.
	stall := pts(0, 0, 100, 100, 200, 100, 300, 200)
	if d := fc.WorstDeficit(stall); math.Abs(d-100) > 1e-9 {
		t.Errorf("stall deficit %v, want 100", d)
	}
	if !(FC{Rate: 1000, Burst: 100}).Conforms(stall, 1e-9) {
		t.Error("burst 100 should absorb the stall")
	}
	if (FC{Rate: 1000, Burst: 99}).Conforms(stall, 1e-9) {
		t.Error("burst 99 should not absorb the stall")
	}
	if d := fc.WorstDeficit(nil); d != 0 {
		t.Errorf("empty trace deficit %v", d)
	}
}

func TestTightestBurst(t *testing.T) {
	stall := pts(0, 0, 100, 100, 200, 100, 300, 200)
	if b := TightestBurst(1000, stall); math.Abs(b-100) > 1e-9 {
		t.Errorf("tightest burst %v", b)
	}
}

// TestFCWorstDeficitMatchesBruteForce cross-checks the O(n) deficit scan
// against the O(n^2) definition on random traces.
func TestFCWorstDeficitMatchesBruteForce(t *testing.T) {
	f := func(deltas []uint8, rate16 uint16) bool {
		if len(deltas) < 2 {
			return true
		}
		rate := float64(rate16%5000) + 1
		trace := make([]ServicePoint, len(deltas))
		var at sim.Time
		var work sched.Work
		for i, d := range deltas {
			at += sim.Time(d%50+1) * sim.Millisecond
			work += sched.Work(d)
			trace[i] = ServicePoint{At: at, Work: work}
		}
		fc := FC{Rate: rate}
		fast := fc.WorstDeficit(trace)
		brute := 0.0
		for i := 0; i < len(trace); i++ {
			for j := i + 1; j < len(trace); j++ {
				w := float64(trace[j].Work - trace[i].Work)
				need := rate * (trace[j].At - trace[i].At).Seconds()
				if v := need - w; v > brute {
					brute = v
				}
			}
		}
		return math.Abs(fast-brute) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSFQThroughputComposition(t *testing.T) {
	// Eq. 6 with the paper's style of numbers: C=100 MIPS, delta=1e5,
	// thread at 30 MIPS with 1e6-instruction quanta against two others.
	server := FC{Rate: 100e6, Burst: 1e5}
	fc := SFQThroughput(server, 30e6, 1e6, []float64{1e6, 1e6})
	if fc.Rate != 30e6 {
		t.Errorf("rate %v", fc.Rate)
	}
	want := 0.3*(1e5+2e6) + 1e6
	if math.Abs(fc.Burst-want) > 1 {
		t.Errorf("burst %v, want %v", fc.Burst, want)
	}
	// Recursive composition: treating the thread's service as the server
	// of a nested class keeps it FC.
	nested := SFQThroughput(fc, 10e6, 1e5, []float64{1e5})
	if nested.Rate != 10e6 || nested.Burst <= 0 {
		t.Errorf("nested %+v", nested)
	}
}

func TestSFQThroughputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rate above capacity did not panic")
		}
	}()
	SFQThroughput(FC{Rate: 100}, 200, 1, nil)
}

func TestEATRecursion(t *testing.T) {
	// rf = 1000 work/s; quanta of 100 take 100 ms at reserved rate.
	e := NewEAT(1000)
	if got := e.Observe(0, 100); got != 0 {
		t.Errorf("EAT(0) = %v", got)
	}
	// Arrives before the previous quantum would have finished at rf.
	if got := e.Observe(10*sim.Millisecond, 100); got != 100*sim.Millisecond {
		t.Errorf("EAT(1) = %v, want 100ms", got)
	}
	// Arrives long after: EAT = arrival.
	if got := e.Observe(sim.Second, 100); got != sim.Second {
		t.Errorf("EAT(2) = %v", got)
	}
}

func TestDelayBounds(t *testing.T) {
	server := FC{Rate: 1000, Burst: 0}
	eat := sim.Time(0)
	// SFQ: (0 + lmax_other + lj)/C = (100+100)/1000 s = 200 ms.
	if got := SFQDelayBound(server, eat, 100, []float64{100}); got != 200*sim.Millisecond {
		t.Errorf("SFQ bound %v", got)
	}
	// WFQ for rf = 100 work/s: lj/rf + lmax/C = 1s + 100ms.
	if got := WFQDelayBound(server, eat, 100, 100, 100); got != 1100*sim.Millisecond {
		t.Errorf("WFQ bound %v", got)
	}
	// SCFQ adds sum of other lmax / C on top of WFQ.
	if got := SCFQDelayBound(server, eat, 100, 100, 100, []float64{100}); got != 1200*sim.Millisecond {
		t.Errorf("SCFQ bound %v", got)
	}
	// Low-throughput flow: SFQ strictly better.
	if adv := DelayAdvantageSFQ(server, 100, 100, 2); adv >= 0 {
		t.Errorf("advantage %v, want negative", adv)
	}
	// High-throughput flow with many competitors: WFQ can win.
	if adv := DelayAdvantageSFQ(server, 100, 900, 10); adv <= 0 {
		t.Errorf("advantage %v, want positive", adv)
	}
}

func TestEBFBounds(t *testing.T) {
	e := EBF{Rate: 1000, Burst: 10, B: 1, Alpha: 0.1}
	if p := e.ExceedanceBound(0); p != 1 {
		t.Errorf("P(gamma=0) = %v", p)
	}
	p := e.ExceedanceBound(10)
	if math.Abs(p-math.Exp(-1)) > 1e-12 {
		t.Errorf("P(gamma=10) = %v", p)
	}
	// Monotone decreasing.
	if e.ExceedanceBound(20) >= p {
		t.Error("bound not decreasing")
	}
}

func TestEBFEmpirical(t *testing.T) {
	// Perfect-rate trace: no exceedances at any gamma.
	trace := pts(0, 0, 100, 100, 200, 200, 300, 300, 400, 400)
	e := EBF{Rate: 1000, Burst: 0, B: 1, Alpha: 1}
	if p := e.EmpiricalExceedance(trace, 1, 0); p != 0 {
		t.Errorf("exceedance %v", p)
	}
	if g := e.ConformsEmpirically(trace, 1, []float64{0, 10, 100}); g != -1 {
		t.Errorf("violated at gamma %v", g)
	}
	// A long stall violates a tight EBF model at gamma=0... bound at
	// gamma 0 is B=1e-9, so any deficit violates.
	stall := pts(0, 0, 100, 100, 200, 100, 300, 200)
	tight := EBF{Rate: 1000, Burst: 0, B: 1e-9, Alpha: 1}
	if g := tight.ConformsEmpirically(stall, 1, []float64{0}); g != 0 {
		t.Errorf("stall accepted by tight model (g=%v)", g)
	}
}

func TestSFQThroughputEBF(t *testing.T) {
	server := EBF{Rate: 100e6, Burst: 1e5, B: 0.5, Alpha: 1e-6}
	out := SFQThroughputEBF(server, 25e6, 1e6, []float64{1e6})
	if out.Rate != 25e6 || out.B != 0.5 {
		t.Errorf("%+v", out)
	}
	if out.Alpha != 1e-6*4 {
		t.Errorf("alpha %v, want scaled by C/rf=4", out.Alpha)
	}
	wantBurst := 0.25*(1e5+1e6) + 1e6
	if math.Abs(out.Burst-wantBurst) > 1 {
		t.Errorf("burst %v want %v", out.Burst, wantBurst)
	}
	bound, prob := SFQDelayBoundEBF(server, sim.Second, 1e6, []float64{1e6}, 1e5)
	if bound <= sim.Second || prob <= 0 || prob > 1 {
		t.Errorf("bound %v prob %v", bound, prob)
	}
}

func TestCollector(t *testing.T) {
	a := sched.NewThread(1, "a", 1)
	b := sched.NewThread(2, "b", 1)
	c := NewCollector(a)
	charge := func(t *sched.Thread, used sched.Work, at sim.Time, runnable bool) {
		c.Add(trace.Event{At: at, Kind: trace.Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable})
	}
	charge(a, 100, 10*sim.Millisecond, true)
	charge(b, 999, 10*sim.Millisecond, true) // untracked
	// Only charges count.
	c.Add(trace.Event{At: 15 * sim.Millisecond, Kind: trace.Dispatch, ThreadID: a.ID})
	charge(a, 50, 20*sim.Millisecond, false)
	got := c.Points(a)
	if len(got) != 2 || got[1].Work != 150 {
		t.Errorf("points %v", got)
	}
	if len(c.Points(b)) != 0 {
		t.Error("untracked thread collected")
	}
	slice := c.BusySlice(a, 10*sim.Millisecond, 20*sim.Millisecond)
	if len(slice) != 2 || slice[0].At != 0 || slice[0].Work != 0 || slice[1].Work != 50 {
		t.Errorf("busy slice %v", slice)
	}
}
