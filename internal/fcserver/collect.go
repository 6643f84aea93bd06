package fcserver

import (
	"sort"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// Collector is a cpu.Listener that records a cumulative service trace per
// tracked thread (a ServicePoint at every charge), the raw material for
// FC/EBF conformance checks against measured schedules. Threads are keyed
// by ID, which is unique on a machine.
type Collector struct {
	tracked map[int]bool
	pts     map[int][]ServicePoint
	cum     map[int]sched.Work
}

// NewCollector tracks the given threads; with none given it tracks every
// thread it sees.
func NewCollector(threads ...*sched.Thread) *Collector {
	c := &Collector{
		pts: make(map[int][]ServicePoint),
		cum: make(map[int]sched.Work),
	}
	if len(threads) > 0 {
		c.tracked = make(map[int]bool, len(threads))
		for _, t := range threads {
			c.tracked[t.ID] = true
		}
	}
	return c
}

// Add implements cpu.Listener; only charge events count.
func (c *Collector) Add(e trace.Event) {
	id := e.ThreadID
	if e.Kind != trace.Charge || c.tracked != nil && !c.tracked[id] {
		return
	}
	c.cum[id] += e.Used
	c.pts[id] = append(c.pts[id], ServicePoint{At: e.At, Work: c.cum[id]})
}

// Points returns the cumulative service trace of t.
func (c *Collector) Points(t *sched.Thread) []ServicePoint {
	out := make([]ServicePoint, len(c.pts[t.ID]))
	copy(out, c.pts[t.ID])
	return out
}

// BusySlice returns the points of t that fall inside [from, to], with
// work re-based to zero at the first point — convenient for checking FC
// conformance over a window in which the thread was continuously
// runnable.
func (c *Collector) BusySlice(t *sched.Thread, from, to sim.Time) []ServicePoint {
	var out []ServicePoint
	var base sched.Work
	first := true
	for _, p := range c.pts[t.ID] {
		if p.At < from || p.At > to {
			continue
		}
		if first {
			base = p.Work
			first = false
		}
		out = append(out, ServicePoint{At: p.At - from, Work: p.Work - base})
	}
	return out
}

// MergePoints combines several cumulative service traces into one: the
// aggregate service of a scheduling class is the sum of its members'. The
// result has one point per input point, in time order, with cumulative
// work summed across all inputs — exactly the service process of the
// node that contains those threads.
func MergePoints(traces ...[]ServicePoint) []ServicePoint {
	type delta struct {
		at sim.Time
		w  sched.Work
	}
	var deltas []delta
	for _, tr := range traces {
		var prev sched.Work
		for _, p := range tr {
			deltas = append(deltas, delta{p.At, p.Work - prev})
			prev = p.Work
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	out := make([]ServicePoint, 0, len(deltas))
	var cum sched.Work
	for _, d := range deltas {
		cum += d.w
		out = append(out, ServicePoint{At: d.at, Work: cum})
	}
	return out
}
