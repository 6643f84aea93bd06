package metrics

import (
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// LatencyRecorder observes machine events and records, per tracked thread,
// the scheduling latency of each wakeup: "the duration for which a thread
// has to wait prior to getting access to the CPU after its clock
// interrupt" (Fig. 9a). Threads are keyed by ID, which is unique on a
// machine.
type LatencyRecorder struct {
	tracked map[int]bool
	wokeAt  map[int]sim.Time
	lat     map[int][]sim.Time
}

// NewLatencyRecorder tracks the given threads; with none given it tracks
// every thread it sees.
func NewLatencyRecorder(threads ...*sched.Thread) *LatencyRecorder {
	r := &LatencyRecorder{
		wokeAt: make(map[int]sim.Time),
		lat:    make(map[int][]sim.Time),
	}
	if len(threads) > 0 {
		r.tracked = make(map[int]bool, len(threads))
		for _, t := range threads {
			r.tracked[t.ID] = true
		}
	}
	return r
}

// Add implements cpu.Listener: a wake opens a latency interval, the next
// dispatch of the same thread closes it.
func (r *LatencyRecorder) Add(e trace.Event) {
	id := e.ThreadID
	if r.tracked != nil && !r.tracked[id] {
		return
	}
	switch e.Kind {
	case trace.Wake:
		if _, pending := r.wokeAt[id]; !pending {
			r.wokeAt[id] = e.At
		}
	case trace.Dispatch:
		if at, pending := r.wokeAt[id]; pending {
			r.lat[id] = append(r.lat[id], e.At-at)
			delete(r.wokeAt, id)
		}
	}
}

// Latencies returns the recorded wake-to-dispatch latencies of t.
func (r *LatencyRecorder) Latencies(t *sched.Thread) []sim.Time {
	out := make([]sim.Time, len(r.lat[t.ID]))
	copy(out, r.lat[t.ID])
	return out
}

// MaxLatency returns the largest recorded latency of t, or 0.
func (r *LatencyRecorder) MaxLatency(t *sched.Thread) sim.Time {
	var max sim.Time
	for _, l := range r.lat[t.ID] {
		if l > max {
			max = l
		}
	}
	return max
}
