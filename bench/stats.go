package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minTail is the number of samples a percentile needs beyond it before it
// is reported as supported: a p90 needs 100 samples, a p99 1,000, a median
// 20.
const minTail = 10

// quantile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics, and whether the sample supports
// it: at least minTail samples lie beyond it. An empty sample gives 0,false.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	v := s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	return v, float64(n)*(1-q) >= minTail-1e-9 // 100*(1-0.9) is 9.999…
}

// median is quantile(xs, 0.5) without the support flag.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// metric is one reported number with its unit and the sample count behind
// it (0 for values that are not drawn from a sample, such as a ratio of two
// totals).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	// short marks a percentile whose sample is below the minTail rule.
	short bool
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string, n int) {
	s.put(name, metric{Value: v, Unit: unit, n: n})
}

// setQ records the q-quantile of xs, flagging it when the sample is too
// small to support it.
func (s *metricSet) setQ(name string, xs []float64, q float64, unit string) {
	v, ok := quantile(xs, q)
	s.put(name, metric{Value: v, Unit: unit, n: len(xs), short: !ok})
}

func (s *metricSet) put(name string, m metric) {
	if _, dup := s.m[name]; !dup {
		s.order = append(s.order, name)
	}
	s.m[name] = m
}

// print writes one line per metric: name, value, unit and sample count.
func (s *metricSet) print(w io.Writer, prefix string) {
	for _, name := range s.order {
		m := s.m[name]
		note := ""
		if m.short {
			note = fmt.Sprintf(" (fewer than %d samples beyond this percentile)", minTail)
		}
		fmt.Fprintf(w, "%s%-36s %14.6g %-6s n=%d%s\n", prefix, name, m.Value, m.Unit, m.n, note)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler samples the runtime's live-heap metric every 50 ms while a
// workload runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in MiB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}

// allocDelta measures the heap allocations fn makes, in objects and bytes.
func allocDelta(fn func()) (objects, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// span is one timed interval recorded by the benchmark around a call into
// a layer. Parent is 0 for a root span; Op groups the spans of one
// operation (a job, a request, a followed stream).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 when l is nil).
func (l *spanLog) begin(name string, parent, op int64) int64 {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now, EndNs: -1})
	return id
}

// end closes the span id.
func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// around runs fn inside a span.
func (l *spanLog) around(name string, parent, op int64, fn func()) {
	id := l.begin(name, parent, op)
	fn()
	l.end(id)
}

// spanSummary is the per-name roll-up of a span log.
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// summarize rolls spans up by name. A span's self time is its duration
// minus the part of that interval its children cover (overlapping
// children are merged, so concurrent children are not double-counted).
func (l *spanLog) summarize() []spanSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	var names []string
	for _, s := range l.spans {
		if s.EndNs < 0 {
			continue
		}
		sum, ok := byName[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		dur := s.EndNs - s.StartNs
		sum.Count++
		sum.TotalMs += float64(dur) / 1e6
		sum.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
