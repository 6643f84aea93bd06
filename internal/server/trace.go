package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
	"hsfq/internal/tracestream"
)

// This file implements GET /v1/trace/{key}: the simulator's live event
// stream as a service. Simulate and batch-job executions run with a
// tracestream.Broadcaster attached (when Config.TraceBytes > 0); the
// trace hub keys broadcasters by job content address, so
//
//	?follow=1        streams the run's events over SSE — live while the
//	                 job runs, seeded from the recording for gap-free
//	                 delivery from tick zero, replayed wholesale for a
//	                 finished job;
//	(no params)      serves the recorded wire-format frames raw, with the
//	                 digest in X-Trace-Digest;
//	?view=timeline   serves the depth-grouped timeline JSON;
//	?view=gantt      serves a self-contained HTML timeline page.
//
// Replay is sound because the simulator is deterministic: the recorded
// stream of a key-addressed job is THE stream of that job, whichever
// execution produced it.

// defaultStreamsPerTenant caps concurrent follow streams per tenant when
// the policy does not say otherwise.
const defaultStreamsPerTenant = 8

// Follow subscriber pending-buffer bounds; ?buf= is clamped into range.
// The buffer must absorb the gap between the simulation producing events
// (an in-process engine, tens of MB/s of frames) and SSE delivery, so
// the ceiling is generous; a client that wants a lossless live stream of
// a long run asks for a large buffer, a sampling dashboard asks for a
// small one and accepts drops.
const (
	minFollowBuf     = 4 << 10
	maxFollowBuf     = 64 << 20
	defaultFollowBuf = 8 << 20
)

// traceEntry is one job's trace: its broadcaster (which owns the
// recording) plus the run geometry views need.
type traceEntry struct {
	bc *tracestream.Broadcaster

	mu        sync.Mutex
	state     string // "pending" → "running" → "done" | "failed"
	horizonNs int64
	numCores  int
	bytes     int // recording size, for finished-LRU accounting
}

func (e *traceEntry) setRunning(horizonNs int64, numCores int) {
	e.mu.Lock()
	e.state, e.horizonNs, e.numCores = "running", horizonNs, numCores
	e.mu.Unlock()
}

func (e *traceEntry) info() (state string, horizonNs int64, numCores int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.horizonNs, e.numCores
}

// traceHub tracks live and finished traces. Live entries are bounded by
// pool concurrency; finished recordings live in an LRU bounded by total
// bytes.
type traceHub struct {
	mu       sync.Mutex
	live     map[string]*traceEntry
	done     map[string]*traceEntry
	order    []string // finished keys, oldest first
	doneSize int64
	maxBytes int64

	evicted atomic.Int64
}

func newTraceHub(maxBytes int64) *traceHub {
	if maxBytes <= 0 {
		maxBytes = 32 << 20
	}
	return &traceHub{
		live:     map[string]*traceEntry{},
		done:     map[string]*traceEntry{},
		maxBytes: maxBytes,
	}
}

// begin opens a live trace for key, or returns nil when the key is
// already being traced (a concurrent execution of the same job — only
// one stream per key can be canonical).
func (h *traceHub) begin(key string, recBytes int) *traceEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, busy := h.live[key]; busy {
		return nil
	}
	e := &traceEntry{bc: tracestream.New(), state: "pending"}
	e.bc.EnableRecording(recBytes)
	h.live[key] = e
	return e
}

// finish seals a live trace and moves it into the finished LRU,
// replacing any older recording of the same key (determinism makes them
// interchangeable) and evicting oldest-first past the byte cap.
func (h *traceHub) finish(key string, ok bool) {
	h.mu.Lock()
	e, found := h.live[key]
	h.mu.Unlock()
	if !found {
		return
	}
	e.bc.Finish()
	size := e.bc.Size()
	e.mu.Lock()
	if ok {
		e.state = "done"
	} else {
		e.state = "failed"
	}
	e.bytes = size
	e.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.live, key)
	if old, dup := h.done[key]; dup {
		h.doneSize -= int64(old.bytes)
		h.removeFromOrder(key)
	}
	h.done[key] = e
	h.order = append(h.order, key)
	h.doneSize += int64(e.bytes)
	for h.doneSize > h.maxBytes && len(h.order) > 1 {
		victim := h.order[0]
		h.order = h.order[1:]
		if v, okv := h.done[victim]; okv {
			h.doneSize -= int64(v.bytes)
			delete(h.done, victim)
			h.evicted.Add(1)
		}
	}
}

func (h *traceHub) removeFromOrder(key string) {
	for i, k := range h.order {
		if k == key {
			h.order = append(h.order[:i], h.order[i+1:]...)
			return
		}
	}
}

// get returns the trace for key, live entries first.
func (h *traceHub) get(key string) (*traceEntry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.live[key]; ok {
		return e, true
	}
	e, ok := h.done[key]
	return e, ok
}

// counts reports live and finished entry counts plus finished bytes.
func (h *traceHub) counts() (live, done int, doneBytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.live), len(h.done), h.doneSize
}

// executeJob is the execution path for simulate and batch jobs: a run
// wired to a broadcaster registered under the job key, or an unlistened
// one when tracing is off, the key is already being traced, or the
// server is draining.
func (s *Server) executeJob(key string, cfg simconfig.Config, seed uint64) (string, map[string]float64, error) {
	var entry *traceEntry
	if s.traces != nil && s.ready() {
		entry = s.traces.begin(key, s.cfg.TraceBytes)
	}
	if entry == nil {
		return s.execute(cfg, seed, nil)
	}
	digest, m, err := s.execute(cfg, seed, func(sm *simconfig.Simulation) {
		entry.setRunning(int64(sm.Config.Horizon.Time()), sm.Machine.NumCores())
		sm.Machine.Listen(entry.bc)
		entry.bc.Begin(sm.ThreadMetas())
	})
	s.traces.finish(key, err == nil)
	return digest, m, err
}

func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request, tenant string) int {
	key := r.PathValue("key")
	if !jobKeyRE.MatchString(key) {
		return writeError(w, http.StatusNotFound, errors.New("server: malformed job key (want 64-char hex digest)"))
	}
	if s.traces == nil {
		return writeError(w, http.StatusNotFound, errors.New("server: tracing disabled (start with a positive trace-bytes)"))
	}
	entry, ok := s.traces.get(key)
	if !ok {
		return writeError(w, http.StatusNotFound, errors.New("server: no trace for this job (not traced yet, or evicted)"))
	}
	q := r.URL.Query()
	if q.Get("follow") != "" {
		return s.serveTraceFollow(w, r, tenant, entry)
	}
	switch q.Get("view") {
	case "":
		return s.serveTraceRaw(w, entry)
	case "timeline":
		return s.serveTraceTimeline(w, key, entry, false)
	case "gantt":
		return s.serveTraceTimeline(w, key, entry, true)
	default:
		return writeError(w, http.StatusBadRequest, fmt.Errorf("server: unknown view %q (want timeline or gantt)", q.Get("view")))
	}
}

// serveTraceRaw serves the recorded wire-format frames. For a running
// job this is the stream so far (no end frame yet); for a finished job
// the complete stream, digest in X-Trace-Digest.
func (s *Server) serveTraceRaw(w http.ResponseWriter, entry *traceEntry) int {
	rec := entry.bc.Snapshot()
	state, _, _ := entry.info()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Trace-State", state)
	w.Header().Set("X-Trace-Digest", rec.Digest)
	w.Header().Set("X-Trace-Rows", strconv.Itoa(rec.Rows))
	if rec.Truncated {
		w.Header().Set("X-Trace-Truncated", strconv.FormatUint(rec.Lost, 10))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(rec.Frames)
	return http.StatusOK
}

// decodeRecording turns recorded frames back into events + metadata.
func decodeRecording(frames []byte) (events []trace.Event, meta []trace.ThreadMeta, numCores int, err error) {
	dec := tracestream.NewDecoder()
	dec.Feed(frames)
	numCores = 1
	for {
		f, ferr := dec.Next()
		if ferr != nil {
			return nil, nil, 0, ferr
		}
		if f == nil {
			return events, meta, numCores, nil
		}
		switch f.Type {
		case tracestream.FrameHeader:
			numCores = f.NumCores
		case tracestream.FrameThreads:
			meta = append(meta, f.Threads...)
		case tracestream.FrameEvent:
			events = append(events, f.Event)
		}
	}
}

// traceTimelineResponse wraps the timeline document with trace identity.
type traceTimelineResponse struct {
	Key       string         `json:"key"`
	State     string         `json:"state"`
	Digest    string         `json:"digest"`
	Rows      int            `json:"rows"`
	Truncated bool           `json:"truncated,omitempty"`
	Timeline  trace.Timeline `json:"timeline"`
}

func (s *Server) serveTraceTimeline(w http.ResponseWriter, key string, entry *traceEntry, asHTML bool) int {
	rec := entry.bc.Snapshot()
	state, horizonNs, numCores := entry.info()
	events, meta, decCores, err := decodeRecording(rec.Frames)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, &internalError{err})
	}
	if numCores == 0 {
		numCores = decCores
	}
	to := sim.Time(horizonNs)
	if to <= 0 {
		for _, e := range events {
			if e.At > to {
				to = e.At
			}
		}
	}
	tl := trace.BuildTimeline(trace.SpansOf(events), meta, 0, to, numCores)
	resp := traceTimelineResponse{
		Key: key, State: state, Digest: rec.Digest, Rows: rec.Rows,
		Truncated: rec.Truncated, Timeline: tl,
	}
	if !asHTML {
		b, merr := json.Marshal(resp)
		if merr != nil {
			return writeError(w, http.StatusInternalServerError, &internalError{merr})
		}
		return writeResult(w, b, "trace")
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := ganttTemplate.Execute(w, ganttPage(resp)); err != nil {
		return http.StatusOK // headers already sent; nothing better to do
	}
	return http.StatusOK
}

// serveTraceFollow streams a trace over SSE: wire frames decoded into
// text events (`header`, `threads`, `row`, `dropped`, `end`), one `row`
// per canonical event row — hashing the rows reproduces the trace
// digest. Draining follows the watch=1 protocol: new follows are refused
// with 503 while not ready, and active streams get a final "draining"
// status when the drain signal closes.
func (s *Server) serveTraceFollow(w http.ResponseWriter, r *http.Request, tenant string, entry *traceEntry) int {
	if _, ok := w.(http.Flusher); !ok {
		return writeError(w, http.StatusInternalServerError, errors.New("server: streaming unsupported"))
	}
	drain := s.draining()
	if isClosed(drain) {
		return writeError(w, http.StatusServiceUnavailable, ErrDraining)
	}
	if !s.acquireStream(tenant) {
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: tenant %q is at its concurrent trace-stream cap", tenant))
	}
	defer s.releaseStream(tenant)

	buf := defaultFollowBuf
	if v := r.URL.Query().Get("buf"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad buf %q", v))
		}
		buf = min(max(n, minFollowBuf), maxFollowBuf)
	}
	sub := entry.bc.Subscribe(buf)
	defer entry.bc.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// A live stream is hundreds of thousands of tiny events, flushed per
	// batch through a large buffer: per-row writes straight to the
	// ResponseWriter would make SSE delivery the bottleneck that overflows
	// the subscriber buffer.
	sse := newSSEWriter(w, 64<<10)
	dec := tracestream.NewDecoder()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		// Drain whatever is pending before waiting.
		if chunk := sub.Take(); chunk != nil {
			dec.Feed(chunk)
			// A decode failure is a server bug (the frame stream is
			// producer-encoded), but headers are sent — just end the stream.
			done, err := writeTraceSSE(sse, dec)
			if sse.flush() != nil || err != nil || done {
				return http.StatusOK
			}
			continue
		}
		select {
		case <-sub.Notify():
		case <-keepalive.C:
			sse.keepalive()
			if sse.flush() != nil {
				return http.StatusOK
			}
		case <-r.Context().Done():
			return http.StatusOK
		case <-drain:
			sse.event(statusEvent("draining"))
			sse.flush()
			return http.StatusOK
		}
	}
}

// writeTraceSSE emits SSE events for every complete frame in the
// decoder; done reports that the end frame was sent.
func writeTraceSSE(sse *sseWriter, dec *tracestream.Decoder) (done bool, err error) {
	for {
		f, ferr := dec.Next()
		if ferr != nil {
			return false, ferr
		}
		if f == nil {
			return false, nil
		}
		switch f.Type {
		case tracestream.FrameHeader:
			b, _ := json.Marshal(struct {
				Version  int `json:"version"`
				NumCores int `json:"num_cores"`
			}{f.Version, f.NumCores})
			sse.event(watchEvent{"header", b})
		case tracestream.FrameThreads:
			b, _ := json.Marshal(f.Threads)
			sse.event(watchEvent{"threads", b})
		case tracestream.FrameEvent:
			sse.row(f.Event, dec.NumCores())
		case tracestream.FrameDrop:
			b, _ := json.Marshal(struct {
				Dropped uint64 `json:"dropped"`
			}{f.Dropped})
			sse.event(watchEvent{"dropped", b})
		case tracestream.FrameEnd:
			b, _ := json.Marshal(struct {
				Rows   uint64 `json:"rows"`
				Digest string `json:"digest"`
			}{f.Rows, f.Digest})
			sse.event(watchEvent{"end", b})
			return true, nil
		}
	}
}

// acquireStream admits one more concurrent follow stream for the tenant
// under its policy cap.
func (s *Server) acquireStream(tenant string) bool {
	limit := s.pol.Load().StreamsOf(tenant, defaultStreamsPerTenant)
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.streams[tenant] >= limit {
		return false
	}
	s.streams[tenant]++
	return true
}

func (s *Server) releaseStream(tenant string) {
	s.streamMu.Lock()
	if s.streams[tenant] > 1 {
		s.streams[tenant]--
	} else {
		delete(s.streams, tenant)
	}
	s.streamMu.Unlock()
}

// ganttRow is one rendered bar of the HTML timeline.
type ganttRow struct {
	Label string
	Tip   string
	Left  float64 // percent
	Width float64 // percent
}

type ganttLaneView struct {
	Title string
	Rows  map[string][]ganttRow // thread label → bars
	Order []string
}

type ganttView struct {
	Key    string
	State  string
	Digest string
	Rows   int
	ToMs   float64
	Lanes  []ganttLaneView
}

// ganttPage projects the timeline document into template-ready bars.
func ganttPage(resp traceTimelineResponse) ganttView {
	v := ganttView{
		Key: resp.Key, State: resp.State, Digest: resp.Digest, Rows: resp.Rows,
		ToMs: float64(resp.Timeline.ToNs) / 1e6,
	}
	span := float64(resp.Timeline.ToNs - resp.Timeline.FromNs)
	if span <= 0 {
		span = 1
	}
	for _, lane := range resp.Timeline.Lanes {
		lv := ganttLaneView{Rows: map[string][]ganttRow{}}
		if lane.Depth < 0 {
			lv.Title = "depth ?"
		} else {
			lv.Title = fmt.Sprintf("depth %d", lane.Depth)
		}
		for _, th := range lane.Threads {
			label := th.Name
			if th.Path != "" {
				label = fmt.Sprintf("%s (%s)", th.Name, th.Path)
			}
			lv.Order = append(lv.Order, label)
			for _, sp := range th.Spans {
				lv.Rows[label] = append(lv.Rows[label], ganttRow{
					Label: label,
					Tip:   fmt.Sprintf("%s %.3f–%.3fms", th.Name, float64(sp.StartNs)/1e6, float64(sp.EndNs)/1e6),
					Left:  float64(sp.StartNs-resp.Timeline.FromNs) / span * 100,
					Width: float64(sp.EndNs-sp.StartNs) / span * 100,
				})
			}
		}
		v.Lanes = append(v.Lanes, lv)
	}
	return v
}

// ganttTemplate is the self-contained HTML timeline: depth lanes on the
// vertical axis, simulated time on the horizontal, no external assets.
var ganttTemplate = template.Must(template.New("gantt").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>trace {{.Key}}</title><style>
body { font: 13px/1.4 monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 15px; word-break: break-all; }
.meta { color: #666; margin-bottom: 1em; }
.lane { border-top: 2px solid #444; margin-top: 1em; padding-top: .3em; }
.lane h2 { font-size: 13px; margin: 0 0 .3em; }
.thread { display: flex; align-items: center; margin: 2px 0; }
.thread .name { width: 22em; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.track { position: relative; flex: 1; height: 14px; background: #eee; }
.bar { position: absolute; top: 0; height: 100%; background: #2a7ab0; min-width: 1px; }
.axis { text-align: right; color: #666; margin-top: .5em; }
</style></head><body>
<h1>trace {{.Key}}</h1>
<div class="meta">state {{.State}} · {{.Rows}} events · digest {{.Digest}}</div>
{{range .Lanes}}<div class="lane"><h2>{{.Title}}</h2>
{{$lane := .}}{{range .Order}}<div class="thread"><div class="name">{{.}}</div><div class="track">
{{range index $lane.Rows .}}<div class="bar" title="{{.Tip}}" style="left:{{printf "%.4f" .Left}}%;width:{{printf "%.4f" .Width}}%"></div>{{end}}
</div></div>{{end}}</div>{{end}}
<div class="axis">0 – {{printf "%.1f" .ToMs}} ms</div>
</body></html>
`))
