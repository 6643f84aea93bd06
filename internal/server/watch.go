package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"hsfq/internal/trace"
)

// This file implements GET /v1/jobs/{key}?watch=1: job status streamed
// over Server-Sent Events (queued → running → done with the cached body),
// so long sweeps are observable without polling. The hub fans lifecycle
// transitions out to watchers; the server's drain signal ends every
// stream cleanly with a final "draining" status before the listener
// stops.

// watchEvent is one SSE frame: an event name plus a single-line JSON
// payload.
type watchEvent struct {
	name string
	data []byte
}

func statusEvent(state string) watchEvent {
	b, _ := json.Marshal(struct {
		State string `json:"state"`
	}{state})
	return watchEvent{"status", b}
}

// watchHub fans job lifecycle events out to the job's SSE watchers.
type watchHub struct {
	mu   sync.Mutex
	subs map[string]map[chan watchEvent]struct{}
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[string]map[chan watchEvent]struct{})}
}

// subscribe registers a watcher for key. cancel is idempotent and safe
// to call after the hub closed the channel.
func (h *watchHub) subscribe(key string) (ch chan watchEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch = make(chan watchEvent, 8)
	set := h.subs[key]
	if set == nil {
		set = make(map[chan watchEvent]struct{})
		h.subs[key] = set
	}
	set[ch] = struct{}{}
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if cur, ok := h.subs[key]; ok {
			delete(cur, ch)
			if len(cur) == 0 {
				delete(h.subs, key)
			}
		}
	}
}

// broadcast delivers ev to every watcher of key; sends never block the
// serving path (a stalled watcher's buffer drops intermediate events). A
// terminal event additionally closes every watcher's channel, ending the
// streams.
func (h *watchHub) broadcast(key string, ev watchEvent, terminal bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.subs[key]
	if set == nil {
		return
	}
	for ch := range set {
		select {
		case ch <- ev:
		default:
		}
	}
	if terminal {
		for ch := range set {
			close(ch)
		}
		delete(h.subs, key)
	}
}

// announce broadcasts a non-terminal status transition ("queued",
// "running").
func (h *watchHub) announce(key, state string) { h.broadcast(key, statusEvent(state), false) }

// complete broadcasts the finished job's body and ends its streams.
func (h *watchHub) complete(key string, body []byte) {
	h.broadcast(key, watchEvent{"done", body}, true)
}

// fail broadcasts a job failure and ends its streams.
func (h *watchHub) fail(key, msg string) {
	b, _ := json.Marshal(errorResponse{Error: msg})
	h.broadcast(key, watchEvent{"error", b}, true)
}

// sseWriteTimeout bounds every write of an SSE stream to its client. A
// client that stops reading fails the write once the deadline passes,
// which ends the stream and frees its handler and stream slot. The
// server sets no WriteTimeout, which would cut long streams. A variable
// only so tests can shorten it.
var sseWriteTimeout = 30 * time.Second

// deadlineWriter passes each write on to the response with a fresh write
// deadline. Response writers that have no deadlines, such as
// httptest.ResponseRecorder, take the write without one.
type deadlineWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (d deadlineWriter) Write(p []byte) (int, error) {
	err := d.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
	if err != nil && !errors.Is(err, http.ErrNotSupported) {
		return 0, err
	}
	return d.w.Write(p)
}

// sseWriter is the server's one Server-Sent Events encoder, shared by
// job watch and trace follow streams. Events collect in a buffered writer
// and reach the client at flush: once per batch of trace rows, after
// every lifecycle event of a watched job. Each write from the buffer to
// the response, a full buffer or a flush, gets its own write deadline.
type sseWriter struct {
	bw *bufio.Writer
	rc *http.ResponseController
}

func newSSEWriter(w http.ResponseWriter, size int) *sseWriter {
	rc := http.NewResponseController(w)
	return &sseWriter{bw: bufio.NewWriterSize(deadlineWriter{w, rc}, size), rc: rc}
}

// event writes one SSE event; ev.data must be a single line.
func (s *sseWriter) event(ev watchEvent) {
	s.bw.WriteString("event: ")
	s.bw.WriteString(ev.name)
	s.bw.WriteString("\ndata: ")
	s.bw.Write(ev.data)
	s.bw.WriteString("\n\n")
}

// row writes a trace event as a "row" event whose data is the canonical
// row; the row's own trailing newline ends the data line. The event is
// rendered straight into the buffered writer's free space.
func (s *sseWriter) row(e trace.Event, numCores int) {
	buf := append(s.bw.AvailableBuffer(), "event: row\ndata: "...)
	buf = trace.AppendRow(buf, e, numCores)
	s.bw.Write(append(buf, '\n'))
}

// keepalive writes an SSE comment that keeps idle connections open.
func (s *sseWriter) keepalive() { s.bw.WriteString(": keepalive\n\n") }

// flush sends everything buffered to the client. Write errors stick in
// the buffered writer, so an error here means the client has gone or
// stopped reading.
func (s *sseWriter) flush() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.rc.Flush()
}

// serveJobWatch streams a job's status over SSE. Subscribe-then-check
// ordering makes completion race-free: a job finishing around the
// subscription either already populated the cache (served as an immediate
// "done") or will be broadcast to the subscription channel.
func (s *Server) serveJobWatch(w http.ResponseWriter, r *http.Request, key string) int {
	if _, ok := w.(http.Flusher); !ok {
		return writeError(w, http.StatusInternalServerError, errors.New("server: streaming unsupported"))
	}
	drain := s.draining()
	if isClosed(drain) {
		return writeError(w, http.StatusServiceUnavailable, ErrDraining)
	}
	ch, cancel := s.watch.subscribe(key)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	sse := newSSEWriter(w, 4<<10) // a few small events per job
	if body, ok := s.cache.Get(key); ok {
		sse.event(watchEvent{"done", body})
		sse.flush()
		return http.StatusOK
	}
	state := "unknown"
	s.flightMu.Lock()
	if _, inFlight := s.flights[key]; inFlight {
		state = "queued"
	}
	s.flightMu.Unlock()
	sse.event(statusEvent(state))
	if sse.flush() != nil {
		return http.StatusOK
	}

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return http.StatusOK
			}
			sse.event(ev)
		case <-keepalive.C:
			sse.keepalive()
		case <-r.Context().Done():
			return http.StatusOK
		case <-drain:
			sse.event(statusEvent("draining"))
			sse.flush()
			return http.StatusOK
		}
		if sse.flush() != nil {
			return http.StatusOK
		}
	}
}
