// Package tracestream turns the simulator's scheduling-event stream into
// a live service: a compact framed wire encoding of trace events, and a
// Broadcaster that fans the stream out to any number of subscribers
// through bounded per-subscriber buffers — a slow client gets a `dropped`
// gap marker, never backpressure into the engine.
package tracestream

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

// The wire format is a sequence of length-prefixed frames:
//
//	uvarint(len(body)) || body
//	body = type byte || payload
//
// A stream opens with a header frame (magic + version + core count),
// usually followed by a threads frame describing every thread's position
// in the scheduling tree (events carry only thread IDs; the decoder
// resolves names through this table). Event frames then carry one
// scheduling event each; a drop frame marks a gap where a slow consumer
// lost events; an end frame closes a complete stream with the row count
// and the trace.Hasher digest of the whole run.
const (
	frameHeader  = 0x01
	frameThreads = 0x02
	frameEvent   = 0x03
	frameDrop    = 0x04
	frameEnd     = 0x05
)

// Exported frame-type values, for consumers switching on Frame.Type.
const (
	FrameHeader  = frameHeader
	FrameThreads = frameThreads
	FrameEvent   = frameEvent
	FrameDrop    = frameDrop
	FrameEnd     = frameEnd
)

// Magic opens every stream's header frame.
const Magic = "HSFQTS"

// Version is the wire format version this package encodes.
const Version = 1

// Decoder safety limits: a malformed or hostile stream can declare
// absurd lengths; the decoder rejects anything beyond these before
// allocating.
const (
	maxFrameLen  = 1 << 20
	maxThreads   = 1 << 15
	maxStringLen = 1 << 12
)

// codeKinds lists event kinds by their single-byte wire code: the code of
// a kind is its index. Codes are part of the format: never renumber,
// only append.
var codeKinds = [...]trace.Kind{
	trace.Dispatch,  // 0
	trace.Charge,    // 1
	trace.Wake,      // 2
	trace.Block,     // 3
	trace.Exit,      // 4
	trace.Interrupt, // 5
	trace.Idle,      // 6
}

// badKind is the code of a kind the format does not know; the decoder
// rejects it. Machine-fed events never carry one.
const badKind = 0xff

// kindCode returns the wire code of k: its index in codeKinds, whose
// first entries are the most frequent kinds. The loop indexes the array
// in place; ranging over its elements would copy it on every call.
func kindCode(k trace.Kind) byte {
	for code := range codeKinds {
		if codeKinds[code] == k {
			return byte(code)
		}
	}
	return badKind
}

// appendFrame wraps a finished body in its length prefix.
func appendFrame(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendHeaderFrame appends the stream-opening header frame.
func AppendHeaderFrame(buf []byte, numCores int) []byte {
	body := make([]byte, 0, 16)
	body = append(body, frameHeader)
	body = append(body, Magic...)
	body = append(body, Version)
	body = binary.AppendUvarint(body, uint64(numCores))
	return appendFrame(buf, body)
}

// AppendThreadsFrame appends the thread-metadata frame.
func AppendThreadsFrame(buf []byte, meta []trace.ThreadMeta) []byte {
	body := make([]byte, 0, 16+32*len(meta))
	body = append(body, frameThreads)
	body = binary.AppendUvarint(body, uint64(len(meta)))
	for _, m := range meta {
		body = binary.AppendUvarint(body, uint64(m.TID))
		body = binary.AppendUvarint(body, uint64(m.Depth))
		body = appendString(body, m.Name)
		body = appendString(body, m.Path)
	}
	return appendFrame(buf, body)
}

// maxEventFrame bounds an event frame: a length byte, then a body of the
// type and kind bytes, five uvarints of at most binary.MaxVarintLen64
// bytes and the runnable byte. The body is at most 53 bytes, below 128,
// so its uvarint length prefix is always the one byte len(body).
const maxEventFrame = 1 + 2 + 5*binary.MaxVarintLen64 + 1

// AppendEventFrame appends one scheduling event. The thread name is not
// encoded — events carry only the TID, resolved against the threads
// frame on decode — so the frame stays a handful of bytes.
func AppendEventFrame(buf []byte, e trace.Event) []byte {
	return appendEventFrame(buf, &e)
}

// appendEventFrame encodes e in place at the end of buf: it reserves
// room for the longest frame once, writes the body after a length byte,
// and fills that byte in last.
func appendEventFrame(buf []byte, e *trace.Event) []byte {
	start := len(buf)
	buf = slices.Grow(buf, maxEventFrame)
	f := buf[start : start+maxEventFrame]
	f[1] = frameEvent
	f[2] = kindCode(e.Kind)
	n := 3
	n += binary.PutUvarint(f[n:], uint64(e.At))
	n += binary.PutUvarint(f[n:], uint64(e.ThreadID))
	n += binary.PutUvarint(f[n:], uint64(e.Used))
	if e.Runnable {
		f[n] = 1
	} else {
		f[n] = 0
	}
	n++
	n += binary.PutUvarint(f[n:], uint64(e.Service))
	n += binary.PutUvarint(f[n:], uint64(e.Core))
	f[0] = byte(n - 1)
	return buf[:start+n]
}

// AppendDropFrame appends a gap marker: count events were dropped here
// because the subscriber's buffer was full.
func AppendDropFrame(buf []byte, count uint64) []byte {
	var scratch [16]byte
	body := scratch[:0]
	body = append(body, frameDrop)
	body = binary.AppendUvarint(body, count)
	return appendFrame(buf, body)
}

// AppendEndFrame appends the stream-closing frame: total row count and
// the trace.Hasher hex digest of the complete run.
func AppendEndFrame(buf []byte, rows int, digest string) []byte {
	body := make([]byte, 0, 80)
	body = append(body, frameEnd)
	body = binary.AppendUvarint(body, uint64(rows))
	body = appendString(body, digest)
	return appendFrame(buf, body)
}

// Frame is one decoded wire frame. Type selects which fields are set.
type Frame struct {
	Type     byte
	Version  int
	NumCores int                // header
	Threads  []trace.ThreadMeta // threads
	Event    trace.Event        // event, Thread name resolved via the threads table
	Dropped  uint64             // drop
	Rows     uint64             // end
	Digest   string             // end
}

// Decoder incrementally decodes a frame stream. Feed it byte chunks in
// arrival order and call Next until it returns nil. The decoder carries
// the stream state (core count, TID→name table) across frames so event
// frames come back as fully resolved trace.Events. It is hardened
// against malformed input: any structural violation returns an error and
// no input can make it allocate unboundedly.
type Decoder struct {
	buf      []byte
	off      int
	numCores int
	names    map[int]string
	sawHdr   bool
	err      error
	frame    Frame // what Next returns, reset for every frame
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder { return &Decoder{numCores: 1} }

// Feed appends a chunk of stream bytes.
func (d *Decoder) Feed(p []byte) {
	// Compact consumed bytes before growing.
	if d.off > 0 && d.off == len(d.buf) {
		d.buf = d.buf[:0]
		d.off = 0
	} else if d.off > 1<<16 {
		d.buf = append(d.buf[:0], d.buf[d.off:]...)
		d.off = 0
	}
	d.buf = append(d.buf, p...)
}

// NumCores returns the core count from the header frame (1 before one is
// seen) — the value to pass to trace.AppendRow for canonical row text.
func (d *Decoder) NumCores() int { return d.numCores }

// Next returns the next complete frame, nil if more input is needed, or
// an error for a malformed stream. After an error the decoder is stuck:
// every subsequent call returns the same error. The frame is the
// decoder's own, valid until the next call to Next, like
// bufio.Scanner.Bytes: copy it to keep it.
func (d *Decoder) Next() (*Frame, error) {
	if d.err != nil {
		return nil, d.err
	}
	f, err := d.next()
	if err != nil {
		d.err = err
	}
	return f, err
}

func (d *Decoder) next() (*Frame, error) {
	rest := d.buf[d.off:]
	n, sz := binary.Uvarint(rest)
	if sz == 0 {
		return nil, nil // need more bytes for the length prefix
	}
	if sz < 0 || n > maxFrameLen {
		return nil, fmt.Errorf("tracestream: frame length %d exceeds limit", n)
	}
	if len(rest) < sz+int(n) {
		return nil, nil // body not fully arrived
	}
	body := rest[sz : sz+int(n)]
	d.off += sz + int(n)
	if len(body) == 0 {
		return nil, fmt.Errorf("tracestream: empty frame")
	}
	f := &d.frame
	*f = Frame{Type: body[0]}
	body = body[1:]
	switch f.Type {
	case frameHeader:
		return d.decodeHeader(f, body)
	case frameThreads:
		return d.decodeThreads(f, body)
	case frameEvent:
		return d.decodeEvent(f, body)
	case frameDrop:
		var ok bool
		if f.Dropped, body, ok = takeUvarint(body); !ok || len(body) != 0 {
			return nil, fmt.Errorf("tracestream: malformed drop frame")
		}
		return f, nil
	case frameEnd:
		var ok bool
		if f.Rows, body, ok = takeUvarint(body); !ok {
			return nil, fmt.Errorf("tracestream: malformed end frame")
		}
		if f.Digest, body, ok = takeString(body); !ok || len(body) != 0 {
			return nil, fmt.Errorf("tracestream: malformed end frame")
		}
		return f, nil
	default:
		return nil, fmt.Errorf("tracestream: unknown frame type 0x%02x", f.Type)
	}
}

func (d *Decoder) decodeHeader(f *Frame, body []byte) (*Frame, error) {
	if len(body) < len(Magic)+1 || string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("tracestream: bad magic")
	}
	f.Version = int(body[len(Magic)])
	if f.Version != Version {
		return nil, fmt.Errorf("tracestream: unsupported version %d", f.Version)
	}
	cores, rest, ok := takeUvarint(body[len(Magic)+1:])
	if !ok || len(rest) != 0 || cores == 0 || cores > 1<<12 {
		return nil, fmt.Errorf("tracestream: malformed header frame")
	}
	f.NumCores = int(cores)
	d.numCores = f.NumCores
	d.sawHdr = true
	return f, nil
}

func (d *Decoder) decodeThreads(f *Frame, body []byte) (*Frame, error) {
	count, body, ok := takeUvarint(body)
	if !ok || count > maxThreads {
		return nil, fmt.Errorf("tracestream: malformed threads frame")
	}
	if d.names == nil {
		d.names = make(map[int]string, count)
	}
	f.Threads = make([]trace.ThreadMeta, 0, count)
	for i := uint64(0); i < count; i++ {
		var m trace.ThreadMeta
		var tid, depth uint64
		if tid, body, ok = takeUvarint(body); !ok {
			return nil, fmt.Errorf("tracestream: malformed threads frame")
		}
		if depth, body, ok = takeUvarint(body); !ok {
			return nil, fmt.Errorf("tracestream: malformed threads frame")
		}
		if m.Name, body, ok = takeString(body); !ok {
			return nil, fmt.Errorf("tracestream: malformed threads frame")
		}
		if m.Path, body, ok = takeString(body); !ok {
			return nil, fmt.Errorf("tracestream: malformed threads frame")
		}
		m.TID = int(tid)
		m.Depth = int(depth)
		f.Threads = append(f.Threads, m)
		d.names[m.TID] = m.Name
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("tracestream: trailing bytes in threads frame")
	}
	return f, nil
}

func (d *Decoder) decodeEvent(f *Frame, body []byte) (*Frame, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	if int(body[0]) >= len(codeKinds) {
		return nil, fmt.Errorf("tracestream: unknown event kind 0x%02x", body[0])
	}
	kind := codeKinds[body[0]]
	body = body[1:]
	var at, tid, used, service, core uint64
	var ok bool
	if at, body, ok = takeUvarint(body); !ok {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	if tid, body, ok = takeUvarint(body); !ok {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	if used, body, ok = takeUvarint(body); !ok {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	if len(body) < 1 || body[0] > 1 {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	runnable := body[0] == 1
	body = body[1:]
	if service, body, ok = takeUvarint(body); !ok {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	if core, body, ok = takeUvarint(body); !ok || len(body) != 0 {
		return nil, fmt.Errorf("tracestream: malformed event frame")
	}
	f.Event = trace.Event{
		At:       sim.Time(at),
		Kind:     kind,
		ThreadID: int(tid),
		Used:     sched.Work(used),
		Runnable: runnable,
		Service:  sim.Time(service),
		Core:     int(core),
	}
	if tid != 0 {
		f.Event.Thread = d.names[int(tid)]
	}
	return f, nil
}

func takeUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

func takeString(b []byte) (string, []byte, bool) {
	n, b, ok := takeUvarint(b)
	if !ok || n > maxStringLen || uint64(len(b)) < n {
		return "", b, false
	}
	return string(b[:n]), b[n:], true
}
