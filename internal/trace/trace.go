// Package trace records scheduling events from a simulated machine for
// debugging, experiment output, and golden-trace tests such as the
// reproduction of the paper's Fig. 3 worked example.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Kind classifies a recorded event.
type Kind string

// Event kinds.
const (
	Dispatch  Kind = "dispatch"
	Charge    Kind = "charge"
	Wake      Kind = "wake"
	Block     Kind = "block"
	Exit      Kind = "exit"
	Interrupt Kind = "interrupt"
	Idle      Kind = "idle"
)

// Event is one scheduling event.
type Event struct {
	At       sim.Time   `json:"at"`
	Kind     Kind       `json:"kind"`
	Thread   string     `json:"thread,omitempty"`
	ThreadID int        `json:"tid,omitempty"`
	Used     sched.Work `json:"used,omitempty"`
	Runnable bool       `json:"runnable,omitempty"`
	Service  sim.Time   `json:"service,omitempty"`
	// Core is the core a dispatch, charge or idle event happened on; every
	// other kind carries 0. Rows show it (as an extra trailing CSV column)
	// only for multicore machines, so single-core traces are
	// byte-identical to the pre-SMP format.
	Core int `json:"core,omitempty"`
}

// Recorder stores every event it is given; a cpu.Machine feeds it
// through Add.
type Recorder struct {
	numCores int // >1 switches the CSV and checkpoint encodings to core-tagged rows
	events   []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{numCores: 1} }

// SetNumCores tells the recorder how many cores feed it. Machine.Listen
// calls it automatically; checkpoint restore calls it before LoadState so
// the decoder knows whether rows carry a core column. n > 1 adds a "core"
// column to WriteCSV and a core field to the checkpoint encoding; n <= 1
// keeps both byte-identical to the single-core format.
func (r *Recorder) SetNumCores(n int) {
	if n < 1 {
		n = 1
	}
	r.numCores = n
}

// NumCores returns the core count the recorder was configured for.
func (r *Recorder) NumCores() int { return r.numCores }

// Add records one event.
func (r *Recorder) Add(e Event) { r.events = append(r.events, e) }

// Events returns the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Filter returns the events of the given kinds.
func (r *Recorder) Filter(kinds ...Kind) []Event {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range r.events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits the events as CSV with a header row. Recorders fed by a
// multicore machine append a trailing "core" column; the single-core
// format is unchanged.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"at_ns", "kind", "thread", "tid", "used", "runnable", "service_ns"}
	if r.numCores > 1 {
		header = append(header, "core")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range r.events {
		rec := []string{
			strconv.FormatInt(int64(e.At), 10),
			string(e.Kind),
			e.Thread,
			strconv.Itoa(e.ThreadID),
			strconv.FormatInt(int64(e.Used), 10),
			strconv.FormatBool(e.Runnable),
			strconv.FormatInt(int64(e.Service), 10),
		}
		if r.numCores > 1 {
			rec = append(rec, strconv.Itoa(e.Core))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the events as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.events)
}

// AppendRow appends the canonical row text of one event — exactly the
// bytes Hasher folds into its stream digest, one line per event with a
// trailing core column only on multicore streams. Everything that claims
// two event streams are "equal" (hsfqdiff's replay comparison, the
// tracestream follow protocol and its clients) renders rows through this
// one function, so digest equality and row equality can never drift
// apart.
//
// The bytes are frozen: every trace digest is defined by them. The row is
// written straight into buf, so a caller reusing buf allocates nothing.
func AppendRow(buf []byte, e Event, numCores int) []byte {
	return appendRow(buf, &e, numCores)
}

// appendRow is AppendRow for a caller holding the event by pointer.
func appendRow(buf []byte, e *Event, numCores int) []byte {
	buf = appendInt(buf, int64(e.At))
	buf = append(buf, ',')
	buf = append(buf, e.Kind...)
	buf = append(buf, ',')
	buf = append(buf, e.Thread...)
	buf = append(buf, ',')
	buf = appendInt(buf, int64(e.ThreadID))
	buf = append(buf, ',')
	buf = appendInt(buf, int64(e.Used))
	if e.Runnable {
		buf = append(buf, ",true,"...)
	} else {
		buf = append(buf, ",false,"...)
	}
	buf = appendInt(buf, int64(e.Service))
	if numCores > 1 {
		buf = append(buf, ',')
		buf = appendInt(buf, int64(e.Core))
	}
	return append(buf, '\n')
}

// digitPairs holds "00" through "99": appendInt writes two digits per
// division by looking them up here.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 holds 10^0 through 10^19, the powers decimalLen compares against.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of u >= 1.
// bits.Len64(u)*1233>>12 is log10(2^bits.Len64(u)) rounded down: the
// digit count of u or one less, and comparing u with 10^n tells which.
func decimalLen(u uint64) int {
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	return n
}

// appendInt appends v in decimal, the bytes strconv.AppendInt(buf, v, 10)
// appends. It sizes the number first and then writes its digits in place
// at the end of buf, two at a time, with no scratch array to copy from.
func appendInt(buf []byte, v int64) []byte {
	if 0 <= v && v < 10 {
		return append(buf, byte('0'+v))
	}
	u := uint64(v)
	if v < 0 {
		buf = append(buf, '-')
		u = -u
	}
	n := decimalLen(u)
	buf = slices.Grow(buf, n)
	i := len(buf) + n
	buf = buf[:i]
	for u >= 100 {
		r := u % 100 * 2
		u /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
	}
	if u >= 10 {
		buf[i-2], buf[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		buf[i-1] = byte('0' + u)
	}
	return buf
}

// RowText is AppendRow as a string, without the trailing newline — the
// display form of a single event in divergence reports.
func RowText(e Event, numCores int) string {
	b := AppendRow(nil, e, numCores)
	return string(b[:len(b)-1])
}

// ThreadMeta describes one thread's place in the scheduling tree, the
// sideband a trace stream carries so renderers can lay events out by
// hierarchy depth without access to the original config.
type ThreadMeta struct {
	// TID matches Event.ThreadID.
	TID int `json:"tid"`
	// Name matches Event.Thread.
	Name string `json:"name"`
	// Depth is the thread's depth in the scheduling tree: the number of
	// path segments of the leaf it is attached to (a thread on "/soft"
	// has depth 1, on "/be/user1" depth 2). The root scheduler is depth 0.
	Depth int `json:"depth"`
	// Path is the leaf the thread is attached to, e.g. "/soft".
	Path string `json:"path,omitempty"`
}

// RunSpans folds dispatch/charge pairs into (thread, start, end) spans —
// the Gantt view of the schedule.
type RunSpan struct {
	Thread string
	TID    int
	Start  sim.Time
	End    sim.Time
	Used   sched.Work
	Core   int
}

// Spans extracts run spans from the recorded events.
func (r *Recorder) Spans() []RunSpan { return SpansOf(r.events) }

// SpansOf folds an event sequence into run spans. A span opens at a
// dispatch and closes at the next charge of the same thread; interrupts in
// between lengthen the span's wall time, not its Used work. A thread runs
// on at most one core at a time, so keying open spans by thread is sound
// on multicore traces too.
func SpansOf(events []Event) []RunSpan {
	var out []RunSpan
	open := make(map[int]*RunSpan)
	for _, e := range events {
		switch e.Kind {
		case Dispatch:
			open[e.ThreadID] = &RunSpan{Thread: e.Thread, TID: e.ThreadID, Start: e.At, Core: e.Core}
		case Charge:
			if sp, ok := open[e.ThreadID]; ok {
				sp.End = e.At
				sp.Used = e.Used
				out = append(out, *sp)
				delete(open, e.ThreadID)
			}
		}
	}
	return out
}

// FormatSpans renders spans compactly: "name[start-end]".
func FormatSpans(spans []RunSpan) string {
	var b []byte
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s[%v-%v]", sp.Thread, sp.Start, sp.End)...)
	}
	return string(b)
}
