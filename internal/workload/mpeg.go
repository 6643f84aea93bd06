package workload

import (
	"fmt"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// MPEG generates per-frame decode costs for a VBR MPEG stream. The paper's
// Fig. 1 observes that decompression cost "varies from frame-to-frame
// (i.e., at the time scale of tens of milliseconds) as well as from
// scene-to-scene (i.e., at the time scale of seconds)", and that the
// variations are unpredictable. The generator reproduces both time scales:
//
//   - Frame scale: a repeating group-of-pictures pattern in which I frames
//     cost the most, P frames less, B frames least, each with
//     multiplicative noise.
//
//   - Scene scale: a Markov-modulated complexity level that jumps to a new
//     random multiplier every geometrically distributed scene length
//     (seconds of frames), modeling cuts between simple and complex scenes.
type MPEG struct {
	// GOP is the group-of-pictures pattern, e.g. "IBBPBBPBB".
	GOP string
	// FPS is the nominal display rate (frames per second).
	FPS int
	// IMean, PMean, BMean are mean decode costs per frame type, in
	// instructions.
	IMean, PMean, BMean sched.Work
	// Noise is the multiplicative frame-scale jitter: each frame's cost is
	// scaled by (1 +- Noise) uniformly. 0.25 is typical.
	Noise float64
	// SceneMeanFrames is the mean scene length in frames; each scene draws
	// a complexity multiplier uniformly in [SceneLow, SceneHigh].
	SceneMeanFrames     int
	SceneLow, SceneHigh float64
	// Rand drives all randomness; required.
	Rand *sim.Rand
}

// DefaultMPEG returns a generator tuned so the mean frame decode time is
// about 12 ms at the given machine rate with a typical 1990s GOP — close
// to the 20-40 ms/frame decode costs of the Berkeley player era relative
// to a SPARCstation-class CPU.
func DefaultMPEG(rate int64, rng *sim.Rand) MPEG {
	msWork := func(ms float64) sched.Work { return sched.Work(ms / 1000 * float64(rate)) }
	return MPEG{
		GOP:             "IBBPBBPBB",
		FPS:             30,
		IMean:           msWork(24),
		PMean:           msWork(14),
		BMean:           msWork(8),
		Noise:           0.25,
		SceneMeanFrames: 120,
		SceneLow:        0.6,
		SceneHigh:       1.8,
		Rand:            rng,
	}
}

func (m MPEG) validate() {
	if m.GOP == "" || m.FPS <= 0 || m.IMean <= 0 || m.PMean <= 0 || m.BMean <= 0 {
		panic("workload: MPEG misconfigured")
	}
	if m.Noise < 0 || m.Noise >= 1 {
		panic(fmt.Sprintf("workload: MPEG noise %v out of [0,1)", m.Noise))
	}
	if m.SceneMeanFrames <= 0 || m.SceneLow <= 0 || m.SceneHigh < m.SceneLow {
		panic("workload: MPEG scene model misconfigured")
	}
	if m.Rand == nil {
		panic("workload: MPEG without Rand")
	}
	for _, c := range m.GOP {
		if c != 'I' && c != 'P' && c != 'B' {
			panic(fmt.Sprintf("workload: MPEG GOP contains %q", c))
		}
	}
}

// mpegStream is the generator between two frames: the RNG it draws from,
// the GOP position of the next frame, and the current scene. Trace and the
// on-demand Decoder both step it, so the two produce the same costs.
type mpegStream struct {
	m         MPEG
	first     uint64 // m.Rand's state before the first frame
	i         int    // index of the next frame
	sceneLeft int
	sceneMul  float64
}

func (m MPEG) stream() *mpegStream {
	m.validate()
	return &mpegStream{m: m, first: m.Rand.State(), sceneMul: 1}
}

// rewind returns s to its first frame, m.Rand included, so the frames it
// draws next are the ones it drew first.
func (s *mpegStream) rewind() {
	s.m.Rand.SetState(s.first)
	s.i, s.sceneLeft, s.sceneMul = 0, 0, 1
}

// next returns the decode cost of the next frame.
func (s *mpegStream) next() sched.Work {
	m := &s.m
	if s.sceneLeft == 0 {
		// Geometric scene length with the configured mean.
		s.sceneLeft = 1 + int(m.Rand.ExpFloat64()*float64(m.SceneMeanFrames))
		s.sceneMul = m.SceneLow + m.Rand.Float64()*(m.SceneHigh-m.SceneLow)
	}
	s.sceneLeft--
	var mean sched.Work
	switch m.GOP[s.i%len(m.GOP)] {
	case 'I':
		mean = m.IMean
	case 'P':
		mean = m.PMean
	default:
		mean = m.BMean
	}
	s.i++
	jitter := 1 + m.Noise*(2*m.Rand.Float64()-1)
	w := sched.Work(float64(mean) * s.sceneMul * jitter)
	if w < 1 {
		w = 1
	}
	return w
}

// Trace generates the decode costs of n consecutive frames.
func (m MPEG) Trace(n int) []sched.Work {
	s := m.stream()
	out := make([]sched.Work, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// Decoder returns a decoder over the costs Trace(frames) would return. It
// draws each frame from the generator when it reaches it and keeps none,
// so its memory does not grow with frames. If loop is true the frames
// repeat: each pass rewinds the generator to its first frame and draws
// the same costs again. Otherwise the thread exits after the last one.
// The decoder draws from m.Rand while it runs and rewinds it at every
// loop, so nothing else may draw from that stream.
func (m MPEG) Decoder(frames int, loop bool) *Decoder {
	if frames <= 0 {
		panic("workload: decoder with no frames")
	}
	return &Decoder{frames: frames, gen: m.stream(), loop: loop}
}

// Decoder is a thread program that decodes a frame trace as fast as its
// CPU allocation allows, like the Berkeley MPEG player free-running in the
// paper's Fig. 10 experiment. FramesDecoded(now) is the reproduced metric.
type Decoder struct {
	// trace holds NewDecoder's frame costs; MPEG.Decoder draws them from
	// gen instead.
	trace []sched.Work
	// frames is the frame count at which the decoder wraps or exits.
	frames    int
	gen       *mpegStream // nil for NewDecoder
	idx       int
	doneTimes []sim.Time
	loop      bool
}

// NewDecoder returns a decoder over the given trace. If loop is true the
// trace repeats; otherwise the thread exits at the end.
func NewDecoder(trace []sched.Work, loop bool) *Decoder {
	if len(trace) == 0 {
		panic("workload: decoder with empty trace")
	}
	return &Decoder{trace: trace, frames: len(trace), loop: loop}
}

// Next implements cpu.Program.
func (d *Decoder) Next(now sim.Time) cpu.Action {
	if d.idx > 0 || len(d.doneTimes) > 0 {
		d.doneTimes = append(d.doneTimes, now)
	}
	if d.idx >= d.frames {
		if !d.loop {
			return cpu.Exit()
		}
		d.idx = 0
	}
	w := d.cost(d.idx)
	d.idx++
	return cpu.Compute(w)
}

// cost returns frame i's cost. An on-demand decoder draws it from gen,
// rewinding gen when i lies behind it (the decoder wrapped) and drawing
// up to i when i lies ahead of it (a restored position).
func (d *Decoder) cost(i int) sched.Work {
	if d.gen == nil {
		return d.trace[i]
	}
	if d.gen.i > i {
		d.gen.rewind()
	}
	for d.gen.i < i {
		d.gen.next()
	}
	return d.gen.next()
}

// FramesDecoded returns how many frames had completed by time t.
func (d *Decoder) FramesDecoded(t sim.Time) int {
	n := 0
	for _, dt := range d.doneTimes {
		if dt <= t {
			n++
		}
	}
	return n
}

// CompletionTimes returns a copy of the per-frame completion times.
func (d *Decoder) CompletionTimes() []sim.Time {
	out := make([]sim.Time, len(d.doneTimes))
	copy(out, d.doneTimes)
	return out
}

// PacedDecoder decodes one frame per display period, sleeping when ahead:
// the soft real-time presentation mode. It records per-frame lateness
// relative to the display deadline.
type PacedDecoder struct {
	trace           []sched.Work
	period          sim.Time
	idx             int // next frame to decode
	pending         bool
	pendingDeadline sim.Time
	// Lateness[i] = completion - deadline of frame i; <= 0 means on time.
	Lateness []sim.Time
}

// NewPacedDecoder returns a decoder displaying one frame every period.
func NewPacedDecoder(trace []sched.Work, period sim.Time) *PacedDecoder {
	if len(trace) == 0 || period <= 0 {
		panic("workload: paced decoder misconfigured")
	}
	return &PacedDecoder{trace: trace, period: period}
}

// Next implements cpu.Program.
func (p *PacedDecoder) Next(now sim.Time) cpu.Action {
	if p.pending {
		p.Lateness = append(p.Lateness, now-p.pendingDeadline)
		p.pending = false
	}
	if p.idx >= len(p.trace) {
		return cpu.Exit()
	}
	release := sim.Time(p.idx) * p.period
	if now < release {
		return cpu.SleepUntil(release)
	}
	w := p.trace[p.idx]
	// The frame must be decoded by the end of its display slot.
	p.pendingDeadline = sim.Time(p.idx+1) * p.period
	p.pending = true
	p.idx++
	return cpu.Compute(w)
}

// MissedDeadlines returns how many frames completed after their deadline.
func (p *PacedDecoder) MissedDeadlines() int {
	n := 0
	for _, l := range p.Lateness {
		if l > 0 {
			n++
		}
	}
	return n
}
