package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Hasher folds canonical event rows (AppendRow) into a streaming SHA-256
// instead of storing them. As a cpu.Listener it is fed by a machine;
// through Add it is fed already-materialized events — a tracestream
// recording, or a client checking the rows it received. hsfqdiff uses it
// to compare two runs' event streams without holding either in memory,
// and to grab prefix digests at checkpoint instants: Sum does not disturb
// the running state, so the digest of the stream so far can be sampled at
// any event boundary.
type Hasher struct {
	cpu.BaseListener
	h        hash.Hash
	numCores int
	rows     int
	buf      []byte
}

// NewHasher returns an empty stream hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New(), numCores: 1} }

// SetNumCores tells the hasher how many cores feed it; Machine.Listen
// calls it automatically. Rows from a multicore machine gain a trailing
// core field, so single-core digests are unchanged.
func (s *Hasher) SetNumCores(n int) {
	if n < 1 {
		n = 1
	}
	s.numCores = n
}

// Add folds one event into the digest.
func (s *Hasher) Add(e Event) {
	s.buf = AppendRow(s.buf[:0], e, s.numCores)
	s.h.Write(s.buf)
	s.rows++
}

// OnDispatch implements cpu.Listener.
func (s *Hasher) OnDispatch(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Dispatch, Thread: t.Name, ThreadID: t.ID})
}

// OnCharge implements cpu.Listener.
func (s *Hasher) OnCharge(t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	s.Add(Event{At: now, Kind: Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable})
}

// OnWake implements cpu.Listener.
func (s *Hasher) OnWake(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Wake, Thread: t.Name, ThreadID: t.ID})
}

// OnBlock implements cpu.Listener.
func (s *Hasher) OnBlock(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Block, Thread: t.Name, ThreadID: t.ID})
}

// OnExit implements cpu.Listener.
func (s *Hasher) OnExit(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Exit, Thread: t.Name, ThreadID: t.ID})
}

// OnInterrupt implements cpu.Listener.
func (s *Hasher) OnInterrupt(now, service sim.Time) {
	s.Add(Event{At: now, Kind: Interrupt, Service: service})
}

// OnIdle implements cpu.Listener.
func (s *Hasher) OnIdle(now sim.Time) {
	s.Add(Event{At: now, Kind: Idle})
}

// OnDispatchCore implements cpu.SMPListener.
func (s *Hasher) OnDispatchCore(core int, t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Dispatch, Thread: t.Name, ThreadID: t.ID, Core: core})
}

// OnChargeCore implements cpu.SMPListener.
func (s *Hasher) OnChargeCore(core int, t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	s.Add(Event{At: now, Kind: Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable, Core: core})
}

// OnIdleCore implements cpu.SMPListener.
func (s *Hasher) OnIdleCore(core int, now sim.Time) {
	s.Add(Event{At: now, Kind: Idle, Core: core})
}

// Rows returns how many events have been hashed.
func (s *Hasher) Rows() int { return s.rows }

// Sum returns the hex digest of the stream so far without disturbing the
// running state.
func (s *Hasher) Sum() string {
	var sum [sha256.Size]byte
	return hex.EncodeToString(s.h.Sum(sum[:0]))
}
