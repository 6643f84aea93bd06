package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// hashBatch is how many row bytes a Hasher gathers before it writes them
// to SHA-256 at once: one Write per 4 KiB of rows, about a hundred rows,
// instead of one per row.
const hashBatch = 4 << 10

// rowRoom is the space a Hasher's buffer keeps past hashBatch for the row
// that fills it. Rows are about 40 bytes; a row longer than rowRoom (a
// thread name of hundreds of bytes) grows the buffer once.
const rowRoom = 512

// Hasher folds canonical event rows (AppendRow) into a streaming SHA-256
// instead of storing them. Add feeds it, from a machine it listens to or
// from already-materialized events: a tracestream recording, or a client
// checking the rows it received. hsfqdiff uses it to compare two runs'
// event streams without holding either in memory, and to grab prefix
// digests at checkpoint instants: Sum does not disturb the running state,
// so the digest of the stream so far can be sampled at any event boundary.
type Hasher struct {
	h        hash.Hash
	numCores int
	rows     int
	buf      []byte // rows not yet written to h, fewer than hashBatch bytes between calls
}

// NewHasher returns an empty stream hasher.
func NewHasher() *Hasher {
	return &Hasher{h: sha256.New(), numCores: 1, buf: make([]byte, 0, hashBatch+rowRoom)}
}

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
func (s *Hasher) Add(e Event) { s.Fold(&e) }

// Fold is Add for a caller holding the event by pointer; it does not
// keep e.
func (s *Hasher) Fold(e *Event) {
	s.buf = appendRow(s.buf, e, s.numCores)
	s.rows++
	if len(s.buf) >= hashBatch {
		s.flush()
	}
}

// flush writes the gathered rows to the digest.
func (s *Hasher) flush() {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

// Rows returns how many events have been hashed.
func (s *Hasher) Rows() int { return s.rows }

// Sum returns the hex digest of the stream so far without disturbing the
// running state: it writes the gathered rows first, so the digest covers
// every row added.
func (s *Hasher) Sum() string {
	s.flush()
	var sum [sha256.Size]byte
	return hex.EncodeToString(s.h.Sum(sum[:0]))
}
