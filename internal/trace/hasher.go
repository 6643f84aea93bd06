package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

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

// Rows returns how many events have been hashed.
func (s *Hasher) Rows() int { return s.rows }

// Sum returns the hex digest of the stream so far without disturbing the
// running state.
func (s *Hasher) Sum() string {
	var sum [sha256.Size]byte
	return hex.EncodeToString(s.h.Sum(sum[:0]))
}
