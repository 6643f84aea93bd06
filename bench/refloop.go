package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"slices"
	"time"
)

// refChunkNs is the median time of one reference chunk on the calibration
// machine (see README.md). Times are reported at that machine speed: a run
// that measures its reference chunks at R ns scales every duration by
// refChunkNs/R, and every closed-loop rate by R/refChunkNs.
const refChunkNs = 650_000

// refLoop is a fixed amount of CPU work that uses none of the repository's
// code and allocates nothing: hashing, sorting and map updates over
// buffers allocated once. Timing it between operations tracks how fast the
// machine is running the benchmark right now, so the slow drift of a
// shared machine can be divided out of the reported times.
type refLoop struct {
	buf           []byte
	keys, scratch []uint32
	counts        map[uint32]uint32
	samples       []float64   // ns per chunk
	stamps        []time.Time // when each chunk ended, in order
}

func newRefLoop() *refLoop {
	r := rand.New(rand.NewPCG(1, 1))
	l := &refLoop{
		buf:     make([]byte, 16<<10),
		keys:    make([]uint32, 2048),
		scratch: make([]uint32, 2048),
		counts:  make(map[uint32]uint32, 1024),
	}
	for i := range l.keys {
		l.keys[i] = r.Uint32()
	}
	for i := range l.buf {
		l.buf[i] = byte(r.Uint32())
	}
	return l
}

// chunk runs and times one reference chunk, returning its duration.
func (l *refLoop) chunk() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 4; rep++ {
		sum := sha256.Sum256(l.buf)
		l.buf[rep] ^= sum[0]
		copy(l.scratch, l.keys)
		slices.Sort(l.scratch)
		clear(l.counts)
		for _, k := range l.scratch {
			l.counts[k%1021] += k
		}
	}
	end := time.Now()
	d := end.Sub(t0)
	l.samples = append(l.samples, float64(d))
	l.stamps = append(l.stamps, end)
	return d
}

// warm runs one chunk without recording it.
func (l *refLoop) warm() {
	n := len(l.samples)
	l.chunk()
	l.samples, l.stamps = l.samples[:n], l.stamps[:n]
}

// run times n chunks.
func (l *refLoop) run(n int) {
	for i := 0; i < n; i++ {
		l.chunk()
	}
}

// slowdown returns the median chunk time over refChunkNs: 1 at calibration
// speed, above 1 on a slower machine or moment.
func (l *refLoop) slowdown() float64 { return median(l.samples) / refChunkNs }

// localWindow is how far from an operation the chunks that scale it may lie.
const localWindow = time.Second

// slowdownAt is slowdown over the chunks timed within localWindow of t,
// or over all chunks when fewer than 8 lie that close.
func (l *refLoop) slowdownAt(t time.Time) float64 {
	lo, _ := slices.BinarySearchFunc(l.stamps, t.Add(-localWindow), time.Time.Compare)
	hi, _ := slices.BinarySearchFunc(l.stamps, t.Add(localWindow), time.Time.Compare)
	if hi-lo < 8 {
		return l.slowdown()
	}
	return median(l.samples[lo:hi]) / refChunkNs
}
