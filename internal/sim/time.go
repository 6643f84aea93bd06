// Package sim provides the discrete-event simulation kernel used by every
// other subsystem: a virtual clock, an event queue, and a deterministic
// pseudo-random number generator.
//
// All simulated time in the repository is sim.Time (int64 nanoseconds) and
// all randomness flows from sim.Rand with explicit seeds, so every
// experiment is bit-reproducible.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: the simulation
// never consults the wall clock.
type Time int64

// Common durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to a simulated delta.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with a unit chosen for readability.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t%Millisecond == 0:
		return fmt.Sprintf("%dms", t/Millisecond)
	case t%Microsecond == 0:
		return fmt.Sprintf("%dus", t/Microsecond)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MulDivFloor returns floor(a*b/c) without intermediate overflow: the
// work-to-time conversions of cpu and sched scale by a rate and a second.
// It panics if the quotient does not fit in 64 bits.
func MulDivFloor(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		panic("sim: mulDiv overflow")
	}
	q, _ := bits.Div64(hi, lo, c)
	return q
}

// MulDivCeil returns ceil(a*b/c) without intermediate overflow. It panics
// if the quotient does not fit in 64 bits.
func MulDivCeil(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		panic("sim: mulDiv overflow")
	}
	q, r := bits.Div64(hi, lo, c)
	if r > 0 {
		q++
	}
	return q
}
