package sim

import (
	"fmt"
	"math"
)

// This file is the bottom of the checkpoint stack: a tiny canonical binary
// codec that every layer (cpu, sched, core, workload, trace) uses to save
// and load its mutable state. It lives in sim so that the layers above can
// implement their Stater hooks without import cycles; the framing, version
// and integrity header live higher up, in internal/checkpoint.
//
// Encoding rules (the canon that makes snapshots content-addressable):
// fixed-width little-endian for every scalar, float64 as IEEE-754 bits,
// strings and byte blobs length-prefixed with a u64. There is no varint and
// no map iteration anywhere near an encoder: the same state always encodes
// to the same bytes.

// Enc is an append-only canonical encoder. The zero value is ready to use;
// Reset keeps the underlying buffer so steady-state encoding into a warm
// Enc performs no allocations (guarded by alloc_guard_test.go).
type Enc struct {
	buf []byte
}

// Reset empties the encoder, retaining capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded bytes. The slice aliases the encoder's buffer
// and is invalidated by the next Reset or append.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Enc) Len() int { return len(e.buf) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int (as int64).
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// Time appends a simulation Time.
func (e *Enc) Time(t Time) { e.I64(int64(t)) }

// F64 appends a float64 as its IEEE-754 bit pattern, so encode/decode is
// exact (no formatting round trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Dec decodes bytes produced by Enc. Errors are sticky: after the first
// malformed or truncated read every subsequent read returns a zero value,
// so decode paths can be written straight-line and check Err once. A Dec
// never panics on hostile input — lengths and counts are bounded by the
// remaining input before any allocation.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b. The decoder does not copy b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("sim: truncated input at offset %d: need 8 bytes, have %d", d.off, d.Remaining())
		return 0
	}
	b := d.buf[d.off : d.off+8]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// Time reads a simulation Time.
func (d *Dec) Time() Time { return Time(d.I64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("sim: truncated input at offset %d: need 1 byte", d.off)
		return false
	}
	v := d.buf[d.off]
	d.off++
	if v > 1 {
		d.fail("sim: invalid bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// Blob reads a length-prefixed byte slice. The returned slice aliases the
// decoder's input. A length exceeding the remaining input is an error, not
// an allocation.
func (d *Dec) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("sim: blob length %d exceeds remaining %d bytes", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Count reads a non-negative element count and validates it against the
// remaining input assuming each element occupies at least minBytes bytes,
// so hostile counts cannot drive huge allocations.
func (d *Dec) Count(minBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.fail("sim: negative count %d", n)
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > int64(d.Remaining()/minBytes) {
		d.fail("sim: count %d exceeds remaining input (%d bytes, >=%d per element)",
			n, d.Remaining(), minBytes)
		return 0
	}
	return int(n)
}

// Rows reads a list of keyed rows: a count bounded as by Count, then per
// row a key, which must be greater than the previous row's, and the rest
// of the row, which row decodes. Every checkpoint list keyed by thread
// ID, node ID or queue priority goes through Rows, so the strictly
// increasing order that makes those encodings canonical, and that rules
// out a key listed twice, is enforced in this one place. who names the
// list in the ordering error.
func (d *Dec) Rows(who string, minBytes int, row func(key int) error) error {
	n := d.Count(minBytes)
	prev := math.MinInt
	for i := 0; i < n; i++ {
		key := d.Int()
		if d.err != nil {
			return d.err
		}
		if key <= prev {
			return fmt.Errorf("%s: keys not strictly increasing at %d", who, key)
		}
		prev = key
		if err := row(key); err != nil {
			return err
		}
	}
	return d.err
}
